#include "starvm/bridge.hpp"

#include <algorithm>

#include "pdl/query.hpp"
#include "pdl/well_known.hpp"
#include "util/string_util.hpp"

namespace starvm {

namespace {

/// Optional `reliability` properties (MAX_RETRIES, MTBF_HOURS), inherited
/// upward like the rate properties so a controller can declare them once.
void apply_reliability(const pdl::ProcessingUnit& pu, DeviceSpec& spec) {
  if (const pdl::Property* p = pdl::resolve_property(pu, pdl::props::kMaxRetries)) {
    if (auto v = p->as_double(); v && *v >= 0.0) {
      spec.max_retries = static_cast<int>(*v);
    }
  }
  if (const pdl::Property* p = pdl::resolve_property(pu, pdl::props::kMtbfHours)) {
    if (auto v = p->as_double(); v && *v > 0.0) spec.mtbf_hours = *v;
  }
}

}  // namespace

pdl::util::Result<PlatformDevices> platform_devices(const pdl::Platform& platform) {
  if (platform.masters().empty()) {
    return pdl::util::Error{"platform has no Master PU"};
  }
  PlatformDevices out;
  for (const pdl::ProcessingUnit* master :
       pdl::pus_of_kind(platform, pdl::PuKind::kMaster)) {
    if ((out.host_memory = pdl::props::sized_memory_region(*master)) != nullptr) {
      out.host = master;
      out.host_memory_bytes = *pdl::props::memory_capacity_bytes(*out.host_memory);
      break;
    }
  }

  // Workers execute tasks; Hybrid PUs "act as master and worker at the
  // same time" (paper §III-A), so they contribute execution capacity too.
  std::vector<const pdl::ProcessingUnit*> executing_pus =
      pdl::pus_of_kind(platform, pdl::PuKind::kWorker);
  for (const pdl::ProcessingUnit* hybrid :
       pdl::pus_of_kind(platform, pdl::PuKind::kHybrid)) {
    executing_pus.push_back(hybrid);
  }

  int cpus = 0;
  for (const pdl::ProcessingUnit* pu : executing_pus) {
    PlatformDevice device;
    device.pu = pu;
    DeviceSpec& spec = device.spec;
    const std::string arch = pdl::resolved_value(*pu, pdl::props::kArchitecture);
    if (pdl::util::iequals(arch, "x86_core") || pdl::util::iequals(arch, "x86") ||
        pdl::util::iequals(arch, "cpu_core") || pdl::util::iequals(arch, "ppe") ||
        pdl::util::iequals(arch, "riscv") ||
        pdl::util::iequals(arch, "riscv_core") || arch.empty()) {
      spec.sustained_gflops = pdl::props::sustained_gflops(*pu, 0.9, kDefaultCpuGflops);
      cpus += pu->quantity();
    } else {
      // Everything non-CPU is a simulated accelerator (gpu, spe, ...).
      spec.kind = DeviceKind::kAccelerator;
      spec.sustained_gflops =
          pdl::props::sustained_gflops(*pu, 0.65, kDefaultAccelGflops);
      if ((device.memory = pdl::props::sized_memory_region(*pu)) != nullptr) {
        spec.memory_bytes = *pdl::props::memory_capacity_bytes(*device.memory);
      }
      if (pu->parent() != nullptr) {
        device.link = pdl::find_interconnect(platform, pu->parent()->id(), pu->id());
      }
      spec.link_bandwidth_gbs = pdl::kControlLinkBandwidthGbs;
      spec.link_latency_us = pdl::kControlLinkLatencyUs;
      if (device.link != nullptr) {
        spec.link_bandwidth_gbs = pdl::props::link_bandwidth_gbs(*device.link)
                                      .value_or(spec.link_bandwidth_gbs);
        spec.link_latency_us = pdl::props::link_latency_us(*device.link)
                                   .value_or(spec.link_latency_us);
      }
    }
    apply_reliability(*pu, spec);
    for (int i = 0; i < pu->quantity(); ++i) {
      spec.name = pu->quantity() == 1 ? pu->id() : pu->id() + "#" + std::to_string(i);
      out.devices.push_back(device);
    }
  }

  if (out.devices.empty()) {
    // The "single" configuration: the Master executes the fall-back variant.
    const pdl::ProcessingUnit& master = *platform.masters().front();
    PlatformDevice& device = out.devices.emplace_back();
    device.pu = &master;
    device.spec.name = "master:" + master.id();
    device.spec.sustained_gflops =
        pdl::props::sustained_gflops(master, 0.9, kDefaultCpuGflops);
    apply_reliability(master, device.spec);
    device.store_id = 0;
    return out;
  }

  // StarPU-style driver cores: each accelerator consumes one CPU worker,
  // the last ones in declaration order. The dedicated list is the kept
  // CPUs followed by the accelerators.
  const int accelerators = static_cast<int>(out.devices.size()) - cpus;
  const int kept_cpus = cpus - std::min(cpus, accelerators);
  int next_cpu = 0;
  int next_accelerator = kept_cpus;
  for (PlatformDevice& device : out.devices) {
    if (device.spec.kind == DeviceKind::kAccelerator) {
      device.store_id = next_accelerator++;
    } else if (next_cpu < kept_cpus) {
      device.store_id = next_cpu++;
    }
  }
  return out;
}

pdl::util::Result<EngineConfig> engine_config_from_platform(
    const pdl::Platform& platform, const BridgeOptions& options) {
  auto table = platform_devices(platform);
  if (!table.ok()) return table.error();

  EngineConfig config;
  config.scheduler = options.scheduler;
  config.mode = options.mode;
  config.record_decisions = options.record_decisions;
  for (const DeviceKind kind : {DeviceKind::kCpu, DeviceKind::kAccelerator}) {
    for (const PlatformDevice& device : table.value().devices) {
      if (device.spec.kind == kind &&
          (device.store_id >= 0 || !options.dedicate_driver_cores)) {
        config.devices.push_back(device.spec);
      }
    }
  }
  return config;
}

}  // namespace starvm
