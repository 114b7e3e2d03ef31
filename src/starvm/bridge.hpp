// PDL -> starvm bridge: construct an engine configuration directly from a
// platform description.
//
// This is the paper's central claim made executable: "by varying the target
// PDL descriptor our compiler can generate code for different target
// architectures without the need to modify the source program" (§I). The
// generated programs differ only in which Platform they load; this bridge
// turns that Platform into the device set the runtime schedules on.
//
// Mapping rules:
//   * Worker PUs with ARCHITECTURE=x86_core become CPU devices (one per
//     `quantity`), their sustained rate from SUSTAINED_GFLOPS (upward-
//     inherited, so it may live on the Master).
//   * Worker PUs with any other architecture (gpu, spe, ...) become
//     simulated accelerator devices; link parameters come from the
//     Interconnect declared between their controller and them (pdl's
//     control-link defaults for a missing link or property).
//   * A platform with no Worker PUs (the paper's "single" configuration)
//     yields one CPU device representing the Master itself.
//   * Like StarPU on the paper's testbed, each accelerator dedicates one
//     CPU core as its driver: one CPU device is removed per accelerator
//     (never below zero). Disable via BridgeOptions.
// platform_devices() applies these rules; the engine configuration and the
// A5xx schedule simulator (analysis/schedule_sim) are both built from it.
#pragma once

#include <cstdint>
#include <vector>

#include "pdl/model.hpp"
#include "starvm/device.hpp"
#include "util/result.hpp"

namespace starvm {

/// Sustained rate when a PU declares neither SUSTAINED_GFLOPS nor
/// PEAK_GFLOPS.
constexpr double kDefaultCpuGflops = 5.0;
constexpr double kDefaultAccelGflops = 50.0;

/// One device the platform describes (a PU instance).
struct PlatformDevice {
  DeviceSpec spec;
  const pdl::ProcessingUnit* pu = nullptr;
  /// The Interconnect between the PU's controller and the PU; nullptr for
  /// CPUs and for accelerators that declare none.
  const pdl::Interconnect* link = nullptr;
  /// An accelerator's first MemoryRegion with a SIZE (spec.memory_bytes
  /// holds that size); nullptr when it declares none, and for CPUs.
  const pdl::MemoryRegion* memory = nullptr;
  /// Index in the driver-core-dedicated device list, the list a perf
  /// store's descriptor hash binds; -1 for a dedicated driver core.
  int store_id = -1;
};

struct PlatformDevices {
  /// One entry per device in PU declaration order (Workers, then Hybrids),
  /// or the single Master fallback.
  std::vector<PlatformDevice> devices;
  /// The host memory: the first sized MemoryRegion on a Master, with its
  /// owner; nullptr when no Master declares a SIZE.
  const pdl::ProcessingUnit* host = nullptr;
  const pdl::MemoryRegion* host_memory = nullptr;
  std::uint64_t host_memory_bytes = 0;
};

/// Read the platform's devices. Fails when the platform has no Master.
pdl::util::Result<PlatformDevices> platform_devices(const pdl::Platform& platform);

struct BridgeOptions {
  SchedulerKind scheduler = SchedulerKind::kHeft;
  ExecutionMode mode = ExecutionMode::kHybrid;
  /// Remove one CPU device per accelerator (StarPU driver cores).
  bool dedicate_driver_cores = true;
  /// Forwarded to EngineConfig::record_decisions (scheduler decision log).
  bool record_decisions = false;
};

/// Build an engine configuration from a platform description: the
/// platform_devices() table, CPUs first, then accelerators. Fails when the
/// platform has no Master.
pdl::util::Result<EngineConfig> engine_config_from_platform(
    const pdl::Platform& platform, const BridgeOptions& options = {});

}  // namespace starvm
