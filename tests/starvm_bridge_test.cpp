#include <gtest/gtest.h>

#include "discovery/presets.hpp"
#include "pdl/query.hpp"
#include "starvm/bridge.hpp"
#include "starvm/engine.hpp"

namespace starvm {
namespace {

using pdl::discovery::cell_be_platform;
using pdl::discovery::paper_platform_single;
using pdl::discovery::paper_platform_starpu_2gpu;
using pdl::discovery::paper_platform_starpu_cpu;

int count_kind(const EngineConfig& config, DeviceKind kind) {
  int n = 0;
  for (const auto& d : config.devices) {
    if (d.kind == kind) ++n;
  }
  return n;
}

TEST(Bridge, SinglePlatformYieldsOneMasterCpu) {
  auto config = engine_config_from_platform(paper_platform_single());
  ASSERT_TRUE(config.ok()) << config.error().str();
  ASSERT_EQ(config.value().devices.size(), 1u);
  EXPECT_EQ(config.value().devices[0].kind, DeviceKind::kCpu);
  // SUSTAINED_GFLOPS=9.8 from the preset master.
  EXPECT_NEAR(config.value().devices[0].sustained_gflops, 9.8, 1e-9);
}

TEST(Bridge, StarpuCpuPlatformYieldsEightCpus) {
  auto config = engine_config_from_platform(paper_platform_starpu_cpu());
  ASSERT_TRUE(config.ok());
  EXPECT_EQ(count_kind(config.value(), DeviceKind::kCpu), 8);
  EXPECT_EQ(count_kind(config.value(), DeviceKind::kAccelerator), 0);
}

TEST(Bridge, GpuPlatformDedicatesDriverCores) {
  auto config = engine_config_from_platform(paper_platform_starpu_2gpu());
  ASSERT_TRUE(config.ok());
  // StarPU-style: 8 cores - 2 GPU drivers = 6 CPU workers + 2 accelerators.
  EXPECT_EQ(count_kind(config.value(), DeviceKind::kCpu), 6);
  EXPECT_EQ(count_kind(config.value(), DeviceKind::kAccelerator), 2);
}

TEST(Bridge, DriverCoreDedicationCanBeDisabled) {
  BridgeOptions options;
  options.dedicate_driver_cores = false;
  auto config = engine_config_from_platform(paper_platform_starpu_2gpu(), options);
  ASSERT_TRUE(config.ok());
  EXPECT_EQ(count_kind(config.value(), DeviceKind::kCpu), 8);
  EXPECT_EQ(count_kind(config.value(), DeviceKind::kAccelerator), 2);
}

TEST(Bridge, AcceleratorRatesAndLinksComeFromPdl) {
  auto config = engine_config_from_platform(paper_platform_starpu_2gpu());
  ASSERT_TRUE(config.ok());
  const DeviceSpec* gtx480 = nullptr;
  const DeviceSpec* gtx285 = nullptr;
  for (const auto& d : config.value().devices) {
    if (d.name == "gpu1") gtx480 = &d;
    if (d.name == "gpu2") gtx285 = &d;
  }
  ASSERT_NE(gtx480, nullptr);
  ASSERT_NE(gtx285, nullptr);
  // 168 * 0.62 and 88.5 * 0.80 from the device DB via SUSTAINED_GFLOPS.
  EXPECT_NEAR(gtx480->sustained_gflops, 168.0 * 0.62, 0.5);
  EXPECT_NEAR(gtx285->sustained_gflops, 88.5 * 0.80, 0.5);
  // PCIe parameters from the Interconnect descriptor.
  EXPECT_NEAR(gtx480->link_bandwidth_gbs, 5.6, 1e-6);
  EXPECT_NEAR(gtx480->link_latency_us, 12.0, 1e-6);
}

TEST(Bridge, CellPlatformMapsSpesToAccelerators) {
  auto config = engine_config_from_platform(cell_be_platform());
  ASSERT_TRUE(config.ok());
  EXPECT_EQ(count_kind(config.value(), DeviceKind::kAccelerator), 8);
}

TEST(Bridge, HybridPusContributeExecutionCapacity) {
  // Paper §III-A: Hybrids act as master AND worker — they execute tasks.
  auto config =
      engine_config_from_platform(pdl::discovery::hierarchical_hybrid_platform());
  ASSERT_TRUE(config.ok());
  // Workers: 4+4 x86 cores (CPU), 2 gpu (accelerator); hybrids h0,h1 (x86,
  // CPU). Driver-core dedication removes 2 CPUs for the 2 accelerators.
  EXPECT_EQ(count_kind(config.value(), DeviceKind::kAccelerator), 2);
  EXPECT_EQ(count_kind(config.value(), DeviceKind::kCpu), 8 + 2 - 2);
}

TEST(Bridge, CpuWorkerQuantityExpands) {
  pdl::Platform p("t");
  pdl::ProcessingUnit* m = p.add_master("m");
  pdl::ProcessingUnit* w = m->add_child(pdl::PuKind::kWorker, "cores", 3);
  w->descriptor().add("ARCHITECTURE", "x86_core");
  auto config = engine_config_from_platform(p);
  ASSERT_TRUE(config.ok());
  EXPECT_EQ(count_kind(config.value(), DeviceKind::kCpu), 3);
  EXPECT_EQ(config.value().devices[0].name, "cores#0");
}

TEST(Bridge, QuantityOneCpuWorkerKeepsPlainName) {
  // Regression: quantity="1" CPUs used to be named "id#0" while accelerators
  // were named "id" — breaking name parity and profile instance pooling.
  pdl::Platform p("t");
  pdl::ProcessingUnit* m = p.add_master("m");
  pdl::ProcessingUnit* w = m->add_child(pdl::PuKind::kWorker, "solo", 1);
  w->descriptor().add("ARCHITECTURE", "x86_core");
  auto config = engine_config_from_platform(p);
  ASSERT_TRUE(config.ok());
  ASSERT_EQ(config.value().devices.size(), 1u);
  EXPECT_EQ(config.value().devices[0].name, "solo");
}

TEST(Bridge, ManycoreThousandWorkerRoundTrip) {
  // The ET-SOC1-class platform: 1088 quantity-expanded RISC-V workers
  // bridge to 1088 host-node CPU devices with stable `id#i` names, and the
  // engine collapses them into a single placement class.
  auto config =
      engine_config_from_platform(pdl::discovery::manycore_platform(1088));
  ASSERT_TRUE(config.ok()) << config.error().str();
  EXPECT_EQ(count_kind(config.value(), DeviceKind::kCpu), 1088);
  EXPECT_EQ(count_kind(config.value(), DeviceKind::kAccelerator), 0);
  EXPECT_EQ(config.value().devices.front().name, "minion#0");
  EXPECT_EQ(config.value().devices.back().name, "minion#1087");
  // No accelerators means driver-core dedication must not eat any workers.
  EXPECT_EQ(config.value().devices.size(), 1088u);

  EngineConfig engine_config = std::move(config).value();
  engine_config.mode = ExecutionMode::kPureSim;  // 1088 threads would be absurd
  Engine engine(std::move(engine_config));
  EXPECT_EQ(engine.device_count(), 1088u);
  EXPECT_EQ(engine.placement_class_count(), 1u);
}

TEST(Bridge, EmptyPlatformFails) {
  pdl::Platform p;
  auto config = engine_config_from_platform(p);
  EXPECT_FALSE(config.ok());
}

TEST(Bridge, DefaultsApplyWithoutRateProperties) {
  pdl::Platform p("t");
  pdl::ProcessingUnit* m = p.add_master("m");
  pdl::ProcessingUnit* w = m->add_child(pdl::PuKind::kWorker, "w");
  w->descriptor().add("ARCHITECTURE", "gpu");
  auto config = engine_config_from_platform(p);
  ASSERT_TRUE(config.ok());
  ASSERT_EQ(config.value().devices.size(), 1u);
  EXPECT_DOUBLE_EQ(config.value().devices[0].sustained_gflops,
                   kDefaultAccelGflops);
  // No Interconnect at all: both link parameters are pdl's control-link
  // defaults.
  EXPECT_DOUBLE_EQ(config.value().devices[0].link_bandwidth_gbs,
                   pdl::kControlLinkBandwidthGbs);
  EXPECT_DOUBLE_EQ(config.value().devices[0].link_latency_us,
                   pdl::kControlLinkLatencyUs);
}

TEST(Bridge, CellSpeLinksMatchTheDataPathModel) {
  // The EIB declares BANDWIDTH_GB_S but no LATENCY_US: every SPE gets
  // 25.6 GB/s and the control-link 1 us, the same link `pdltool path`
  // charges between ppe0 and spe.
  const pdl::Platform cell = cell_be_platform();
  auto config = engine_config_from_platform(cell);
  ASSERT_TRUE(config.ok());
  const std::size_t bytes = 1 << 20;
  const auto path = pdl::data_path_seconds(cell, "ppe0", "spe", bytes);
  ASSERT_TRUE(path.has_value());
  int spes = 0;
  for (const DeviceSpec& d : config.value().devices) {
    if (d.kind != DeviceKind::kAccelerator) continue;
    ++spes;
    EXPECT_DOUBLE_EQ(d.link_bandwidth_gbs, 25.6) << d.name;
    EXPECT_DOUBLE_EQ(d.link_latency_us, 1.0) << d.name;
    EXPECT_NEAR(transfer_seconds(bytes, d.link_bandwidth_gbs, d.link_latency_us),
                *path, 1e-12)
        << d.name;
  }
  EXPECT_EQ(spes, 8);
}

TEST(Bridge, PlatformDevicesKeepDeclarationOrderAndStoreIds) {
  // testbed-starpu-2gpu: 8 CPU cores, then gpu1 and gpu2. The two GPUs
  // dedicate the last two cores as drivers, so the engine's list (which a
  // perf store's hash binds) is cpu_cores#0..#5, gpu1, gpu2.
  const pdl::Platform testbed = paper_platform_starpu_2gpu();
  auto table = platform_devices(testbed);
  ASSERT_TRUE(table.ok()) << table.error().str();
  const auto& devices = table.value().devices;
  ASSERT_EQ(devices.size(), 10u);
  const std::vector<int> expected_ids = {0, 1, 2, 3, 4, 5, -1, -1, 6, 7};
  for (std::size_t i = 0; i < devices.size(); ++i) {
    EXPECT_EQ(devices[i].store_id, expected_ids[i]) << devices[i].spec.name;
  }
  EXPECT_EQ(devices[8].spec.name, "gpu1");
  EXPECT_NE(devices[8].link, nullptr);
  EXPECT_NE(devices[8].memory, nullptr);
  EXPECT_EQ(devices[0].link, nullptr);
  ASSERT_NE(table.value().host_memory, nullptr);
  EXPECT_GT(table.value().host_memory_bytes, 0u);

  auto config = engine_config_from_platform(testbed);
  ASSERT_TRUE(config.ok());
  for (const PlatformDevice& d : devices) {
    if (d.store_id < 0) continue;
    EXPECT_EQ(config.value().devices[static_cast<std::size_t>(d.store_id)].name,
              d.spec.name);
  }
}

TEST(Bridge, MasterFallbackHasStoreIdZero) {
  auto table = platform_devices(paper_platform_single());
  ASSERT_TRUE(table.ok());
  ASSERT_EQ(table.value().devices.size(), 1u);
  EXPECT_EQ(table.value().devices[0].store_id, 0);
  EXPECT_EQ(table.value().devices[0].spec.name.rfind("master:", 0), 0u);
}

TEST(Bridge, ConfiguredEnginesActuallyRun) {
  auto config = engine_config_from_platform(paper_platform_starpu_cpu());
  ASSERT_TRUE(config.ok());
  Engine engine(std::move(config).value());
  std::vector<double> data(8, 1.0);
  DataHandle* h = engine.register_vector(data.data(), data.size());
  Codelet c;
  c.name = "touch";
  c.impls.push_back(Implementation{DeviceKind::kCpu, [](const ExecContext& ctx) {
                                     ctx.buffer(0)[0] += 1.0;
                                   }});
  engine.submit(TaskDesc{&c, {{h, Access::kReadWrite}}});
  EXPECT_TRUE(engine.wait_all().ok());
  EXPECT_DOUBLE_EQ(data[0], 2.0);
}

}  // namespace
}  // namespace starvm
