#include <gtest/gtest.h>

#include <atomic>

#include "starvm/engine.hpp"

namespace starvm {
namespace {

/// Run `tasks` independent equal-cost tasks on the given config; return stats.
EngineStats run_batch(EngineConfig config, int tasks, double flops_each) {
  config.task_overhead_us = 0.0;
  Engine engine(std::move(config));
  std::vector<std::vector<double>> buffers(static_cast<std::size_t>(tasks),
                                           std::vector<double>(4, 0.0));
  Codelet c;
  c.name = "unit";
  c.impls.push_back(Implementation{DeviceKind::kCpu, nullptr});
  c.impls.push_back(Implementation{DeviceKind::kAccelerator, nullptr});
  c.flops = [flops_each](const std::vector<BufferView>&) { return flops_each; };
  for (int i = 0; i < tasks; ++i) {
    DataHandle* h = engine.register_vector(buffers[static_cast<std::size_t>(i)].data(), 4);
    engine.submit(TaskDesc{&c, {{h, Access::kReadWrite}}});
  }
  EXPECT_TRUE(engine.wait_all().ok());
  return engine.stats();
}

class AllSchedulersTest : public testing::TestWithParam<SchedulerKind> {};

TEST_P(AllSchedulersTest, DrainsAllTasks) {
  EngineConfig config = EngineConfig::cpus(4, 10.0);
  config.scheduler = GetParam();
  config.mode = ExecutionMode::kPureSim;
  const EngineStats stats = run_batch(std::move(config), 100, 1e6);
  EXPECT_EQ(stats.tasks_completed, 100u);
}

TEST_P(AllSchedulersTest, UsesMultipleDevices) {
  // Real (hybrid) execution: in pure simulation tasks cost zero wall time,
  // so a single greedy worker can drain the queue before peers wake.
  EngineConfig config = EngineConfig::cpus(4, 10.0);
  config.scheduler = GetParam();
  Engine engine(std::move(config));
  Codelet c;
  c.name = "sleepy";
  c.impls.push_back(Implementation{DeviceKind::kCpu, [](const ExecContext&) {
                                     std::this_thread::sleep_for(
                                         std::chrono::milliseconds(3));
                                   }});
  std::vector<std::vector<double>> buffers(32, std::vector<double>(1));
  for (auto& buf : buffers) {
    DataHandle* h = engine.register_vector(buf.data(), 1);
    engine.submit(TaskDesc{&c, {{h, Access::kReadWrite}}});
  }
  EXPECT_TRUE(engine.wait_all().ok());
  int devices_used = 0;
  for (const auto& d : engine.stats().devices) {
    if (d.tasks_run > 0) ++devices_used;
  }
  EXPECT_GE(devices_used, 2) << to_string(GetParam());
}

TEST_P(AllSchedulersTest, DependenciesRespectedUnderEveryPolicy) {
  EngineConfig config = EngineConfig::cpus(4);
  config.scheduler = GetParam();
  Engine engine(std::move(config));
  std::vector<double> data(1, 0.0);
  DataHandle* h = engine.register_vector(data.data(), 1);
  Codelet inc = [] {
    Codelet c;
    c.name = "inc";
    c.impls.push_back(Implementation{DeviceKind::kCpu, [](const ExecContext& ctx) {
                                       ctx.buffer(0)[0] += 1.0;
                                     }});
    return c;
  }();
  for (int i = 0; i < 50; ++i) {
    engine.submit(TaskDesc{&inc, {{h, Access::kReadWrite}}});
  }
  EXPECT_TRUE(engine.wait_all().ok());
  EXPECT_DOUBLE_EQ(data[0], 50.0);
}

INSTANTIATE_TEST_SUITE_P(Policies, AllSchedulersTest,
                         testing::Values(SchedulerKind::kEager,
                                         SchedulerKind::kWorkStealing,
                                         SchedulerKind::kHeft),
                         [](const testing::TestParamInfo<SchedulerKind>& param_info) {
                           return std::string(to_string(param_info.param));
                         });

TEST(HeftScheduler, PrefersFasterDeviceForMostWork) {
  // One 10x faster device: HEFT should give it the bulk of the batch.
  EngineConfig config;
  DeviceSpec slow;
  slow.name = "slow";
  slow.sustained_gflops = 1.0;
  DeviceSpec fast;
  fast.name = "fast";
  fast.sustained_gflops = 10.0;
  config.devices = {slow, fast};
  config.scheduler = SchedulerKind::kHeft;
  config.mode = ExecutionMode::kPureSim;

  const EngineStats stats = run_batch(std::move(config), 110, 1e8);
  ASSERT_EQ(stats.devices.size(), 2u);
  const auto& slow_stats = stats.devices[0];
  const auto& fast_stats = stats.devices[1];
  EXPECT_EQ(slow_stats.tasks_run + fast_stats.tasks_run, 110u);
  // Ideal split is 10:100; allow slack but demand a clear skew.
  EXPECT_GT(fast_stats.tasks_run, 4 * slow_stats.tasks_run);
}

TEST(HeftScheduler, AccountsForTransferCosts) {
  // Data resident on the host: a slightly faster accelerator with an
  // expensive link should lose small tasks to the CPU.
  EngineConfig config;
  DeviceSpec cpu;
  cpu.name = "cpu";
  cpu.kind = DeviceKind::kCpu;
  cpu.sustained_gflops = 10.0;
  DeviceSpec accel;
  accel.name = "accel";
  accel.kind = DeviceKind::kAccelerator;
  accel.sustained_gflops = 12.0;
  accel.link_bandwidth_gbs = 0.001;  // dreadful link
  accel.link_latency_us = 10000.0;
  config.devices = {cpu, accel};
  config.scheduler = SchedulerKind::kHeft;
  config.mode = ExecutionMode::kPureSim;
  config.task_overhead_us = 0.0;

  Engine engine(std::move(config));
  Codelet c;
  c.name = "tiny";
  c.impls.push_back(Implementation{DeviceKind::kCpu, nullptr});
  c.impls.push_back(Implementation{DeviceKind::kAccelerator, nullptr});
  c.flops = [](const std::vector<BufferView>&) { return 1e6; };

  std::vector<std::vector<double>> buffers(20, std::vector<double>(1024, 0.0));
  for (auto& buf : buffers) {
    DataHandle* h = engine.register_vector(buf.data(), buf.size());
    engine.submit(TaskDesc{&c, {{h, Access::kRead}}});
  }
  EXPECT_TRUE(engine.wait_all().ok());
  const EngineStats stats = engine.stats();
  EXPECT_EQ(stats.devices[0].tasks_run, 20u);  // everything stayed on the CPU
  EXPECT_EQ(stats.devices[1].tasks_run, 0u);
}

TEST(WorkStealing, BalancesSkewedInitialPlacement) {
  EngineConfig config = EngineConfig::cpus(4, 10.0);
  config.scheduler = SchedulerKind::kWorkStealing;
  Engine engine(std::move(config));

  std::atomic<int> executed{0};
  Codelet c;
  c.name = "spin";
  c.impls.push_back(Implementation{DeviceKind::kCpu, [&](const ExecContext&) {
                                     ++executed;
                                     std::this_thread::sleep_for(
                                         std::chrono::milliseconds(2));
                                   }});
  std::vector<std::vector<double>> buffers(40, std::vector<double>(1));
  for (auto& buf : buffers) {
    DataHandle* h = engine.register_vector(buf.data(), 1);
    engine.submit(TaskDesc{&c, {{h, Access::kReadWrite}}});
  }
  EXPECT_TRUE(engine.wait_all().ok());
  EXPECT_EQ(executed.load(), 40);
  const EngineStats stats = engine.stats();
  int devices_used = 0;
  for (const auto& d : stats.devices) {
    if (d.tasks_run > 0) ++devices_used;
  }
  EXPECT_GE(devices_used, 3);
}

TEST(SchedulerKindStrings, Roundtrip) {
  EXPECT_EQ(to_string(SchedulerKind::kEager), "eager");
  EXPECT_EQ(to_string(SchedulerKind::kWorkStealing), "ws");
  EXPECT_EQ(to_string(SchedulerKind::kHeft), "heft");
  EXPECT_EQ(to_string(DeviceKind::kCpu), "cpu");
  EXPECT_EQ(to_string(DeviceKind::kAccelerator), "accelerator");
}

}  // namespace
}  // namespace starvm
