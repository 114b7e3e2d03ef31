#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "json_checker.hpp"
#include "starvm/engine.hpp"
#include "starvm/trace_export.hpp"

namespace starvm {
namespace {

EngineStats sample_stats() {
  EngineConfig config = EngineConfig::cpus(2, 10.0);
  config.mode = ExecutionMode::kPureSim;
  config.task_overhead_us = 0.0;
  Engine engine(std::move(config));
  Codelet c;
  c.name = "work";
  c.impls.push_back({DeviceKind::kCpu, nullptr});
  c.flops = [](const std::vector<BufferView>&) { return 1e8; };
  std::vector<std::vector<double>> buffers(4, std::vector<double>(1));
  for (auto& buf : buffers) {
    DataHandle* h = engine.register_vector(buf.data(), 1);
    engine.submit(TaskDesc{&c, {{h, Access::kReadWrite}}, "t"});
  }
  EXPECT_TRUE(engine.wait_all().ok());
  return engine.stats();
}

/// The engine lanes alone: no toolchain spans.
std::string engine_trace(const EngineStats& stats) {
  return merged_chrome_trace({}, &stats);
}

TEST(ChromeTrace, ContainsDeviceMetadataAndTaskEvents) {
  const std::string json = engine_trace(sample_stats());
  EXPECT_EQ(json.front(), '[');
  EXPECT_EQ(json.back(), ']');
  EXPECT_NE(json.find("\"thread_name\""), std::string::npos);
  EXPECT_NE(json.find("cpu0"), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"t\""), std::string::npos);
  EXPECT_NE(json.find("\"flops\":1e+08"), std::string::npos);
  // 2 process_name + 2 thread_name metadata events, 4 task events.
  const auto count = [&](const char* needle) {
    std::size_t n = 0, pos = 0;
    while ((pos = json.find(needle, pos)) != std::string::npos) {
      ++n;
      ++pos;
    }
    return n;
  };
  EXPECT_EQ(count("\"ph\":\"M\""), 4u);
  EXPECT_EQ(count("\"ph\":\"X\""), 4u);
}

TEST(ChromeTrace, EscapesLabels) {
  EngineStats stats;
  stats.devices.push_back(DeviceStats{"dev\"1\"", DeviceKind::kCpu, 0, 0, 0});
  stats.trace.push_back(TaskTrace{1, "a\"b\\c\n", 0, 0.0, 1.0, 0.0, 1.0, 0.0});
  stats.makespan_seconds = 1.0;
  const std::string json = engine_trace(stats);
  EXPECT_NE(json.find("a\\\"b\\\\c\\n"), std::string::npos);
  EXPECT_NE(json.find("dev\\\"1\\\""), std::string::npos);
}

TEST(ChromeTrace, EmptyStatsYieldEmptyValidArray) {
  // Nothing but the two process lanes' names: no device rows, no events.
  const EngineStats empty;
  const std::string json = engine_trace(empty);
  EXPECT_EQ(json,
            "[{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,"
            "\"args\":{\"name\":\"toolchain wall time\"}},"
            "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":2,"
            "\"args\":{\"name\":\"engine virtual time\"}}]");
  EXPECT_TRUE(testjson::parse(json).ok);
}

TEST(ChromeTrace, ZeroDurationTaskStillRenders) {
  EngineStats stats;
  stats.devices.push_back(DeviceStats{"cpu0", DeviceKind::kCpu, 1, 0.0, 0.0});
  stats.trace.push_back(TaskTrace{1, "instant", 0, 2.0, 2.0, 0.0, 0.0, 0.0});
  const std::string json = engine_trace(stats);
  const auto parsed = testjson::parse(json);
  ASSERT_TRUE(parsed.ok) << parsed.error << "\n" << json;
  EXPECT_TRUE(testjson::contains_string(parsed, "instant"));
  EXPECT_NE(json.find("\"dur\":0"), std::string::npos);
}

TEST(ChromeTrace, DegenerateDurationsClampToZero) {
  EngineStats stats;
  stats.devices.push_back(DeviceStats{"cpu0", DeviceKind::kCpu, 3, 0.0, 0.0});
  const double nan = std::nan("");
  const double inf = std::numeric_limits<double>::infinity();
  // NaN start, negative duration (finish < start), infinite transfer.
  stats.trace.push_back(TaskTrace{1, "bad_start", 0, nan, 1.0, 0.0, 0.0, 1.0});
  stats.trace.push_back(TaskTrace{2, "backwards", 0, 5.0, 1.0, 0.0, 0.0, 1.0});
  stats.trace.push_back(TaskTrace{3, "bad_xfer", 0, 0.0, 1.0, inf, -2.0, 1.0});
  const std::string json = engine_trace(stats);
  const auto parsed = testjson::parse(json);
  ASSERT_TRUE(parsed.ok) << parsed.error << "\n" << json;
  EXPECT_EQ(json.find(":nan"), std::string::npos);
  EXPECT_EQ(json.find(":inf"), std::string::npos);
  EXPECT_EQ(json.find(":-2"), std::string::npos);
  EXPECT_NE(json.find("\"ts\":0"), std::string::npos);       // NaN start
  EXPECT_NE(json.find("\"dur\":0"), std::string::npos);      // negative duration
  EXPECT_NE(json.find("\"transfer_us\":0"), std::string::npos);
}

TEST(ChromeTrace, NonFiniteFlopsOmitted) {
  EngineStats stats;
  stats.devices.push_back(DeviceStats{"cpu0", DeviceKind::kCpu, 1, 0.0, 0.0});
  stats.trace.push_back(
      TaskTrace{1, "t", 0, 0.0, 1.0, 0.0, 1.0, std::nan("")});
  const std::string json = engine_trace(stats);
  ASSERT_TRUE(testjson::parse(json).ok);
  EXPECT_EQ(json.find("\"flops\""), std::string::npos);
}

TEST(ChromeTrace, UnassignedTasksGetTheirOwnLane) {
  EngineStats stats;
  stats.devices.push_back(DeviceStats{"cpu0", DeviceKind::kCpu, 0, 0.0, 0.0});
  stats.trace.push_back(TaskTrace{1, "orphan", -1, 0.0, 1.0, 0.0, 1.0, 0.0});
  const std::string json = engine_trace(stats);
  const auto parsed = testjson::parse(json);
  ASSERT_TRUE(parsed.ok) << parsed.error << "\n" << json;
  EXPECT_TRUE(testjson::contains_string(parsed, "unassigned"));
  // The orphan renders on the extra lane after the last device (tid 1 here).
  EXPECT_NE(json.find("\"name\":\"orphan\",\"ph\":\"X\",\"pid\":2,\"tid\":1"),
            std::string::npos);
}

TEST(ChromeTrace, HostileLabelsSurviveARoundTrip) {
  const std::string label = "qu\"ote back\\slash ctrl\x01\ttab";
  EngineStats stats;
  stats.devices.push_back(DeviceStats{"dev", DeviceKind::kCpu, 1, 0.0, 0.0});
  stats.trace.push_back(TaskTrace{1, label, 0, 0.0, 1.0, 0.0, 1.0, 0.0});
  const std::string json = engine_trace(stats);
  const auto parsed = testjson::parse(json);
  ASSERT_TRUE(parsed.ok) << parsed.error << "\n" << json;
  EXPECT_TRUE(testjson::contains_string(parsed, label));
}

TEST(AsciiGantt, RendersOneRowPerDevice) {
  const std::string gantt = to_ascii_gantt(sample_stats(), 40);
  // Two device rows plus the footer.
  std::size_t newlines = 0;
  for (char c : gantt) newlines += c == '\n';
  EXPECT_EQ(newlines, 3u);
  EXPECT_NE(gantt.find("cpu0"), std::string::npos);
  EXPECT_NE(gantt.find("cpu1"), std::string::npos);
  EXPECT_NE(gantt.find('#'), std::string::npos);
}

TEST(AsciiGantt, EmptyTraceHandled) {
  EngineStats stats;
  EXPECT_EQ(to_ascii_gantt(stats), "(empty trace)\n");
}

TEST(AsciiGantt, TransferFractionPaintsDashes) {
  EngineStats stats;
  stats.devices.push_back(DeviceStats{"gpu", DeviceKind::kAccelerator, 1, 1.0, 1.0});
  // Half the task span is transfer.
  stats.trace.push_back(TaskTrace{1, "t", 0, 0.0, 2.0, 1.0, 1.0, 0.0});
  stats.makespan_seconds = 2.0;
  const std::string gantt = to_ascii_gantt(stats, 20);
  EXPECT_NE(gantt.find('-'), std::string::npos);
  EXPECT_NE(gantt.find('#'), std::string::npos);
}

}  // namespace
}  // namespace starvm
