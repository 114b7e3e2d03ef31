// Flight-recorder tests: the engine's always-on ring hooks (task
// lifecycle records, submission accounting), explicit and post-mortem
// dumps, and a concurrent wraparound stress run (picked up by the CI TSan
// filter via the *Stress* suite name) that hammers snapshot() while the
// producer laps the ring.
#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "json_checker.hpp"
#include "obs/flight_recorder.hpp"
#include "starvm/engine.hpp"
#include "util/string_util.hpp"

namespace starvm {
namespace {

Codelet make_codelet(std::string name,
                     std::function<void(const ExecContext&)> fn) {
  Codelet c;
  c.name = std::move(name);
  c.impls.push_back(Implementation{DeviceKind::kCpu, std::move(fn)});
  return c;
}

std::string temp_prefix(const std::string& name) {
  return testing::TempDir() + "/" + std::to_string(getpid()) + "." + name;
}

std::uint64_t count_kind(const std::vector<obs::FlightEvent>& events,
                         obs::FlightKind kind) {
  std::uint64_t n = 0;
  for (const obs::FlightEvent& e : events) {
    if (e.kind == kind) ++n;
  }
  return n;
}

// --- Engine integration ------------------------------------------------------

TEST(EngineFlight, SnapshotCarriesTaskLifecycle) {
  Engine engine(EngineConfig::cpus(2));
  Codelet noop = make_codelet("noop", [](const ExecContext&) {});
  std::vector<std::vector<double>> buffers(4, std::vector<double>(1));
  for (auto& buf : buffers) {
    DataHandle* h = engine.register_vector(buf.data(), 1);
    engine.submit(TaskDesc{&noop, {{h, Access::kReadWrite}}});
  }
  ASSERT_TRUE(engine.wait_all().ok());

  ASSERT_NE(engine.flight_recorder(), nullptr);
  const std::vector<obs::FlightEvent> events =
      engine.flight_recorder()->snapshot();
  EXPECT_EQ(count_kind(events, obs::FlightKind::kTaskStart), 4u);
  EXPECT_EQ(count_kind(events, obs::FlightKind::kTaskEnd), 4u);
  for (const obs::FlightEvent& e : events) {
    if (e.kind == obs::FlightKind::kTaskEnd) {
      EXPECT_TRUE(e.has_end());
      EXPECT_GE(e.t1, e.t0);
    }
  }

  const EngineStats stats = engine.stats();
  EXPECT_EQ(stats.tasks_submitted, 4u);
  EXPECT_GE(stats.flight_records, 8u);  // 4 starts + 4 ends at minimum
  EXPECT_EQ(stats.flight_overwritten, 0u);
}

TEST(EngineFlight, DisabledWhenConfiguredToZero) {
  EngineConfig config = EngineConfig::cpus(2);
  config.flight_records_per_device = 0;
  Engine engine(std::move(config));
  Codelet noop = make_codelet("noop", [](const ExecContext&) {});
  std::vector<double> data(1);
  DataHandle* h = engine.register_vector(data.data(), 1);
  engine.submit(TaskDesc{&noop, {{h, Access::kReadWrite}}});
  ASSERT_TRUE(engine.wait_all().ok());

  EXPECT_EQ(engine.flight_recorder(), nullptr);
  EXPECT_FALSE(engine.dump_flight_recorder(temp_prefix("disabled")));
  const EngineStats stats = engine.stats();
  EXPECT_EQ(stats.flight_records, 0u);
}

// Regression: submit_batch must account each task exactly once in
// tasks_submitted (not once per batch, not once per submit call).
TEST(EngineFlight, SubmitBatchCountsEachTaskOnce) {
  Engine engine(EngineConfig::cpus(2));
  Codelet noop = make_codelet("noop", [](const ExecContext&) {});
  std::vector<std::vector<double>> buffers(7, std::vector<double>(1));
  std::vector<TaskDesc> batch;
  for (std::size_t i = 0; i < 5; ++i) {
    DataHandle* h = engine.register_vector(buffers[i].data(), 1);
    batch.push_back(TaskDesc{&noop, {{h, Access::kReadWrite}}});
  }
  EXPECT_EQ(engine.submit_batch(std::move(batch)).size(), 5u);
  for (std::size_t i = 5; i < 7; ++i) {
    DataHandle* h = engine.register_vector(buffers[i].data(), 1);
    engine.submit(TaskDesc{&noop, {{h, Access::kReadWrite}}});
  }
  ASSERT_TRUE(engine.wait_all().ok());
  EXPECT_EQ(engine.stats().tasks_submitted, 7u);
}

TEST(EngineFlight, ExplicitDumpWritesJsonlAndChromeTrace) {
  Engine engine(EngineConfig::cpus(2));
  Codelet noop = make_codelet("noop", [](const ExecContext&) {});
  std::vector<double> data(1);
  DataHandle* h = engine.register_vector(data.data(), 1);
  engine.submit(TaskDesc{&noop, {{h, Access::kReadWrite}}, "payload_task"});
  ASSERT_TRUE(engine.wait_all().ok());

  const std::string prefix = temp_prefix("explicit_dump");
  ASSERT_TRUE(engine.dump_flight_recorder(prefix, "unit_test"));

  const auto jsonl = pdl::util::read_file(prefix + ".jsonl");
  ASSERT_TRUE(jsonl.has_value());
  EXPECT_NE(jsonl->find("\"reason\":\"unit_test\""), std::string::npos);
  EXPECT_NE(jsonl->find("task_end"), std::string::npos);
  EXPECT_NE(jsonl->find("payload_task"), std::string::npos);

  const auto trace = pdl::util::read_file(prefix + ".trace.json");
  ASSERT_TRUE(trace.has_value());
  const auto parsed = testjson::parse(*trace);
  ASSERT_TRUE(parsed.ok) << parsed.error;
  EXPECT_TRUE(testjson::contains_string(parsed, "flight recorder"));
  // Event names compose kind and label: "task_end: payload_task".
  EXPECT_NE(trace->find("payload_task"), std::string::npos);

  std::remove((prefix + ".jsonl").c_str());
  std::remove((prefix + ".trace.json").c_str());
}

TEST(EngineFlight, PostMortemDumpOnPermanentFailure) {
  const std::string prefix = temp_prefix("postmortem");
  EngineConfig config = EngineConfig::cpus(2);
  auto plan = FaultPlan::parse("fail:task=1,attempts=99");
  ASSERT_TRUE(plan.ok()) << plan.error().str();
  config.fault_plan = std::make_shared<const FaultPlan>(std::move(plan).value());
  config.flight_dump_prefix = prefix;
  Engine engine(std::move(config));

  Codelet noop = make_codelet("noop", [](const ExecContext&) {});
  std::vector<double> data(1);
  DataHandle* h = engine.register_vector(data.data(), 1);
  engine.submit(TaskDesc{&noop, {{h, Access::kReadWrite}}, "doomed"});
  EXPECT_FALSE(engine.wait_all().ok());

  const auto jsonl = pdl::util::read_file(prefix + ".jsonl");
  ASSERT_TRUE(jsonl.has_value()) << "post-mortem dump missing";
  EXPECT_NE(jsonl->find("\"reason\":\"wait_all_failure\""), std::string::npos);
  EXPECT_NE(jsonl->find("task_failed"), std::string::npos);
  EXPECT_NE(jsonl->find("doomed"), std::string::npos);

  const auto trace = pdl::util::read_file(prefix + ".trace.json");
  ASSERT_TRUE(trace.has_value());
  EXPECT_TRUE(testjson::parse(*trace).ok);

  // The dump fires once; a second wait_all must not rewrite it.
  std::remove((prefix + ".jsonl").c_str());
  EXPECT_FALSE(engine.wait_all().ok());
  EXPECT_FALSE(pdl::util::read_file(prefix + ".jsonl").has_value());
  std::remove((prefix + ".trace.json").c_str());
}

// --- Concurrent wraparound stress (runs under the CI TSan filter) ------------

TEST(FlightRecorderStress, SnapshotsStayConsistentWhileProducerWraps) {
  obs::FlightRing ring(16);  // tiny: the producer laps it thousands of times
  constexpr std::uint64_t kRecords = 200000;

  // Half-way through, long after its first lap, the producer waits for
  // one snapshot: on a loaded host it could otherwise write every record
  // before the consumer takes any, and the test would check nothing.
  std::atomic<std::uint64_t> snapshots{0};
  std::thread producer([&ring, &snapshots] {
    for (std::uint64_t i = 0; i < kRecords; ++i) {
      if (i == kRecords / 2) {
        while (snapshots.load() == 0) std::this_thread::yield();
      }
      ring.record(obs::FlightKind::kQueueDepth, 0, i, 0,
                  static_cast<double>(i), 0.0, static_cast<double>(i));
    }
  });

  // The first invariant a snapshot breaks, or "" when it keeps them all:
  // every surviving record is internally consistent (its payload matches
  // its sequence number; a torn read would break this) and ordered.
  const auto violation = [&ring](const std::vector<obs::FlightEvent>& snap) {
    if (snap.size() > ring.capacity()) {
      return std::string("more records than the ring's capacity");
    }
    for (std::size_t i = 0; i < snap.size(); ++i) {
      const obs::FlightEvent& e = snap[i];
      if (e.task != e.seq || e.value != static_cast<double>(e.seq)) {
        return "torn record: seq " + std::to_string(e.seq) + " carries task " +
               std::to_string(e.task) + ", value " + std::to_string(e.value);
      }
      if (i > 0 && e.seq <= snap[i - 1].seq) {
        return "out of order: seq " + std::to_string(e.seq) + " after seq " +
               std::to_string(snap[i - 1].seq);
      }
    }
    return std::string();
  };
  const auto seq_range = [](const std::vector<obs::FlightEvent>& snap) {
    if (snap.empty()) return std::string("(empty)");
    return "[" + std::to_string(snap.front().seq) + ", " +
           std::to_string(snap.back().seq) + "], " +
           std::to_string(snap.size()) + " record(s)";
  };

  std::vector<obs::FlightEvent> events;
  while (ring.produced() < kRecords) {
    events.clear();
    ring.snapshot_into(events, 0);
    const std::uint64_t n = snapshots++;
    if (const std::string bad = violation(events); !bad.empty()) {
      ADD_FAILURE() << "snapshot " << n << ", seq range " << seq_range(events)
                    << ": " << bad;
      break;  // still join the producer below
    }
  }
  producer.join();

  EXPECT_GT(snapshots.load(), 0u) << "the producer wrote all " << kRecords
                                  << " records before the first snapshot";
  EXPECT_EQ(ring.produced(), kRecords);
  EXPECT_EQ(ring.overwritten(), kRecords - ring.capacity());

  // Quiescent ring: the final snapshot is exactly the newest window.
  events.clear();
  ring.snapshot_into(events, 0);
  ASSERT_EQ(events.size(), ring.capacity()) << seq_range(events);
  EXPECT_EQ(events.back().seq, kRecords - 1) << seq_range(events);
  EXPECT_TRUE(violation(events).empty()) << violation(events);
}

}  // namespace
}  // namespace starvm
