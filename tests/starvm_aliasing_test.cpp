// The runtime counterpart of the static A403 partition-aliasing rule:
// registering one allocation under two DataHandles hides the conflict from
// the engine's per-handle dependency inference, so two writers run
// concurrently. The static TaskGraph model flags the overlap; executing the
// same shape is a genuine data race that ThreadSanitizer confirms (the CI
// TSan job runs EngineAliasedHandles.* expecting a report).
//
// Deliberately NOT named to match the TSan stress filter
// ('*Stress*:*FaultPlan*:*FaultTolerance*:Engine.Watchdog*'): under the
// regular and ASan suites the race is benign — both writers store identical
// values — so the assertions below are deterministic.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <vector>

#include "starvm/engine.hpp"
#include "starvm/graph.hpp"

namespace starvm {
namespace {

TEST(EngineAliasedHandles, StaticGraphFlagsOverlapTheEngineCannotSee) {
  // Model the program below: one allocation, two root registrations.
  TaskGraph g;
  const int h1 = g.add_buffer("data (handle 1)", 4096);
  const int h2 = g.add_buffer_at("data (handle 2)", g.buffers()[h1].base, 4096);
  const int w1 = g.add_task("fill_a", {{h1, Access::kWrite}});
  const int w2 = g.add_task("fill_b", {{h2, Access::kWrite}});

  // Per-handle inference produces no edge — the tasks are unordered even
  // under the engine's sequential-consistency model...
  EXPECT_TRUE(g.edges().empty());
  EXPECT_FALSE(g.reachability().ordered(w1, w2));
  // ...yet their byte ranges overlap: exactly the A403 finding.
  EXPECT_TRUE(g.ranges_overlap(h1, h2));
  EXPECT_FALSE(g.same_lineage(h1, h2));
}

TEST(EngineAliasedHandles, SeededWriteWriteRaceRunsUnordered) {
  Engine engine(EngineConfig::cpus(4));
  std::vector<double> data(4096, 0.0);
  // Two handles over the same allocation: the engine keys dependency
  // inference on the handle, so it sees two independent buffers.
  DataHandle* h1 = engine.register_vector(data.data(), data.size(), "h1");
  DataHandle* h2 = engine.register_vector(data.data(), data.size(), "h2");

  // Rendezvous before writing so both tasks demonstrably overlap on two
  // worker threads (tiny tasks would otherwise often serialize on one
  // thread and hide the race). Bounded spin: if the engine ever ran the
  // tasks sequentially this falls through instead of deadlocking.
  std::atomic<int> arrived{0};
  Codelet fill;
  fill.name = "fill";
  fill.impls.push_back(
      Implementation{DeviceKind::kCpu, [&arrived](const ExecContext& ctx) {
                       arrived.fetch_add(1);
                       const auto deadline =
                           std::chrono::steady_clock::now() + std::chrono::seconds(2);
                       while (arrived.load() < 2 &&
                              std::chrono::steady_clock::now() < deadline) {
                       }
                       double* buf = ctx.buffer(0);
                       for (int i = 0; i < 4096; ++i) buf[i] = 7.0;
                     }});
  engine.submit(TaskDesc{&fill, {{h1, Access::kWrite}}, "fill_a"});
  engine.submit(TaskDesc{&fill, {{h2, Access::kWrite}}, "fill_b"});
  EXPECT_TRUE(engine.wait_all().ok());

  // Both writers store the same value, so the result is deterministic even
  // though the stores themselves race (which TSan reports).
  for (double v : data) ASSERT_DOUBLE_EQ(v, 7.0);
}

}  // namespace
}  // namespace starvm
