// starmc explorer tests (docs/MODEL_CHECKING.md): exhaustive exploration of
// the committed fixture DAGs on 2–3 devices with and without fault plans,
// the DPOR-vs-naive reduction regression, the seeded lost-wakeup
// counterexample, byte-stable replay, attempt-chain preservation, and the
// interleaving-sensitive engine scenarios both natively and under the
// explorer.
#include <algorithm>
#include <fstream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/graph_io.hpp"
#include "mc/explorer.hpp"
#include "mc/graph_program.hpp"
#include "mc/invariants.hpp"
#include "mc/report.hpp"
#include "starvm/engine.hpp"
#include "starvm/scheduler.hpp"

namespace {

using mc::Explorer;
using mc::Finding;
using mc::Options;
using mc::Program;
using mc::Result;

std::string fixture(const std::string& name) {
  return std::string(PDL_SOURCE_DIR) + "/tests/fixtures/" + name;
}

starvm::TaskGraph load(const std::string& name) {
  auto graph = analysis::load_graph_file(fixture(name));
  EXPECT_TRUE(graph.ok()) << (graph.ok() ? "" : graph.error().str());
  return std::move(graph).value();
}

Program graph_program(const std::string& name, int devices,
                      const std::string& fault_plan = {}) {
  mc::GraphProgramOptions options;
  options.devices = devices;
  options.fault_plan = fault_plan;
  auto program = mc::make_graph_program(load(name), options);
  EXPECT_TRUE(program.ok()) << (program.ok() ? "" : program.error().str());
  return std::move(program).value();
}

std::string findings_str(const Result& result) {
  std::string out;
  for (const Finding& f : result.findings) {
    out += f.rule + ": " + f.message + " trace " + mc::format_trace(f.trace) +
           "\n";
  }
  return out;
}

// --- Exhaustive exploration of the fixture DAGs ------------------------------

TEST(McExplorer, DiamondTwoDevicesClean) {
  Explorer explorer(graph_program("diamond.graph", 2), Options{});
  const Result result = explorer.explore();
  EXPECT_FALSE(result.truncated);
  EXPECT_GT(result.terminals, 1u);
  EXPECT_TRUE(result.findings.empty()) << findings_str(result);
}

TEST(McExplorer, DiamondThreeDevicesClean) {
  Explorer explorer(graph_program("diamond.graph", 3), Options{});
  const Result result = explorer.explore();
  EXPECT_FALSE(result.truncated);
  EXPECT_TRUE(result.findings.empty()) << findings_str(result);
}

TEST(McExplorer, DiamondWithFaultPlanClean) {
  // Task/attempt-scoped plan: fires identically on every schedule, so the
  // serial-equivalence check stays meaningful. Task 3 fails once and is
  // retried; the failed attempt never executes the kernel, so outputs
  // still match the canonical run.
  Explorer explorer(graph_program("diamond.graph", 2, "fail:task=3,attempts=1"),
                    Options{});
  const Result result = explorer.explore();
  EXPECT_FALSE(result.truncated);
  EXPECT_TRUE(result.findings.empty()) << findings_str(result);
  // The plan must actually have fired on the canonical run.
  const mc::RunOutcome canonical = explorer.replay({});
  EXPECT_GE(canonical.stats.retries, 1u);
}

TEST(McExplorer, BudgetCapsEngineRunsIncludingTheReplayCheck) {
  for (const std::size_t budget : {1u, 2u, 3u, 5u}) {
    Options options;
    options.max_runs = budget;
    Explorer explorer(graph_program("diamond.graph", 2), options);
    const Result result = explorer.explore();
    EXPECT_LE(result.runs, budget) << "budget " << budget;
    EXPECT_TRUE(result.truncated) << "budget " << budget;
    // The canonical run is still checked as a terminal state.
    EXPECT_GE(result.terminals, 1u) << "budget " << budget;
    EXPECT_TRUE(result.findings.empty()) << findings_str(result);
  }
}

TEST(McExplorer, ForkJoinTwoDevicesClean) {
  Explorer explorer(graph_program("forkjoin.graph", 2), Options{});
  const Result result = explorer.explore();
  EXPECT_FALSE(result.truncated);
  EXPECT_TRUE(result.findings.empty()) << findings_str(result);
}

TEST(McExplorer, AliasedWawBothOrdersProduceIdenticalBytes) {
  // Two unordered writers over overlapping registrations: every explored
  // interleaving must produce identical buffer bytes (the kernel's writes
  // are exact commutative additions), or A602 fires.
  Explorer explorer(graph_program("aliased_waw.graph", 2), Options{});
  const Result result = explorer.explore();
  EXPECT_FALSE(result.truncated);
  EXPECT_GT(result.terminals, 1u);
  EXPECT_TRUE(result.findings.empty()) << findings_str(result);
}

TEST(McExplorer, PartitionedBlocksExploreClean) {
  // One writer on the first and one on the last partition() block. Each
  // block is registered over its own span of the arena; the (8 bytes, 9
  // blocks) split ends in an empty block at the arena's end.
  for (const auto& [bytes, nblocks] : {std::pair{64, 2}, std::pair{8, 9}}) {
    starvm::TaskGraph graph;
    const std::vector<int> blocks =
        graph.partition(graph.add_buffer("A", bytes), nblocks);
    graph.add_task("w_first", {{blocks.front(), starvm::Access::kWrite}});
    graph.add_task("w_last", {{blocks.back(), starvm::Access::kWrite}});
    mc::GraphProgramOptions options;
    options.devices = 2;
    auto program = mc::make_graph_program(graph, options);
    ASSERT_TRUE(program.ok());
    Explorer explorer(std::move(program).value(), Options{});
    const Result result = explorer.explore();
    EXPECT_FALSE(result.truncated) << bytes << " bytes / " << nblocks;
    EXPECT_GT(result.terminals, 0u) << bytes << " bytes / " << nblocks;
    EXPECT_TRUE(result.findings.empty()) << findings_str(result);
  }
}

// --- DPOR reduction regression ----------------------------------------------

TEST(McExplorer, DporReducesDiamondStateCountAtLeastFiveFold) {
  const Program program = graph_program("diamond.graph", 2);
  Options dpor;
  Options naive;
  naive.dpor = false;
  naive.replay_check = false;
  const Result reduced = Explorer(program, dpor).explore();
  const Result full = Explorer(program, naive).explore();
  ASSERT_FALSE(reduced.truncated);
  ASSERT_FALSE(full.truncated);
  ASSERT_GT(reduced.terminals, 0u);
  const double ratio = static_cast<double>(full.terminals) /
                       static_cast<double>(reduced.terminals);
  RecordProperty("naive_terminals", static_cast<int>(full.terminals));
  RecordProperty("dpor_terminals", static_cast<int>(reduced.terminals));
  std::printf("state counts: naive %zu terminals / dpor %zu terminals = %.1fx "
              "(naive %zu runs, dpor %zu runs)\n",
              full.terminals, reduced.terminals, ratio, full.runs,
              reduced.runs);
  EXPECT_GE(ratio, 5.0);
  EXPECT_LT(reduced.runs, full.runs);
  // Both modes must agree that the engine is correct.
  EXPECT_TRUE(reduced.findings.empty()) << findings_str(reduced);
  EXPECT_TRUE(full.findings.empty()) << findings_str(full);
}

// --- Seeded lost-wakeup bug --------------------------------------------------

// A deliberately broken scheduler decorator: swallows one push, modeling
// the class of bug the engine's sleeper-count guard exists to prevent (a
// ready task whose wakeup is lost). The explorer must catch it as A601
// with a replayable counterexample.
class LimboScheduler final : public starvm::detail::Scheduler {
 public:
  LimboScheduler(std::unique_ptr<starvm::detail::Scheduler> inner,
                 int swallow_push)
      : inner_(std::move(inner)), swallow_push_(swallow_push) {}

  void push(starvm::detail::TaskNode* task) override {
    if (++pushes_ == swallow_push_) return;  // the lost wakeup
    inner_->push(task);
  }
  starvm::detail::TaskNode* pop(starvm::DeviceId device) override {
    return inner_->pop(device);
  }
  starvm::detail::TaskNode* peek(starvm::DeviceId device) const override {
    return inner_->peek(device);
  }
  starvm::detail::TaskNode* pop_earliest(starvm::DeviceId* device) override {
    return inner_->pop_earliest(device);
  }
  void on_device_time_advanced(starvm::DeviceId device) override {
    inner_->on_device_time_advanced(device);
  }
  bool empty() const override { return inner_->empty(); }
  std::size_t size() const override { return inner_->size(); }
  std::vector<starvm::detail::TaskNode*> drain_device(
      starvm::DeviceId device) override {
    return inner_->drain_device(device);
  }

 private:
  std::unique_ptr<starvm::detail::Scheduler> inner_;
  int swallow_push_ = 0;
  int pushes_ = 0;
};

TEST(McExplorer, SeededLostWakeupCaughtAsReplayableA601) {
  Program program = graph_program("diamond.graph", 2);
  const auto base_config = program.make_config;
  program.make_config = [base_config]() {
    starvm::EngineConfig config = base_config();
    config.wrap_scheduler =
        [](std::unique_ptr<starvm::detail::Scheduler> inner) {
          return std::unique_ptr<starvm::detail::Scheduler>(
              new LimboScheduler(std::move(inner), 3));
        };
    return config;
  };
  // The swallowed push breaks the output too; only the accounting
  // invariant is under test here.
  Options options;
  options.check_serial = false;

  Explorer explorer(program, options);
  const Result result = explorer.explore();
  const auto found = std::find_if(
      result.findings.begin(), result.findings.end(),
      [](const Finding& f) { return f.rule == "A601-deadlock"; });
  ASSERT_NE(found, result.findings.end()) << findings_str(result);

  // The counterexample replays: a fresh engine driven by the recorded
  // decision vector reproduces the stuck state, and the replay leaves a
  // flight-recorder post-mortem behind (the starmc --trace-out path).
  const std::string prefix = testing::TempDir() + "mc_lost_wakeup_cex";
  const mc::RunOutcome replayed = explorer.replay(found->trace, prefix);
  EXPECT_LT(replayed.stats.tasks_completed, 5u);
  EXPECT_EQ(replayed.stats.failed_tasks, 0u);  // not failed — lost
  const std::string json = mc::trace_to_json(replayed);
  EXPECT_NE(json.find("starmc-trace-v1"), std::string::npos);
  std::ifstream jsonl(prefix + ".jsonl");
  std::ifstream chrome(prefix + ".trace.json");
  EXPECT_TRUE(jsonl.good());
  EXPECT_TRUE(chrome.good());
}

// --- Satellite: byte-stable replay -------------------------------------------

TEST(McReplay, TwoFreshEnginesReplayIdenticalDecisionVectors) {
  const Program program = graph_program("diamond.graph", 2);
  const Explorer explorer(program, Options{});
  // A nonempty prefix: forces the second alternative at the first branch
  // point, then canonical — any two fresh engines must walk bit-identical
  // schedules from it.
  const std::vector<int> decisions = {1, 0};
  const mc::RunOutcome a = explorer.replay(decisions);
  const mc::RunOutcome b = explorer.replay(decisions);
  ASSERT_EQ(a.choices.size(), b.choices.size());
  for (std::size_t i = 0; i < a.choices.size(); ++i) {
    EXPECT_EQ(a.choices[i].chosen, b.choices[i].chosen) << "choice " << i;
    ASSERT_EQ(a.choices[i].point.alts.size(), b.choices[i].point.alts.size());
    for (std::size_t k = 0; k < a.choices[i].point.alts.size(); ++k) {
      EXPECT_EQ(a.choices[i].point.alts[k].task,
                b.choices[i].point.alts[k].task);
      EXPECT_EQ(a.choices[i].point.alts[k].device,
                b.choices[i].point.alts[k].device);
    }
  }
  EXPECT_EQ(a.state_hash, b.state_hash);
  EXPECT_EQ(a.output_hash, b.output_hash);
}

TEST(McReplay, NullOracleMatchesCanonicalOracle) {
  // The oracle hook must be behavior-preserving: an engine with no oracle
  // and one with the always-0 CanonicalOracle produce identical schedules.
  const Program program = graph_program("diamond.graph", 2);
  auto run_with = [&](starvm::DecisionOracle* oracle) {
    starvm::EngineConfig config = program.make_config();
    config.oracle = oracle;
    starvm::Engine engine(config);
    program.body(engine);
    EXPECT_TRUE(engine.wait_all().ok());
    return mc::state_hash(engine.stats(), program.output_hash());
  };
  const std::uint64_t without = run_with(nullptr);
  starvm::CanonicalOracle canonical;
  const std::uint64_t with = run_with(&canonical);
  EXPECT_EQ(without, with);
}

// --- Satellite: attempt chains through wait_all ------------------------------

TEST(McAttempts, WaitAllStatusPreservesAttemptChain) {
  // Task 2 fails more often than the retry budget allows: wait_all's
  // aggregated Status and EngineStats::attempts must preserve the full
  // chain — which device, which attempt, which cause.
  starvm::EngineConfig config = starvm::EngineConfig::cpus(2);
  config.mode = starvm::ExecutionMode::kDeterministic;
  config.fault_tolerance.blacklist_after = 0;  // isolate the retry path
  auto plan = starvm::FaultPlan::parse("fail:task=2,attempts=10");
  ASSERT_TRUE(plan.ok());
  config.fault_plan =
      std::make_shared<const starvm::FaultPlan>(std::move(plan).value());

  starvm::Engine engine(config);
  std::vector<double> data(4, 1.0);
  auto* handle = engine.register_vector(data.data(), data.size());
  starvm::Codelet codelet;
  codelet.name = "inc";
  codelet.impls.push_back({starvm::DeviceKind::kCpu,
                           [](const starvm::ExecContext& ctx) {
                             ctx.buffer(0)[0] += 1.0;
                           }});
  engine.submit({&codelet, {{handle, starvm::Access::kReadWrite}}});
  engine.submit({&codelet, {{handle, starvm::Access::kReadWrite}}});

  const pdl::util::Status status = engine.wait_all();
  ASSERT_FALSE(status.ok());
  // The one-line status carries the chain digest.
  EXPECT_NE(status.error().str().find("attempt 1 on"), std::string::npos)
      << status.error().str();

  const starvm::EngineStats stats = engine.stats();
  ASSERT_FALSE(stats.errors.empty());
  EXPECT_NE(stats.errors[0].find("attempt"), std::string::npos);

  // Full structured history: three failed attempts for task 2 (budget =
  // 2 retries + first try), each with device and cause.
  int failed_attempts = 0;
  int max_attempt = 0;
  for (const starvm::TaskAttempt& a : stats.attempts) {
    if (a.task != 2) continue;
    if (a.outcome == starvm::TaskAttempt::Outcome::kFailed) ++failed_attempts;
    max_attempt = std::max(max_attempt, a.attempt);
    EXPECT_GE(a.device, 0);
    EXPECT_FALSE(a.cause.empty());
  }
  EXPECT_EQ(failed_attempts, 3);
  EXPECT_EQ(max_attempt, 3);
}

// --- Satellite: interleaving-sensitive scenarios -----------------------------

TEST(McInterleaving, RetryRacesBlacklistReroute) {
  // kill:device=0 with blacklist_after=1: the first failure blacklists
  // device 0, its queue re-routes, and the failed task retries on the
  // survivor — the retry and the re-route are in flight together.
  const std::string plan = "kill:device=0";
  auto make = [&]() {
    mc::GraphProgramOptions options;
    options.devices = 2;
    options.fault_plan = plan;
    options.fault_tolerance.blacklist_after = 1;
    auto program = mc::make_graph_program(load("diamond.graph"), options);
    EXPECT_TRUE(program.ok());
    return std::move(program).value();
  };

  // Natively: every task must complete on the survivor.
  const Program program = make();
  {
    starvm::EngineConfig config = program.make_config();
    starvm::Engine engine(config);
    program.body(engine);
    EXPECT_TRUE(engine.wait_all().ok());
    const starvm::EngineStats stats = engine.stats();
    EXPECT_EQ(stats.tasks_completed, 5u);
    EXPECT_EQ(stats.devices_blacklisted, 1u);
    EXPECT_GE(stats.retries, 1u);
    const bool has_failed_attempt = std::any_of(
        stats.attempts.begin(), stats.attempts.end(),
        [](const starvm::TaskAttempt& a) {
          return a.outcome == starvm::TaskAttempt::Outcome::kFailed;
        });
    EXPECT_TRUE(has_failed_attempt);
  }

  // Under the explorer: a device-scoped plan fires schedule-dependently,
  // so disable the serial-equivalence check but demand every interleaving
  // still terminates with exactly-once, bounded-retry accounting.
  ASSERT_TRUE(mc::fault_plan_is_schedule_sensitive(plan));
  Options options;
  options.check_serial = false;
  const Result result = Explorer(make(), options).explore();
  EXPECT_FALSE(result.truncated);
  EXPECT_TRUE(result.findings.empty()) << findings_str(result);
}

TEST(McInterleaving, SubmitBatchOverlappingWaitAll) {
  // Two submission waves with a wait_all between them: the second wave's
  // choice points concatenate onto the first's, and the explorer drives
  // both. All four tasks serialize on one ReadWrite handle, so every
  // interleaving must produce data[0] == 1 + 4.
  struct WaveState {
    std::vector<double> data;
    starvm::Codelet codelet;
  };
  auto state = std::make_shared<WaveState>();
  state->codelet.name = "inc";
  state->codelet.impls.push_back({starvm::DeviceKind::kCpu,
                                  [](const starvm::ExecContext& ctx) {
                                    ctx.buffer(0)[0] += 1.0;
                                  }});

  Program program;
  program.expected_tasks = 4;
  program.make_config = []() {
    starvm::EngineConfig config = starvm::EngineConfig::cpus(2);
    config.mode = starvm::ExecutionMode::kDeterministic;
    return config;
  };
  program.body = [state](starvm::Engine& engine) {
    state->data.assign(4, 1.0);
    auto* handle = engine.register_vector(state->data.data(), 4);
    engine.submit({&state->codelet, {{handle, starvm::Access::kReadWrite}}});
    engine.submit({&state->codelet, {{handle, starvm::Access::kReadWrite}}});
    EXPECT_TRUE(engine.wait_all().ok());
    std::vector<starvm::TaskDesc> batch;
    batch.push_back(
        {&state->codelet, {{handle, starvm::Access::kReadWrite}}});
    batch.push_back(
        {&state->codelet, {{handle, starvm::Access::kReadWrite}}});
    engine.submit_batch(std::move(batch));
  };
  program.output_hash = [state]() {
    return static_cast<std::uint64_t>(state->data[0]);
  };

  // Natively first.
  {
    starvm::EngineConfig config = program.make_config();
    starvm::Engine engine(config);
    program.body(engine);
    EXPECT_TRUE(engine.wait_all().ok());
    EXPECT_DOUBLE_EQ(state->data[0], 5.0);
  }

  const Result result = Explorer(program, Options{}).explore();
  EXPECT_FALSE(result.truncated);
  EXPECT_TRUE(result.findings.empty()) << findings_str(result);
}

// --- Invariant checkers on synthetic terminal states -------------------------

TEST(McInvariants, SyntheticViolationsAreClassified) {
  mc::RunOutcome run;
  run.stats.tasks_submitted = 3;
  starvm::TaskTrace t1;
  t1.id = 1;
  t1.device = 0;
  t1.start_vtime = 0.0;
  t1.finish_vtime = 1.0;
  starvm::TaskTrace t1_again = t1;  // double execution
  t1_again.start_vtime = 2.0;
  t1_again.finish_vtime = 1.5;  // and finishes before... no: runs backwards
  starvm::TaskTrace t2;
  t2.id = 2;
  t2.device = 0;
  t2.start_vtime = 0.5;  // overlaps t1 on device 0: clock ran backwards
  t2.finish_vtime = 0.6;
  run.stats.trace = {t1, t1_again, t2};
  starvm::TaskAttempt over;
  over.task = 2;
  over.attempt = 7;
  run.stats.attempts = {over};

  mc::InvariantContext ctx;
  ctx.expected_tasks = 3;  // task 3 unaccounted -> A601
  ctx.attempt_ceiling = 3;
  ctx.check_serial = true;
  ctx.has_canonical = true;
  ctx.canonical_hash = 42;
  run.output_hash = 41;  // diverges -> A602

  const std::vector<mc::Violation> violations = check_invariants(run, ctx);
  auto has = [&](const char* rule) {
    return std::any_of(violations.begin(), violations.end(),
                       [&](const mc::Violation& v) { return v.rule == rule; });
  };
  EXPECT_TRUE(has("A601-deadlock"));
  EXPECT_TRUE(has("A602-divergent-replay"));
  EXPECT_TRUE(has("A603-lost-task"));
  EXPECT_TRUE(has("A604-unbounded-retry-cycle"));
}

TEST(McInvariants, CleanRunHasNoViolations) {
  mc::RunOutcome run;
  run.stats.tasks_submitted = 2;
  starvm::TaskTrace t1;
  t1.id = 1;
  t1.device = 0;
  t1.finish_vtime = 1.0;
  starvm::TaskTrace t2;
  t2.id = 2;
  t2.device = 0;
  t2.start_vtime = 1.0;
  t2.finish_vtime = 2.0;
  run.stats.trace = {t1, t2};
  run.output_hash = 42;

  mc::InvariantContext ctx;
  ctx.expected_tasks = 2;
  ctx.attempt_ceiling = 3;
  ctx.check_serial = true;
  ctx.has_canonical = true;
  ctx.canonical_hash = 42;
  EXPECT_TRUE(check_invariants(run, ctx).empty());
}

}  // namespace
