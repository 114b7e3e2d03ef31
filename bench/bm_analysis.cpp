// Analyzer throughput: the A4xx hazard pass and the A5xx schedule-aware
// capacity analysis must stay cheap enough to run on every lint (CI runs
// them over all shipped platforms and examples). This benchmark drives the
// A4xx pair scan over its happens-before closure, and the full A5xx
// pipeline — HEFT schedule simulation, capacity/contention rules, SARIF
// rendering — over the largest shipped platform (the paper testbed with two
// GPUs, 10 devices), both on a synthetic 10k-task pipeline DAG, reporting
// tasks/second.
#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "analysis/analyzer.hpp"
#include "analysis/capacity.hpp"
#include "analysis/graph_io.hpp"
#include "analysis/sarif.hpp"
#include "analysis/schedule_sim.hpp"
#include "pdl/parser.hpp"
#include "starvm/graph.hpp"

namespace {

pdl::Platform testbed_platform() {
  pdl::Diagnostics diags;
  auto platform = pdl::parse_platform_file(
      std::string(PDL_SOURCE_DIR) + "/platforms/testbed-starpu-2gpu.pdl.xml",
      diags);
  if (!platform.ok()) std::abort();
  return std::move(platform).value();
}

/// A synthetic pipeline DAG shaped like real workloads: `width` parallel
/// chains over per-chain 1 MB buffers, re-converging every `width` tasks
/// through a shared reduction buffer (so transfers, residency invalidation
/// and the contention sweep all stay exercised). The reduction buffer is
/// also partitioned into `width` blocks, as BLOCK-distributed executes and
/// the tiled solvers partition theirs, and half-way between two
/// reductions one task reads a block, so the parent/block overlap path is
/// exercised too.
starvm::TaskGraph synthetic_pipeline(int tasks, int width) {
  starvm::TaskGraph graph;
  std::vector<int> chain_buffers;
  for (int c = 0; c < width; ++c) {
    chain_buffers.push_back(
        graph.add_buffer("chain" + std::to_string(c), 1000 * 1000));
  }
  const int shared = graph.add_buffer("reduce", 1000 * 1000);
  const std::vector<int> blocks = graph.partition(shared, width);
  std::vector<int> last(static_cast<std::size_t>(width), -1);
  for (int t = 0; t < tasks; ++t) {
    const int c = t % width;
    std::vector<starvm::GraphAccess> accesses = {
        {chain_buffers[static_cast<std::size_t>(c)],
         starvm::Access::kReadWrite}};
    if (t % (width * 8) == 0) {
      accesses.push_back({shared, starvm::Access::kReadWrite});
    } else if (t % (width * 8) == width * 4) {
      accesses.push_back(
          {blocks[static_cast<std::size_t>(t / (width * 8) % width)],
           starvm::Access::kRead});
    }
    std::vector<int> deps;
    if (last[static_cast<std::size_t>(c)] >= 0) {
      deps.push_back(last[static_cast<std::size_t>(c)]);
    }
    const int id =
        graph.add_task("t" + std::to_string(t), std::move(accesses),
                       std::move(deps));
    graph.set_task_flops(id, 5e7);
    last[static_cast<std::size_t>(c)] = id;
  }
  return graph;
}

void BM_AnalyzeTaskGraph(benchmark::State& state) {
  // A4xx in strict mode: edge inference, the happens-before closure and the
  // scan over every unordered task pair.
  const int tasks = static_cast<int>(state.range(0));
  const starvm::TaskGraph graph = synthetic_pipeline(tasks, 16);
  for (auto _ : state) {
    pdl::Diagnostics diags;
    analysis::analyze_task_graph(graph, {}, diags);
    benchmark::DoNotOptimize(diags.size());
  }
  state.SetItemsProcessed(state.iterations() * tasks);
}
BENCHMARK(BM_AnalyzeTaskGraph)->Arg(1000)->Arg(10000)
    ->Unit(benchmark::kMillisecond);

void BM_SimulateSchedule(benchmark::State& state) {
  const int tasks = static_cast<int>(state.range(0));
  const pdl::Platform platform = testbed_platform();
  const starvm::TaskGraph graph = synthetic_pipeline(tasks, 16);
  for (auto _ : state) {
    const analysis::SchedulePlan plan =
        analysis::simulate_schedule(graph, platform);
    benchmark::DoNotOptimize(plan.makespan_seconds);
  }
  state.SetItemsProcessed(state.iterations() * tasks);
}
BENCHMARK(BM_SimulateSchedule)->Arg(1000)->Arg(10000)
    ->Unit(benchmark::kMillisecond);

void BM_AnalyzeScheduleWithRules(benchmark::State& state) {
  const int tasks = static_cast<int>(state.range(0));
  const pdl::Platform platform = testbed_platform();
  const starvm::TaskGraph graph = synthetic_pipeline(tasks, 16);
  for (auto _ : state) {
    pdl::Diagnostics diags;
    analysis::analyze_schedule(graph, platform, {}, diags);
    benchmark::DoNotOptimize(diags.size());
  }
  state.SetItemsProcessed(state.iterations() * tasks);
}
BENCHMARK(BM_AnalyzeScheduleWithRules)->Arg(1000)->Arg(10000)
    ->Unit(benchmark::kMillisecond);

void BM_RenderSarif(benchmark::State& state) {
  // Rendering cost for a pathological finding count (one per task).
  const int findings = static_cast<int>(state.range(0));
  pdl::Diagnostics diags;
  for (int i = 0; i < findings; ++i) {
    pdl::add_finding(diags, pdl::Severity::kWarning,
                     "A503-transfer-bound-task",
                     "task 't" + std::to_string(i) + "' is transfer bound",
                     pdl::SourceLoc{"g.graph", i + 1, 1},
                     "t" + std::to_string(i));
  }
  for (auto _ : state) {
    const std::string sarif = analysis::render_sarif(diags);
    benchmark::DoNotOptimize(sarif.size());
  }
  state.SetItemsProcessed(state.iterations() * findings);
}
BENCHMARK(BM_RenderSarif)->Arg(1000)->Unit(benchmark::kMillisecond);

void BM_ParseGraphText(benchmark::State& state) {
  // Fixture-format parse throughput (pdlcheck --graph hot path).
  const int tasks = static_cast<int>(state.range(0));
  std::string text;
  for (int b = 0; b < 64; ++b) {
    text += "buffer b" + std::to_string(b) + " 1MB\n";
  }
  for (int t = 0; t < tasks; ++t) {
    text += "task t" + std::to_string(t) + " rw=b" +
            std::to_string(t % 64) + " flops=1e6";
    if (t > 0) text += " after=t" + std::to_string(t - 1);
    text += "\n";
  }
  for (auto _ : state) {
    auto graph = analysis::parse_graph_text(text);
    if (!graph.ok()) std::abort();
    benchmark::DoNotOptimize(graph.value().tasks().size());
  }
  state.SetItemsProcessed(state.iterations() * tasks);
}
BENCHMARK(BM_ParseGraphText)->Arg(10000)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
