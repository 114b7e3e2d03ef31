// Model-vs-measured critical-path profiler (the observability counterpart
// of schedule_sim): take the trace of a finished engine run, attribute each
// task's span to queue wait / transfer / compute / runtime overhead,
// extract the *measured* critical path by walking finish -> ready edges
// backwards, and diff the result against the modeled SchedulePlan the A5xx
// simulator predicted for the same graph and platform.
//
// The drift table is the paper's feedback loop made concrete: PDL declares
// SUSTAINED_GFLOPS per PU; the profiler reports, per (codelet label,
// device), the rate the run actually achieved — a declared rate that is
// consistently wrong is a platform-description bug, not a runtime bug.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "analysis/schedule_sim.hpp"
#include "pdl/model.hpp"
#include "starvm/graph.hpp"
#include "starvm/perf_store.hpp"
#include "starvm/stats.hpp"
#include "util/result.hpp"

namespace analysis {

/// One executed task with its span attributed to where the time went.
/// Invariant: finish - ready == queue_wait + overhead + transfer + compute
/// (up to clamping of a negative queue wait, which indicates an untracked
/// ready time rather than real anticipation).
struct TaskProfile {
  starvm::TaskId id = 0;
  std::string label;
  starvm::DeviceId device = -1;
  std::string device_name;
  double ready_seconds = 0.0;   ///< Every dependency finished here.
  double start_seconds = 0.0;   ///< Execution began (after overhead).
  double finish_seconds = 0.0;
  double queue_wait_seconds = 0.0;  ///< Device contention: dispatch - ready.
  double overhead_seconds = 0.0;    ///< EngineConfig::task_overhead_us.
  double transfer_seconds = 0.0;
  double compute_seconds = 0.0;
  bool on_critical_path = false;
};

/// Why a critical-path step had to wait for its predecessor.
enum class CriticalEdge {
  kStart,       ///< First step of the path.
  kDependency,  ///< Waited for a dependency to finish (ready-bound).
  kDevice,      ///< Waited for its device to drain earlier work.
};

const char* to_string(CriticalEdge edge);

/// One step of the measured critical path, in execution order.
struct CriticalStep {
  int task = -1;  ///< Index into RunProfile::tasks.
  CriticalEdge edge = CriticalEdge::kStart;
};

/// Achieved vs declared compute rate for one (task label, device) pair.
struct RateDrift {
  std::string label;
  starvm::DeviceId device = -1;
  std::string device_name;
  std::uint64_t tasks = 0;
  double flops = 0.0;
  double exec_seconds = 0.0;
  double measured_gflops = 0.0;
  double declared_gflops = 0.0;  ///< 0 = no declared rate to compare with.
  /// measured / declared; 0 when either side is unknown. 1.0 means the
  /// platform description told the truth.
  double drift_ratio = 0.0;
  /// Learned EMA rate from a persisted perf store (apply_store_rates);
  /// 0 = the store holds no entry for this (label, device).
  double store_gflops = 0.0;
  /// measured / store-learned; a ratio far from 1.0 flags a decayed store
  /// entry (the machine, or the kernel, changed since it was learned).
  double store_drift_ratio = 0.0;
};

struct RunProfile {
  std::vector<TaskProfile> tasks;        ///< Virtual-clock order.
  std::vector<CriticalStep> critical_path;
  double makespan_seconds = 0.0;
  // Attribution summed over the critical path only: where the makespan
  // actually went.
  double critical_queue_wait_seconds = 0.0;
  double critical_overhead_seconds = 0.0;
  double critical_transfer_seconds = 0.0;
  double critical_compute_seconds = 0.0;
  std::vector<RateDrift> drift;  ///< Sorted by label, then device.
  std::uint64_t flight_records = 0;
  std::uint64_t flight_overwritten = 0;
};

/// Profile a finished run from its statistics (call after wait_all()).
RunProfile profile_run(const starvm::EngineStats& stats);

/// Annotate the drift table with the learned rates of a persisted perf
/// store (RateDrift::store_gflops / store_drift_ratio): the third column of
/// the feedback loop — declared (PDL), learned (store), measured (this
/// run). Rows map to store ids by device name through the bridge's table
/// of `platform`. The caller is responsible for having matched the store's
/// descriptor hash to the platform.
void apply_store_rates(RunProfile& profile,
                       const starvm::perf_store::Store& store,
                       const pdl::Platform& platform);

/// Modeled vs measured, aggregated by task name (robust to the two sides
/// decomposing work differently: all same-named tasks pool together).
struct ModelComparison {
  struct NameDelta {
    std::string name;
    std::uint64_t modeled_tasks = 0;
    std::uint64_t measured_tasks = 0;
    double modeled_seconds = 0.0;   ///< Sum of placement spans.
    double measured_seconds = 0.0;  ///< Sum of start->finish spans.
    /// measured / modeled; 0 when either side never saw the name.
    double ratio = 0.0;
  };
  std::vector<NameDelta> tasks;  ///< Sorted by name.
  double modeled_makespan_seconds = 0.0;
  double measured_makespan_seconds = 0.0;
  double modeled_critical_seconds = 0.0;  ///< Plan's lower bound.
};

/// Diff a measured profile against the schedule the simulator predicted
/// for `graph` (names come from the graph's tasks / the trace's labels).
ModelComparison diff_against_plan(const RunProfile& profile,
                                  const SchedulePlan& plan,
                                  const starvm::TaskGraph& graph);

/// Execute a recorded graph on a platform for real (pure-sim engine built
/// through the PDL bridge, one synthetic codelet per task, deterministic)
/// and return the run's statistics for profiling. Fails when the bridge
/// rejects the platform.
pdl::util::Result<starvm::EngineStats> run_graph_on_platform(
    const starvm::TaskGraph& graph, const pdl::Platform& platform);

/// Human-readable report: critical path with per-step attribution, the
/// makespan breakdown, and the rate-drift table. Deterministic.
std::string render_profile_text(const RunProfile& profile);

/// Human-readable model-vs-measured table.
std::string render_comparison_text(const ModelComparison& comparison);

}  // namespace analysis
