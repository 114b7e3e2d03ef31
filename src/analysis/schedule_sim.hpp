// Static HEFT schedule simulation: place a recorded starvm::TaskGraph onto
// the device set a PDL platform describes, entirely at analysis time.
//
// Devices, memory spaces and links come from the starvm bridge's device
// table (starvm::platform_devices), the same reading of the platform the
// engine is configured from. Placement mirrors the engine's HEFT (earliest
// finish time including modeled transfers), but never executes anything:
// compute costs come from a side-effect-free PerfModel probe or the
// analytic FLOPs model, transfer costs from the devices' link parameters.
// The resulting SchedulePlan carries everything the A5xx
// capacity/interference rules (capacity.hpp) and the plan-summary renderer
// need: per-task placements, per-space peak footprints, per-interconnect
// contention windows, device loads, makespan, and the critical-path lower
// bound.
//
// Determinism: ties break on the lowest device index, input order is the
// graph's submission order (a valid topological order — effective edges
// only point backward), and no wall-clock or randomness is involved, so
// identical inputs give byte-identical plans.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "pdl/diagnostics.hpp"
#include "pdl/model.hpp"
#include "starvm/graph.hpp"
#include "starvm/perf_model.hpp"

namespace analysis {

/// One schedulable device derived from the platform (a PU instance).
struct SimDevice {
  std::string name;      ///< PU id, "#i"-suffixed when quantity > 1.
  std::string pu_path;   ///< Master/…/pu path for diagnostics.
  pdl::SourceLoc loc;    ///< The PU's source location.
  bool is_cpu = true;
  double gflops = 0.0;
  int space = 0;   ///< Index into SchedulePlan::spaces.
  int ic = -1;     ///< Index into SchedulePlan::interconnects; -1 = none.
  double link_bandwidth_gbs = 0.0;
  double link_latency_us = 0.0;
  /// False when the PU has no declared Interconnect to its controller and
  /// transfers were modeled with control-link defaults (A502).
  bool has_declared_link = true;
  /// Device id in a perf store learned on this platform; -1 = none (a
  /// driver core the engine never runs tasks on).
  int store_id = -1;
};

/// One memory space buffers can be resident in: the host region (index 0,
/// shared by every CPU device) or an accelerator instance's local memory.
struct SimMemorySpace {
  std::string label;     ///< "<pu path>/<region id>" or "<host>".
  pdl::SourceLoc loc;    ///< The MemoryRegion's (or owning PU's) location.
  std::string pu_path;
  std::uint64_t capacity_bytes = 0;  ///< 0 = no SIZE declared (no A501).
  std::uint64_t peak_bytes = 0;      ///< Peak modeled footprint.
  double peak_seconds = 0.0;         ///< When the peak is reached.
};

/// One declared Interconnect transfers were charged on.
struct SimInterconnect {
  std::string label;   ///< "from<->to" plus the type when declared.
  pdl::SourceLoc loc;
  int transfers = 0;               ///< Modeled transfer count.
  double busy_seconds = 0.0;       ///< Sum of window lengths.
  double contended_seconds = 0.0;  ///< Time covered by >= 2 windows.
};

/// Where and when the modeled schedule runs one task.
struct TaskPlacement {
  int device = -1;
  double start_seconds = 0.0;     ///< Transfers begin here.
  double finish_seconds = 0.0;
  double compute_seconds = 0.0;
  double transfer_seconds = 0.0;  ///< Total modeled data movement.
  std::uint64_t transfer_bytes = 0;
};

struct SchedulePlan {
  std::vector<SimDevice> devices;
  std::vector<SimMemorySpace> spaces;
  std::vector<SimInterconnect> interconnects;
  std::vector<TaskPlacement> placements;      ///< One per graph task.
  std::vector<double> device_busy_seconds;    ///< One per device.
  std::vector<int> critical_path;             ///< Task indices, in order.
  double critical_path_seconds = 0.0;  ///< Lower bound: fastest device, no transfers.
  double makespan_seconds = 0.0;
};

/// Simulate a HEFT schedule of `graph` on `platform`. `model`, when given,
/// supplies calibrated per-(codelet, device) history, indexed by
/// SimDevice::store_id, via its side-effect-free probe; without it (the
/// static-tool case) costs are purely analytic. Platforms without any
/// executing PU fall back to the Master as a single CPU device, like the
/// starvm bridge; a platform without a Master gives an empty plan.
SchedulePlan simulate_schedule(const starvm::TaskGraph& graph,
                               const pdl::Platform& platform,
                               const starvm::PerfModel* model = nullptr);

/// Human-readable plan summary (makespan, lower bound, critical path,
/// per-device loads, per-space peaks); deterministic, millisecond-formatted.
std::string render_plan_text(const SchedulePlan& plan,
                             const starvm::TaskGraph& graph);

}  // namespace analysis
