// Trace export: render an EngineStats task trace for humans and tools.
//
//   * Chrome trace-event JSON — load in chrome://tracing / Perfetto to see
//     the per-device virtual-time schedule next to the toolchain's
//     wall-time spans (obs::Tracer), each in its own process lane;
//   * an ASCII Gantt chart for terminals and logs.
#pragma once

#include <string>
#include <vector>

#include "obs/flight_recorder.hpp"
#include "obs/trace.hpp"
#include "starvm/stats.hpp"

namespace starvm {

/// One Chrome trace (JSON array of trace events) combining toolchain
/// wall-time spans (pid 1, from obs::Tracer) with the engine's
/// virtual-clock schedule (pid 2, when `stats` is non-null). The two clocks
/// are unrelated; separate pid lanes keep the viewer from implying
/// simultaneity. The engine lane has one row per device, one complete
/// ("X") event per task with timestamps on the virtual clock in
/// microseconds, and, when recorded, one instant ("i") event per fault and
/// per scheduler decision (carrying the candidate devices and their
/// modeled finish times). Degenerate stats are sanitized: non-finite or
/// negative durations clamp to zero, a non-finite flops estimate is
/// omitted from the args, and tasks that never ran (device == -1) land on
/// an "unassigned" row.
std::string merged_chrome_trace(const std::vector<obs::SpanRecord>& spans,
                                const EngineStats* stats);

/// Fixed-width ASCII Gantt chart of the virtual-time schedule.
/// `width` = number of character cells spanning the makespan.
std::string to_ascii_gantt(const EngineStats& stats, int width = 72);

/// Chrome trace of a flight-recorder snapshot, on its own process lane
/// (pid 3, "flight recorder") so post-mortem evidence never mixes with the
/// schedule lanes. Records with an end timestamp become "X" complete
/// events; records without one (a task that started but never finished —
/// exactly what a post-mortem wants to show — and point events like
/// retries) become "i" instant events. One tid per ring; the fault-path
/// ring renders as tid = device count, named "faults".
std::string flight_chrome_trace(const std::vector<obs::FlightEvent>& events,
                                const obs::FlightLabelFn& label = {});

}  // namespace starvm
