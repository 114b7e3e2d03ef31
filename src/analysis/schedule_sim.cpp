#include "analysis/schedule_sim.hpp"

#include <algorithm>
#include <cstdio>
#include <map>
#include <set>
#include <tuple>

#include "pdl/query.hpp"
#include "starvm/bridge.hpp"

namespace analysis {

namespace {

double compute_estimate(const starvm::GraphTask& task, const SimDevice& dev,
                        const starvm::PerfModel* model) {
  if (model != nullptr) {
    if (auto h = model->history_estimate(task.name, dev.store_id)) return *h;
  }
  if (task.flops > 0.0 && dev.gflops > 0.0) {
    return task.flops / (dev.gflops * 1e9);
  }
  return starvm::PerfModel::default_estimate_seconds();
}

/// Devices, memory spaces and interconnects from the bridge's table:
/// space 0 is the host region every CPU shares; each accelerator instance
/// owns one space (quantity="2" means two local memories, not one pool).
void add_devices(const starvm::PlatformDevices& table, SchedulePlan& plan) {
  SimMemorySpace& host = plan.spaces.emplace_back();
  host.label = "<host>";
  if (table.host_memory != nullptr) {
    host.label = table.host->path() + "/" + table.host_memory->id;
    host.loc = table.host_memory->loc.valid() ? table.host_memory->loc
                                              : table.host->loc();
    host.pu_path = table.host->path();
    host.capacity_bytes = table.host_memory_bytes;
  }

  std::map<const pdl::Interconnect*, int> ic_index;
  for (const starvm::PlatformDevice& device : table.devices) {
    SimDevice dev;
    dev.name = device.spec.name;
    dev.pu_path = device.pu->path();
    dev.loc = device.pu->loc();
    dev.is_cpu = device.spec.kind == starvm::DeviceKind::kCpu;
    dev.gflops = device.spec.sustained_gflops;
    dev.store_id = device.store_id;
    if (!dev.is_cpu) {
      dev.link_bandwidth_gbs = device.spec.link_bandwidth_gbs;
      dev.link_latency_us = device.spec.link_latency_us;
      dev.has_declared_link = device.link != nullptr;
      if (device.link != nullptr) {
        auto [it, inserted] = ic_index.emplace(
            device.link, static_cast<int>(plan.interconnects.size()));
        if (inserted) {
          SimInterconnect& sic = plan.interconnects.emplace_back();
          sic.label = device.link->from + "<->" + device.link->to;
          if (!device.link->type.empty()) sic.label += " (" + device.link->type + ")";
          sic.loc = device.link->loc;
        }
        dev.ic = it->second;
      }
      dev.space = static_cast<int>(plan.spaces.size());
      SimMemorySpace& space = plan.spaces.emplace_back();
      space.label = dev.name + "/" +
                    (device.memory != nullptr ? device.memory->id
                                              : "<no sized MemoryRegion>");
      space.loc = device.memory != nullptr && device.memory->loc.valid()
                      ? device.memory->loc
                      : device.pu->loc();
      space.pu_path = dev.pu_path;
      if (device.memory != nullptr) space.capacity_bytes = device.spec.memory_bytes;
    }
    plan.devices.push_back(std::move(dev));
  }
}

/// One closed residency interval of a root buffer in a memory space,
/// collected for the peak-footprint sweep.
struct FootprintInterval {
  int space = 0;
  std::uint64_t bytes = 0;
  double begin = 0.0;
  double end = 0.0;
};

/// One modeled transfer window on an interconnect.
struct TransferWindow {
  int ic = -1;
  double begin = 0.0;
  double end = 0.0;
};

/// Peak concurrent footprint of one space via an event sweep; arrivals at
/// time t count before releases at t so back-to-back reuse is conservative.
void sweep_peak(const std::vector<FootprintInterval>& intervals,
                SimMemorySpace& space, int space_index) {
  struct Event {
    double time;
    int kind;  // 0 = arrival, 1 = release
    std::uint64_t bytes;
  };
  std::vector<Event> events;
  for (const FootprintInterval& iv : intervals) {
    if (iv.space != space_index || iv.bytes == 0) continue;
    events.push_back({iv.begin, 0, iv.bytes});
    events.push_back({iv.end, 1, iv.bytes});
  }
  std::sort(events.begin(), events.end(), [](const Event& a, const Event& b) {
    if (a.time != b.time) return a.time < b.time;
    return a.kind < b.kind;
  });
  std::uint64_t current = 0;
  for (const Event& e : events) {
    if (e.kind == 0) {
      current += e.bytes;
      if (current > space.peak_bytes) {
        space.peak_bytes = current;
        space.peak_seconds = e.time;
      }
    } else {
      current -= e.bytes;
    }
  }
}

/// Time covered by >= 2 overlapping windows on one interconnect.
double contended_time(const std::vector<TransferWindow>& windows, int ic) {
  struct Edge {
    double time;
    int delta;
  };
  std::vector<Edge> edges;
  for (const TransferWindow& w : windows) {
    if (w.ic != ic || w.end <= w.begin) continue;
    edges.push_back({w.begin, +1});
    edges.push_back({w.end, -1});
  }
  std::sort(edges.begin(), edges.end(), [](const Edge& a, const Edge& b) {
    if (a.time != b.time) return a.time < b.time;
    return a.delta < b.delta;  // closings first: touching windows don't overlap
  });
  double contended = 0.0;
  double last = 0.0;
  int depth = 0;
  for (const Edge& e : edges) {
    if (depth >= 2) contended += e.time - last;
    depth += e.delta;
    last = e.time;
  }
  return contended;
}

std::string format_ms(double seconds) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.3f", seconds * 1e3);
  return buf;
}

std::string format_pct(double fraction) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.0f%%", fraction * 100.0);
  return buf;
}

}  // namespace

SchedulePlan simulate_schedule(const starvm::TaskGraph& graph,
                               const pdl::Platform& platform,
                               const starvm::PerfModel* model) {
  SchedulePlan plan;
  auto table = starvm::platform_devices(platform);
  if (!table.ok()) return plan;
  add_devices(table.value(), plan);

  const auto& tasks = graph.tasks();
  const auto& buffers = graph.buffers();
  const int n = static_cast<int>(tasks.size());
  const int ndev = static_cast<int>(plan.devices.size());
  plan.placements.assign(tasks.size(), TaskPlacement{});
  plan.device_busy_seconds.assign(plan.devices.size(), 0.0);
  if (ndev == 0) return plan;

  // --- Placement classes: interchangeable devices evaluated once ------------
  // Mirrors the runtime's grouping (Engine::build_placement_classes): same
  // kind/rate/link/space means one candidate per class, and accelerators
  // stay singleton because each owns a private space. Keeps this model
  // O(classes) per task — and consistent with what the engine actually
  // evaluates — on quantity-expanded 1k-worker platforms. Classes are
  // created in order of their lowest member, preserving the exhaustive
  // loop's lowest-index tie-breaking.
  std::vector<int> class_rep;                   // representative device index
  std::vector<int> class_of(plan.devices.size(), 0);
  {
    std::map<std::tuple<bool, double, double, double, int, int>, int> flavors;
    for (int d = 0; d < ndev; ++d) {
      const SimDevice& dev = plan.devices[d];
      const auto key =
          std::make_tuple(dev.is_cpu, dev.gflops, dev.link_bandwidth_gbs,
                          dev.link_latency_us, dev.space, dev.ic);
      const auto [it, inserted] =
          flavors.emplace(key, static_cast<int>(class_rep.size()));
      if (inserted) class_rep.push_back(d);
      class_of[d] = it->second;
    }
  }
  const int nclasses = static_cast<int>(class_rep.size());

  // --- Critical path on the fastest device (the makespan lower bound) -------
  std::vector<double> fastest(tasks.size(), 0.0);
  for (int t = 0; t < n; ++t) {
    double best = 0.0;
    for (int c = 0; c < nclasses; ++c) {
      const int d = class_rep[c];
      const double est = compute_estimate(tasks[t], plan.devices[d], model);
      if (c == 0 || est < best) best = est;
    }
    fastest[t] = best;
  }
  std::vector<std::vector<int>> preds(tasks.size());
  for (const auto& e : graph.edges()) {
    if (e.from >= 0 && e.from < n && e.to >= 0 && e.to < n) {
      preds[e.to].push_back(e.from);
    }
  }
  {
    std::vector<double> dp(tasks.size(), 0.0);
    std::vector<int> via(tasks.size(), -1);
    int tail = -1;
    for (int t = 0; t < n; ++t) {  // submission order is topological
      double longest = 0.0;
      for (int p : preds[t]) {
        if (dp[p] > longest) {
          longest = dp[p];
          via[t] = p;
        } else if (dp[p] == longest && via[t] >= 0 && p < via[t]) {
          via[t] = p;  // deterministic tie-break
        }
      }
      dp[t] = longest + fastest[t];
      if (tail < 0 || dp[t] > dp[tail]) tail = t;
    }
    if (tail >= 0) {
      plan.critical_path_seconds = dp[tail];
      for (int node = tail; node >= 0; node = via[node]) {
        plan.critical_path.push_back(node);
      }
      std::reverse(plan.critical_path.begin(), plan.critical_path.end());
    }
  }

  // --- HEFT placement with residency-aware transfer modeling ----------------
  // Residency: which spaces hold a current copy of each root, and since when.
  std::vector<std::map<int, double>> resident(buffers.size());
  for (int b = 0; b < static_cast<int>(buffers.size()); ++b) {
    if (buffers[b].parent < 0) resident[b][0] = 0.0;  // roots start on host
  }
  std::vector<FootprintInterval> intervals;
  std::vector<TransferWindow> windows;
  std::vector<double> device_free(plan.devices.size(), 0.0);
  // Per-class members ordered by (free time, index): begin() is the member
  // the exhaustive scan would pick from that class, so placement evaluates
  // one candidate per class instead of one per device.
  std::vector<std::set<std::pair<double, int>>> class_free(
      static_cast<std::size_t>(nclasses));
  for (int d = 0; d < ndev; ++d) {
    class_free[static_cast<std::size_t>(class_of[d])].insert({0.0, d});
  }

  // The legs data must travel for task access on `dev` given residency:
  // nothing when a copy is already in dev's space, otherwise source->host
  // (when no host copy exists) then host->dev, each leg on the owning
  // device's link. Returns total seconds; `charge` records the windows.
  const auto transfer_legs = [&](int root, const SimDevice& dev, double start,
                                 bool charge, std::uint64_t* bytes_moved) {
    const std::uint64_t bytes = buffers[root].bytes;
    if (resident[root].count(dev.space) > 0) return 0.0;
    double total = 0.0;
    double clock = start;
    if (resident[root].count(0) == 0) {
      // Copy lives only in accelerator spaces; stage through the host on
      // the owning device's link. Pick the lowest-index resident space for
      // determinism.
      const int src_space = resident[root].begin()->first;
      const SimDevice* src_dev = nullptr;
      for (const SimDevice& d : plan.devices) {
        if (d.space == src_space) {
          src_dev = &d;
          break;
        }
      }
      const double leg =
          src_dev != nullptr
              ? starvm::transfer_seconds(bytes, src_dev->link_bandwidth_gbs,
                                         src_dev->link_latency_us)
              : starvm::transfer_seconds(bytes, pdl::kControlLinkBandwidthGbs,
                                         pdl::kControlLinkLatencyUs);
      if (charge && src_dev != nullptr && src_dev->ic >= 0) {
        windows.push_back({src_dev->ic, clock, clock + leg});
        plan.interconnects[src_dev->ic].transfers += 1;
        plan.interconnects[src_dev->ic].busy_seconds += leg;
      }
      clock += leg;
      total += leg;
      if (charge) {
        resident[root][0] = clock;
        if (bytes_moved != nullptr) *bytes_moved += bytes;
      }
    }
    if (dev.space != 0) {
      const double leg = starvm::transfer_seconds(
          bytes, dev.link_bandwidth_gbs, dev.link_latency_us);
      if (charge && dev.ic >= 0) {
        windows.push_back({dev.ic, clock, clock + leg});
        plan.interconnects[dev.ic].transfers += 1;
        plan.interconnects[dev.ic].busy_seconds += leg;
      }
      clock += leg;
      total += leg;
      if (charge) {
        resident[root][dev.space] = clock;
        if (bytes_moved != nullptr) *bytes_moved += bytes;
      }
    }
    return total;
  };

  for (int t = 0; t < n; ++t) {
    double ready = 0.0;
    for (int p : preds[t]) {
      ready = std::max(ready, plan.placements[p].finish_seconds);
    }

    // Distinct accessed roots, in first-access order (deterministic).
    std::vector<int> roots;
    bool writes_any = false;
    std::vector<int> written_roots;
    for (const starvm::GraphAccess& access : tasks[t].accesses) {
      const int root = graph.root_of(access.buffer);
      if (root < 0) continue;
      if (std::find(roots.begin(), roots.end(), root) == roots.end()) {
        roots.push_back(root);
      }
      if (starvm::writes(access.mode)) {
        writes_any = true;
        if (std::find(written_roots.begin(), written_roots.end(), root) ==
            written_roots.end()) {
          written_roots.push_back(root);
        }
      }
    }

    int best = 0;
    double best_finish = 0.0;
    double best_transfer = 0.0;
    double best_compute = 0.0;
    double best_start = 0.0;
    for (int c = 0; c < nclasses; ++c) {
      // Least-loaded member stands for the class: any other member only
      // starts later and costs the same, so it can never win.
      const int d = class_free[static_cast<std::size_t>(c)].begin()->second;
      const SimDevice& dev = plan.devices[d];
      const double start = std::max(ready, device_free[d]);
      double transfer = 0.0;
      for (int root : roots) {
        transfer += transfer_legs(root, dev, start + transfer, false, nullptr);
      }
      // Estimates come from the class representative, so a store rate
      // learned on it applies to the whole class.
      const double compute = compute_estimate(
          tasks[t], plan.devices[static_cast<std::size_t>(class_rep[c])], model);
      const double finish = start + transfer + compute;
      if (c == 0 || finish < best_finish) {
        best = d;
        best_finish = finish;
        best_transfer = transfer;
        best_compute = compute;
        best_start = start;
      }
    }

    // Commit: charge the windows and move residency for real.
    const SimDevice& dev = plan.devices[best];
    TaskPlacement& placement = plan.placements[t];
    placement.device = best;
    placement.start_seconds = best_start;
    double clock = best_start;
    for (int root : roots) {
      clock += transfer_legs(root, dev, clock, true, &placement.transfer_bytes);
    }
    placement.transfer_seconds = best_transfer;
    placement.compute_seconds = best_compute;
    placement.finish_seconds = best_finish;
    class_free[static_cast<std::size_t>(class_of[best])].erase(
        {device_free[best], best});
    device_free[best] = best_finish;
    class_free[static_cast<std::size_t>(class_of[best])].insert(
        {best_finish, best});
    plan.device_busy_seconds[best] += best_finish - best_start;
    plan.makespan_seconds = std::max(plan.makespan_seconds, best_finish);

    // A write leaves the only valid copy in the executing space: close the
    // other copies' residency intervals here.
    if (writes_any) {
      for (int root : written_roots) {
        for (auto it = resident[root].begin(); it != resident[root].end();) {
          if (it->first != dev.space) {
            intervals.push_back({it->first, buffers[root].bytes, it->second,
                                 placement.finish_seconds});
            it = resident[root].erase(it);
          } else {
            ++it;
          }
        }
        resident[root][dev.space] =
            resident[root].count(dev.space) > 0 ? resident[root][dev.space]
                                                : placement.start_seconds;
      }
    }
  }

  // Close the remaining residency intervals: a copy is held until the
  // owning root's last use finishes (or for never-used roots, forever —
  // they occupy their initial space for the whole modeled run).
  const auto live = graph.root_live_intervals();
  for (int b = 0; b < static_cast<int>(buffers.size()); ++b) {
    for (const auto& [space, since] : resident[b]) {
      double release = plan.makespan_seconds;
      if (live[b].last_task >= 0) {
        release = std::max(since,
                           plan.placements[live[b].last_task].finish_seconds);
      }
      intervals.push_back({space, buffers[b].bytes, since, release});
    }
  }
  for (int s = 0; s < static_cast<int>(plan.spaces.size()); ++s) {
    sweep_peak(intervals, plan.spaces[s], s);
  }
  for (int ic = 0; ic < static_cast<int>(plan.interconnects.size()); ++ic) {
    plan.interconnects[ic].contended_seconds = contended_time(windows, ic);
  }
  return plan;
}

std::string render_plan_text(const SchedulePlan& plan,
                             const starvm::TaskGraph& graph) {
  std::string out;
  out += "schedule plan: " + std::to_string(graph.tasks().size()) +
         " task(s) on " + std::to_string(plan.devices.size()) +
         " device(s)\n";
  out += "  makespan: " + format_ms(plan.makespan_seconds) + " ms";
  out += "  (critical-path lower bound: " +
         format_ms(plan.critical_path_seconds) + " ms)\n";
  if (!plan.critical_path.empty()) {
    out += "  critical path:";
    for (int t : plan.critical_path) {
      out += " " + graph.tasks()[static_cast<std::size_t>(t)].name;
    }
    out += "\n";
  }
  for (std::size_t d = 0; d < plan.devices.size(); ++d) {
    const double busy = plan.device_busy_seconds[d];
    const double util =
        plan.makespan_seconds > 0.0 ? busy / plan.makespan_seconds : 0.0;
    out += "  device " + plan.devices[d].name + ": busy " + format_ms(busy) +
           " ms (" + format_pct(util) + ")\n";
  }
  for (const SimMemorySpace& space : plan.spaces) {
    if (space.peak_bytes == 0) continue;
    out += "  memory " + space.label + ": peak " +
           std::to_string(space.peak_bytes) + " B";
    if (space.capacity_bytes > 0) {
      out += " of " + std::to_string(space.capacity_bytes) + " B";
    }
    out += "\n";
  }
  for (const SimInterconnect& ic : plan.interconnects) {
    if (ic.transfers == 0) continue;
    out += "  interconnect " + ic.label + ": " +
           std::to_string(ic.transfers) + " transfer(s), busy " +
           format_ms(ic.busy_seconds) + " ms, contended " +
           format_ms(ic.contended_seconds) + " ms\n";
  }
  return out;
}

}  // namespace analysis
