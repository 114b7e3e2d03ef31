#include "mc/graph_program.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <utility>
#include <vector>

#include "starvm/codelet.hpp"
#include "starvm/engine.hpp"

namespace mc {

namespace {

/// Everything the program closures share. Lives as long as any closure
/// copied out of make_graph_program does.
struct GraphProgramState {
  starvm::TaskGraph graph;
  GraphProgramOptions options;
  std::shared_ptr<const starvm::FaultPlan> plan;

  /// One double arena backing every buffer at its declared base
  /// offset; aliased registrations therefore share bytes, exactly as the
  /// recorded program's allocations did.
  std::vector<double> storage;
  /// (element offset, element count) per buffer, indexing into storage.
  std::vector<std::pair<std::size_t, std::size_t>> spans;

  /// One codelet per task: the mixing kernel needs the task identity and
  /// ExecContext does not carry one.
  std::vector<starvm::Codelet> codelets;

  /// Dense n*n conflict matrix over task indices (true = may not commute).
  std::size_t n = 0;
  std::vector<char> conflict;

  bool conflicts(starvm::TaskId a, starvm::TaskId b) const {
    if (a == 0 || b == 0 || a > n || b > n) return true;  // unknown: be sound
    return conflict[static_cast<std::size_t>(a - 1) * n +
                    static_cast<std::size_t>(b - 1)] != 0;
  }

  void reset_storage() {
    for (std::size_t i = 0; i < storage.size(); ++i) {
      storage[i] = static_cast<double>(i % 7 + 1);
    }
  }

  std::uint64_t output_hash() const {
    std::uint64_t h = 1469598103934665603ull;
    for (double v : storage) {
      std::uint64_t bits = 0;
      std::memcpy(&bits, &v, sizeof(bits));
      for (int b = 0; b < 8; ++b) {
        h ^= (bits >> (8 * b)) & 0xffu;
        h *= 1099511628211ull;
      }
    }
    return h;
  }
};

/// The per-task kernel: sum the reads, fold in the task identity, add the
/// (integer-valued) result into every written element. Exact commutative
/// integer arithmetic in doubles — see the header comment.
void run_mixing_kernel(const GraphProgramState& state, std::size_t task_index,
                       const starvm::ExecContext& ctx) {
  const starvm::GraphTask& gt = state.graph.tasks()[task_index];
  double acc = static_cast<double>(task_index + 1);
  for (std::size_t i = 0; i < gt.accesses.size(); ++i) {
    if (!starvm::reads(gt.accesses[i].mode)) continue;
    const double* p = ctx.buffer(i);
    const std::size_t count = state.spans[static_cast<std::size_t>(
                                              gt.accesses[i].buffer)]
                                  .second;
    double sum = 0.0;
    for (std::size_t j = 0; j < count; ++j) sum += p[j];
    acc += std::fmod(sum, 9973.0);
  }
  acc = std::fmod(acc, 9973.0) + 1.0;
  for (std::size_t i = 0; i < gt.accesses.size(); ++i) {
    if (!starvm::writes(gt.accesses[i].mode)) continue;
    double* p = ctx.buffer(i);
    const std::size_t count = state.spans[static_cast<std::size_t>(
                                              gt.accesses[i].buffer)]
                                  .second;
    for (std::size_t j = 0; j < count; ++j) p[j] += acc;
  }
}

}  // namespace

bool fault_plan_is_schedule_sensitive(const std::string& spec) {
  return spec.find("device=") != std::string::npos ||
         spec.find("kill:") != std::string::npos ||
         spec.find("random:") != std::string::npos;
}

pdl::util::Result<Program> make_graph_program(const starvm::TaskGraph& graph,
                                              GraphProgramOptions options) {
  auto state = std::make_shared<GraphProgramState>();
  state->graph = graph;
  state->options = options;

  if (!options.fault_plan.empty()) {
    auto parsed = starvm::FaultPlan::parse(options.fault_plan);
    if (!parsed.ok()) return parsed.error();
    state->plan = std::make_shared<const starvm::FaultPlan>(
        std::move(parsed).value());
  }

  // Storage: one arena covering the furthest declared byte; every buffer
  // (root or partition() block) maps to the element span at its base
  // offset (8-byte elements). A buffer under one element is registered as
  // one element, so the arena also covers that element for an empty block
  // at the arena's end.
  const auto& buffers = state->graph.buffers();
  std::size_t elements = 0;
  state->spans.reserve(buffers.size());
  for (const starvm::GraphBuffer& b : buffers) {
    const auto offset = static_cast<std::size_t>(b.base / 8);
    const auto count = static_cast<std::size_t>(b.bytes / 8);
    state->spans.emplace_back(offset, count);
    elements = std::max({elements,
                         static_cast<std::size_t>((b.base + b.bytes + 7) / 8),
                         offset + std::max<std::size_t>(count, 1)});
  }
  state->storage.assign(elements, 0.0);

  // Conflict matrix: tasks conflict when the graph already orders them or
  // when they touch overlapping bytes with at least one write. Reads over
  // shared data commute; that is the independence DPOR exploits.
  const auto& tasks = state->graph.tasks();
  state->n = tasks.size();
  state->conflict.assign(state->n * state->n, 0);
  const auto reach = state->graph.reachability();
  for (std::size_t i = 0; i < state->n; ++i) {
    for (std::size_t j = 0; j < state->n; ++j) {
      if (i == j) continue;
      bool dep = reach.ordered(static_cast<int>(i), static_cast<int>(j));
      for (std::size_t ai = 0; !dep && ai < tasks[i].accesses.size(); ++ai) {
        for (std::size_t aj = 0; !dep && aj < tasks[j].accesses.size();
             ++aj) {
          const starvm::GraphAccess& a = tasks[i].accesses[ai];
          const starvm::GraphAccess& b = tasks[j].accesses[aj];
          if (!starvm::writes(a.mode) && !starvm::writes(b.mode)) continue;
          dep = state->graph.ranges_overlap(a.buffer, b.buffer);
        }
      }
      if (dep) state->conflict[i * state->n + j] = 1;
    }
  }

  // Codelets: one per task, capturing the task index.
  state->codelets.resize(state->n);
  for (std::size_t t = 0; t < state->n; ++t) {
    starvm::Codelet& cl = state->codelets[t];
    cl.name = tasks[t].name.empty() ? "task" + std::to_string(t + 1)
                                    : tasks[t].name;
    const double flops = tasks[t].flops;
    cl.flops = [flops](const std::vector<starvm::BufferView>&) {
      return flops > 0.0 ? flops : 1e6;
    };
    GraphProgramState* raw = state.get();
    cl.impls.push_back(
        {starvm::DeviceKind::kCpu, [raw, t](const starvm::ExecContext& ctx) {
           run_mixing_kernel(*raw, t, ctx);
         }});
  }

  Program program;
  program.expected_tasks = state->n;
  program.make_config = [state]() {
    starvm::EngineConfig config = starvm::EngineConfig::cpus(
        state->options.devices, state->options.gflops);
    config.mode = starvm::ExecutionMode::kDeterministic;
    config.scheduler = state->options.scheduler;
    config.fault_tolerance = state->options.fault_tolerance;
    config.fault_plan = state->plan;
    config.flight_records_per_device = 256;
    return config;
  };
  program.body = [state](starvm::Engine& engine) {
    state->reset_storage();
    const auto& bufs = state->graph.buffers();
    std::vector<starvm::DataHandle*> handles(bufs.size(), nullptr);
    for (std::size_t b = 0; b < bufs.size(); ++b) {
      auto [offset, count] = state->spans[b];
      handles[b] = engine.register_vector(state->storage.data() + offset,
                                          std::max<std::size_t>(count, 1),
                                          bufs[b].name);
    }
    const auto& graph_tasks = state->graph.tasks();
    for (std::size_t t = 0; t < graph_tasks.size(); ++t) {
      starvm::TaskDesc desc;
      desc.codelet = &state->codelets[t];
      desc.label = state->codelets[t].name;
      for (const starvm::GraphAccess& access : graph_tasks[t].accesses) {
        desc.buffers.push_back(
            {handles[static_cast<std::size_t>(access.buffer)], access.mode});
      }
      for (int dep : graph_tasks[t].declared_deps) {
        desc.depends_on.push_back(static_cast<starvm::TaskId>(dep + 1));
      }
      engine.submit(std::move(desc));
    }
  };
  program.output_hash = [state]() { return state->output_hash(); };
  program.conflicts = [state](starvm::TaskId a, starvm::TaskId b) {
    return state->conflicts(a, b);
  };
  return program;
}

}  // namespace mc
