#include "analysis/analyzer.hpp"

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <queue>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "analysis/rules.hpp"
#include "cascabel/selection.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "pdl/query.hpp"
#include "pdl/well_known.hpp"
#include "util/string_util.hpp"

namespace analysis {

bool rule_enabled(const AnalysisOptions& options, std::string_view rule) {
  return options.disabled.find(rule) == options.disabled.end();
}

pdl::Severity effective_severity(const AnalysisOptions& options, std::string_view rule,
                                 pdl::Severity fallback) {
  const auto it = options.severity_overrides.find(rule);
  return it == options.severity_overrides.end() ? fallback : it->second;
}

namespace {

/// Shared emit path: drops disabled rules, applies severity overrides on
/// top of the catalog default (or an explicit per-finding base severity).
struct Emitter {
  const AnalysisOptions& options;
  pdl::Diagnostics& diags;

  void emit(const char* rule, std::string message, pdl::SourceLoc loc,
            std::string where, std::optional<pdl::Severity> base = std::nullopt) {
    if (!rule_enabled(options, rule)) return;
    pdl::Severity severity = pdl::Severity::kWarning;
    if (base) {
      severity = *base;
    } else if (const RuleInfo* info = find_rule(rule)) {
      severity = info->default_severity;
    }
    severity = effective_severity(options, rule, severity);
    pdl::add_finding(diags, severity, rule, std::move(message), std::move(loc),
                     std::move(where));
  }
};

// --- Layer (a): platform lint ------------------------------------------------

/// A101: BFS over *explicit* interconnects only — the control-hierarchy
/// fallback of pdl::data_path always connects everything, so the question
/// is whether declared links reach the Worker's controlling Master.
void check_worker_memory_reachability(const pdl::Platform& platform, Emitter& out) {
  std::map<std::string, std::vector<std::string>> adjacency;
  for (const pdl::Interconnect* ic : pdl::all_interconnects(platform)) {
    if (ic->from.empty() || ic->to.empty()) continue;
    adjacency[ic->from].push_back(ic->to);
    adjacency[ic->to].push_back(ic->from);
  }
  for (const pdl::ProcessingUnit* pu : pdl::all_pus(platform)) {
    if (pu->kind() != pdl::PuKind::kWorker || pu->memory_regions().empty() ||
        pu->id().empty()) {
      continue;
    }
    const pdl::ProcessingUnit* master = pu;
    while (master->parent() != nullptr) master = master->parent();

    std::set<std::string> visited{pu->id()};
    std::queue<std::string> frontier;
    frontier.push(pu->id());
    bool reached = false;
    while (!frontier.empty() && !reached) {
      const std::string node = frontier.front();
      frontier.pop();
      if (node == master->id()) {
        reached = true;
        break;
      }
      const auto it = adjacency.find(node);
      if (it == adjacency.end()) continue;
      for (const std::string& next : it->second) {
        if (visited.insert(next).second) frontier.push(next);
      }
    }
    if (!reached) {
      const pdl::MemoryRegion& mr = pu->memory_regions().front();
      out.emit(kUnreachableWorkerMemory,
               "Worker '" + pu->id() + "' declares memory region '" + mr.id +
                   "' but no Interconnect path reaches its controlling Master '" +
                   master->id() + "'; transfers use modeled control-link defaults",
               mr.loc.valid() ? mr.loc : pu->loc(), pu->path());
    }
  }
}

/// A102: regions the toolchain cannot consume — the starvm bridge uses only
/// a Worker's first sized MemoryRegion, and id-less regions cannot be
/// referenced at all.
void check_unreferenced_memory_regions(const pdl::Platform& platform, Emitter& out) {
  for (const pdl::ProcessingUnit* pu : pdl::all_pus(platform)) {
    const auto& regions = pu->memory_regions();
    for (std::size_t i = 0; i < regions.size(); ++i) {
      const pdl::MemoryRegion& mr = regions[i];
      const pdl::SourceLoc loc = mr.loc.valid() ? mr.loc : pu->loc();
      if (mr.id.empty()) {
        out.emit(kUnreferencedMemoryRegion,
                 "memory region without id cannot be referenced by tools", loc,
                 pu->path());
      } else if (pu->kind() == pdl::PuKind::kWorker && i > 0) {
        out.emit(kUnreferencedMemoryRegion,
                 "memory region '" + mr.id +
                     "' is ignored by the starvm bridge (only a Worker's first "
                     "region is consumed)",
                 loc, pu->path());
      }
    }
  }
}

/// A103: unit/value sanity on the well-known property vocabulary.
void check_property_values(const pdl::Descriptor& descriptor,
                           const pdl::SourceLoc& fallback_loc,
                           const std::string& where, Emitter& out) {
  namespace props = pdl::props;
  const auto loc_of = [&](const pdl::Property& p) {
    return p.loc.valid() ? p.loc : fallback_loc;
  };
  for (const pdl::Property& p : descriptor.properties()) {
    // Unfixed properties may legitimately be empty placeholders (to be
    // filled in by later tools); V12 covers empty *fixed* values.
    if (p.value.empty()) continue;

    const auto bad = [&](const std::string& expected) {
      out.emit(kPropertySanity,
               "property '" + p.name + "' has value '" + p.value +
                   (p.unit.empty() ? "" : "' with unit '" + p.unit) +
                   "' but " + expected,
               loc_of(p), where);
    };
    if (p.name == props::kCores || p.name == "CORE_COUNT") {
      const auto n = p.as_int();
      if (!n || *n < 1) bad("expects a positive integer core count");
    } else if (p.name == props::kMaxRetries) {
      const auto n = p.as_int();
      if (!n || *n < 0) bad("expects a non-negative integer retry budget");
    } else if (p.name == props::kFrequencyMhz || p.name == props::kPeakGflops ||
               p.name == props::kSustainedGflops || p.name == props::kMeasuredGflops ||
               p.name == props::kBandwidthGBs || p.name == props::kMtbfHours) {
      const auto d = p.as_double();
      if (!d || *d <= 0.0) bad("expects a positive number");
    } else if (p.name == props::kIcLatencyUs || p.name == props::kLatencyNs) {
      const auto d = p.as_double();
      if (!d || *d < 0.0) bad("expects a non-negative number");
    } else if (p.name == props::kSize) {
      if (!p.as_bytes()) {
        bad("expects an integer with a size unit (B, kB, MB or GB)");
      }
    }
  }
}

/// A104: one descriptor declaring a property twice with conflicting values
/// (error) or with mixed fixed/unfixed flags (warning) — a pattern cannot
/// be satisfied and a concrete descriptor cannot be resolved consistently.
void check_descriptor_consistency(const pdl::Descriptor& descriptor,
                                  const pdl::SourceLoc& fallback_loc,
                                  const std::string& where, Emitter& out) {
  std::map<std::string, const pdl::Property*> first_seen;
  for (const pdl::Property& p : descriptor.properties()) {
    if (p.name.empty()) continue;
    const auto [it, inserted] = first_seen.emplace(p.name, &p);
    if (inserted) continue;
    const pdl::Property& first = *it->second;
    const pdl::SourceLoc loc = p.loc.valid() ? p.loc : fallback_loc;
    if (!first.value.empty() && !p.value.empty() && first.value != p.value) {
      out.emit(kDescriptorConsistency,
               "property '" + p.name + "' declared twice with conflicting values ('" +
                   first.value + "' vs '" + p.value + "')",
               loc, where);
    } else if (first.fixed != p.fixed) {
      out.emit(kDescriptorConsistency,
               "property '" + p.name + "' declared both fixed and unfixed", loc, where,
               pdl::Severity::kWarning);
    }
  }
}

/// A105: every xsi:type prefix must be declared as an xmlns on the root.
void check_extension_namespaces(const pdl::Platform& platform,
                                const pdl::Descriptor& descriptor,
                                const pdl::SourceLoc& fallback_loc,
                                const std::string& where, Emitter& out) {
  for (const pdl::Property& p : descriptor.properties()) {
    const auto colon = p.xsi_type.find(':');
    if (colon == std::string::npos || colon == 0) continue;
    const std::string prefix = p.xsi_type.substr(0, colon);
    bool declared = false;
    for (const auto& [known_prefix, uri] : platform.namespaces()) {
      if (known_prefix == prefix) {
        declared = true;
        break;
      }
    }
    if (!declared) {
      out.emit(kUndeclaredExtensionNamespace,
               "property '" + p.name + "' uses extension type '" + p.xsi_type +
                   "' but namespace prefix '" + prefix +
                   "' is not declared on the document root",
               p.loc.valid() ? p.loc : fallback_loc, where);
    }
  }
}

void for_each_descriptor(
    const pdl::Platform& platform,
    const std::function<void(const pdl::Descriptor&, const pdl::SourceLoc&,
                             const std::string&)>& fn) {
  for (const pdl::ProcessingUnit* pu : pdl::all_pus(platform)) {
    fn(pu->descriptor(), pu->loc(), pu->path());
    for (const pdl::MemoryRegion& mr : pu->memory_regions()) {
      fn(mr.descriptor, mr.loc.valid() ? mr.loc : pu->loc(), pu->path() + "/MR:" + mr.id);
    }
    for (const pdl::Interconnect& ic : pu->interconnects()) {
      fn(ic.descriptor, ic.loc.valid() ? ic.loc : pu->loc(),
         pu->path() + "/IC:" + ic.from + "->" + ic.to);
    }
  }
}

/// A106: quantities the parser accepts but that almost certainly encode a
/// typo or unit mistake — every expanded instance becomes a scheduled
/// device, so "131072" where "1024" was meant melts tools downstream. The
/// threshold sits well above real many-core parts (ET-SOC1: ~1.1k cores).
constexpr int kQuantitySanityThreshold = 65536;

void check_quantity_sanity(const pdl::Platform& platform, Emitter& out) {
  for (const pdl::ProcessingUnit* pu : pdl::all_pus(platform)) {
    if (pu->quantity() > kQuantitySanityThreshold) {
      out.emit(kQuantitySanity,
               "PU '" + pu->id() + "' declares quantity " +
                   std::to_string(pu->quantity()) + " (sanity threshold " +
                   std::to_string(kQuantitySanityThreshold) +
                   "); every instance becomes a scheduled device",
               pu->loc(), pu->path());
    }
  }
}

}  // namespace

void analyze_platform(const pdl::Platform& platform, const AnalysisOptions& options,
                      pdl::Diagnostics& diags) {
  obs::Span span("analysis.platform", platform.name());
  static obs::Counter& runs = obs::counter("analysis.platform_runs");
  runs.inc();
  Emitter out{options, diags};
  check_worker_memory_reachability(platform, out);
  check_unreferenced_memory_regions(platform, out);
  check_quantity_sanity(platform, out);
  for_each_descriptor(platform, [&](const pdl::Descriptor& d, const pdl::SourceLoc& loc,
                                    const std::string& where) {
    check_property_values(d, loc, where, out);
    check_descriptor_consistency(d, loc, where, out);
    check_extension_namespaces(platform, d, loc, where, out);
  });
}

// --- Layer (b): program-platform matching ------------------------------------

namespace {

pdl::SourceLoc range_loc(const cascabel::AnnotatedProgram& program,
                         const cascabel::SourceRange& range) {
  return pdl::SourceLoc{program.source_name, range.line, 0};
}

/// The variant whose signature an execute site is checked against: prefer
/// the program's own definition, fall back to any repository variant.
const cascabel::TaskVariant* reference_variant(
    const cascabel::AnnotatedProgram& program,
    const cascabel::TaskRepository& repository, const std::string& interface_name) {
  auto own = program.variants_of(interface_name);
  if (!own.empty()) return own.front();
  auto any = repository.variants_of(interface_name);
  return any.empty() ? nullptr : any.front();
}

}  // namespace

void analyze_program(const cascabel::AnnotatedProgram& program,
                     const cascabel::TaskRepository& repository,
                     const pdl::Platform& target, const AnalysisOptions& options,
                     pdl::Diagnostics& diags) {
  obs::Span span("analysis.program", program.source_name);
  static obs::Counter& runs = obs::counter("analysis.program_runs");
  runs.inc();
  Emitter out{options, diags};

  // Pre-selection drives A301/A302; its own ad-hoc notes (pruning info,
  // fall-back errors) stay out of the rule-tagged output.
  pdl::Diagnostics scratch;
  const cascabel::SelectionResult selection =
      cascabel::preselect(repository, target, scratch);

  // A301: variants no target entry selected.
  for (const cascabel::TaskVariant& variant : repository.variants()) {
    bool selected = false;
    if (const auto* candidates =
            selection.candidates(variant.pragma.task_interface)) {
      for (const cascabel::SelectedVariant& sel : *candidates) {
        if (sel.variant == &variant) {
          selected = true;
          break;
        }
      }
    }
    if (!selected) {
      pdl::SourceLoc loc;
      if (program.find_variant(variant.pragma.variant_name) != nullptr) {
        loc = range_loc(program, variant.pragma.range);
      }
      std::string targets;
      for (const std::string& t : variant.pragma.target_platforms) {
        if (!targets.empty()) targets += ", ";
        targets += t;
      }
      out.emit(kDeadVariant,
               "variant '" + variant.pragma.variant_name + "' (targets: " + targets +
                   ") matches no PU of platform '" + target.name() +
                   "' and can never be selected",
               loc, variant.pragma.task_interface);
    }
  }

  // A304: variants of one interface must agree on the parameter signature.
  for (const std::string& interface_name : repository.interfaces()) {
    const auto variants = repository.variants_of(interface_name);
    for (std::size_t i = 1; i < variants.size(); ++i) {
      const auto& base = variants.front()->pragma.params;
      const auto& other = variants[i]->pragma.params;
      bool conflict = base.size() != other.size();
      for (std::size_t k = 0; !conflict && k < base.size(); ++k) {
        conflict = base[k].mode != other[k].mode;
      }
      if (conflict) {
        pdl::SourceLoc loc;
        if (program.find_variant(variants[i]->pragma.variant_name) != nullptr) {
          loc = range_loc(program, variants[i]->pragma.range);
        }
        out.emit(kVariantSignatureConflict,
                 "variant '" + variants[i]->pragma.variant_name +
                     "' declares a different parameter signature than '" +
                     variants.front()->pragma.variant_name + "' for interface '" +
                     interface_name + "'",
                 loc, interface_name);
      }
    }
  }

  // Per execute site: A302, A303, A305, A306.
  std::set<std::string> executed;
  for (const cascabel::CallSite& call : program.calls) {
    const std::string& interface_name = call.pragma.task_interface;
    executed.insert(interface_name);
    const pdl::SourceLoc loc = range_loc(program, call.pragma.range);

    const auto* candidates = selection.candidates(interface_name);
    if (candidates == nullptr || candidates->empty()) {
      out.emit(kNoExecutableVariant,
               "no variant of task interface '" + interface_name +
                   "' is usable on platform '" + target.name() +
                   "' — this execute site cannot run",
               loc, interface_name);
    }

    const cascabel::TaskVariant* reference =
        reference_variant(program, repository, interface_name);
    if (reference != nullptr) {
      // A303: the call must pass exactly the annotated function's arity.
      const std::size_t expected = reference->function.param_names.size();
      if (call.args.size() != expected) {
        out.emit(kArityMismatch,
                 "execute site calls '" + call.callee + "' with " +
                     std::to_string(call.args.size()) + " argument(s) but task '" +
                     reference->pragma.variant_name + "' declares " +
                     std::to_string(expected),
                 loc, interface_name);
      }
      // A305: distribution entries must name declared parameters.
      for (const cascabel::DistributionSpec& dist : call.pragma.distributions) {
        bool known = false;
        for (const auto& p : reference->pragma.params) known |= p.name == dist.param;
        for (const auto& n : reference->function.param_names) known |= n == dist.param;
        if (!known) {
          out.emit(kUnknownDistributionParam,
                   "distribution names parameter '" + dist.param + "' but task '" +
                       reference->pragma.variant_name + "' has no such parameter",
                   loc, interface_name);
        }
      }
    }

    // A306: the execution group should exist in the target platform.
    if (!call.pragma.execution_group.empty() &&
        pdl::group_members(target, call.pragma.execution_group).empty()) {
      out.emit(kUnknownExecutionGroup,
               "execution group '" + call.pragma.execution_group +
                   "' names no PU of platform '" + target.name() +
                   "'; the runtime would fall back to all PUs",
               loc, interface_name);
    }
  }

  // A406: interfaces with implementations nothing ever submits. Only
  // interfaces with at least one variant defined *in this program* count —
  // repositories often carry builtin library tasks (Idgemm, ...) the
  // program under analysis legitimately never touches.
  for (const std::string& interface_name : repository.interfaces()) {
    if (executed.count(interface_name) != 0) continue;
    const auto variants = repository.variants_of(interface_name);
    pdl::SourceLoc loc;
    bool defined_in_program = false;
    for (const auto* v : variants) {
      if (program.find_variant(v->pragma.variant_name) != nullptr) {
        loc = range_loc(program, v->pragma.range);
        defined_in_program = true;
        break;
      }
    }
    if (!defined_in_program) continue;
    out.emit(kNeverSubmittedTask,
             "task interface '" + interface_name +
                 "' has implementation variants but no execute site submits it",
             loc, interface_name);
  }
}

// --- Layer (c): task-graph analysis ------------------------------------------

starvm::TaskGraph graph_from_program(const cascabel::AnnotatedProgram& program,
                                     const cascabel::TaskRepository& repository) {
  starvm::TaskGraph graph;
  // One buffer per distinct argument expression; equal text = same data.
  // Sizes are unknown statically, so every buffer gets the same nominal
  // extent on a disjoint abstract range (overlap analysis then reduces to
  // same-expression identity, which is exactly what the engine sees too).
  constexpr std::uint64_t kNominalBytes = 1024;
  std::map<std::string, int> buffer_of;

  for (const cascabel::CallSite& call : program.calls) {
    const cascabel::TaskVariant* reference =
        reference_variant(program, repository, call.pragma.task_interface);
    const pdl::SourceLoc loc{program.source_name, call.pragma.range.line, 0};

    std::vector<starvm::GraphAccess> accesses;
    for (std::size_t i = 0; i < call.args.size(); ++i) {
      const std::string& expr = call.args[i];
      auto it = buffer_of.find(expr);
      if (it == buffer_of.end()) {
        it = buffer_of.emplace(expr, graph.add_buffer(expr, kNominalBytes, loc)).first;
      }
      // Access mode: the pragma's spec for the function parameter this
      // argument binds to; parameters outside the spec list (scalars like
      // the problem size) are read-only.
      starvm::Access mode = starvm::Access::kRead;
      if (reference != nullptr && i < reference->function.param_names.size()) {
        const std::string& param = reference->function.param_names[i];
        for (const cascabel::ParamSpec& spec : reference->pragma.params) {
          if (spec.name != param) continue;
          switch (spec.mode) {
            case cascabel::AccessMode::kRead: mode = starvm::Access::kRead; break;
            case cascabel::AccessMode::kWrite: mode = starvm::Access::kWrite; break;
            case cascabel::AccessMode::kReadWrite:
              mode = starvm::Access::kReadWrite;
              break;
          }
          break;
        }
      }
      accesses.push_back({it->second, mode});
    }
    graph.add_task(call.pragma.task_interface, std::move(accesses), {}, loc);
  }
  return graph;
}

void analyze_task_graph(const starvm::TaskGraph& graph, const AnalysisOptions& options,
                        pdl::Diagnostics& diags) {
  obs::Span span("analysis.task_graph");
  static obs::Counter& runs = obs::counter("analysis.graph_runs");
  runs.inc();
  Emitter out{options, diags};
  const auto& tasks = graph.tasks();
  const auto& buffers = graph.buffers();
  const int n = static_cast<int>(tasks.size());

  // Ordering: under sequential consistency the engine's inferred edges
  // count; under --relaxed only explicitly declared dependencies do.
  const auto reach = graph.reachability(!options.relaxed);

  // One finding per (task pair, buffer pair, rule).
  std::set<std::tuple<int, int, int, int, const void*>> reported;
  const auto emit_pair = [&](int a, int b, int buf_a, int buf_b, const char* rule,
                             std::string message) {
    if (!reported.emplace(a, b, buf_a, buf_b, rule).second) return;
    out.emit(rule, std::move(message), tasks[a].loc,
             tasks[a].name + " <-> " + tasks[b].name);
  };

  // Two accesses can only race when one writes and their buffers overlap
  // (under --relaxed, also when they are the same handle). So for each task
  // a, mark the later tasks that touch such a buffer (only those writing it
  // when a just reads), and let the closure hand out the unordered ones.
  const int nbuf = static_cast<int>(buffers.size());
  struct Users {
    std::vector<int> all;      ///< Tasks touching the buffer, ascending.
    std::vector<int> writers;  ///< Those of them writing it.
  };
  std::vector<Users> users(buffers.size());
  for (int t = 0; t < n; ++t) {
    for (const starvm::GraphAccess& x : tasks[t].accesses) {
      if (x.buffer < 0 || x.buffer >= nbuf) continue;
      Users& u = users[x.buffer];
      if (u.all.empty() || u.all.back() != t) u.all.push_back(t);
      if (starvm::writes(x.mode) && (u.writers.empty() || u.writers.back() != t)) {
        u.writers.push_back(t);
      }
    }
  }
  const std::vector<std::vector<int>> overlaps = graph.overlapping_buffers();
  std::vector<std::uint64_t> candidates((static_cast<std::size_t>(n) + 63) / 64);

  for (int a = 0; a < n; ++a) {
    bool any = false;
    for (const starvm::GraphAccess& x : tasks[a].accesses) {
      if (x.buffer < 0 || x.buffer >= nbuf) continue;
      const auto mark = [&](int buffer) {
        const std::vector<int>& list =
            starvm::writes(x.mode) ? users[buffer].all : users[buffer].writers;
        for (auto it = std::upper_bound(list.begin(), list.end(), a);
             it != list.end(); ++it) {
          candidates[static_cast<std::size_t>(*it) / 64] |= std::uint64_t{1} << (*it % 64);
          any = true;
        }
      };
      if (options.relaxed) mark(x.buffer);
      for (const int other : overlaps[x.buffer]) mark(other);
    }
    if (!any) continue;
    for (int b = reach.next_unordered(a, a + 1, candidates.data()); b < n;
         b = reach.next_unordered(a, b + 1, candidates.data())) {
      for (const starvm::GraphAccess& x : tasks[a].accesses) {
        for (const starvm::GraphAccess& y : tasks[b].accesses) {
          const bool conflict = starvm::writes(x.mode) || starvm::writes(y.mode);
          if (!conflict) continue;
          if (x.buffer == y.buffer) {
            // Same handle: the engine orders these itself, so they are
            // hazards only when the relaxed model is requested.
            if (!options.relaxed || x.buffer < 0) continue;
            const std::string& buf = buffers[x.buffer].name;
            if (starvm::writes(x.mode) && starvm::writes(y.mode)) {
              emit_pair(a, b, x.buffer, y.buffer, kUnorderedWriteWrite,
                        "tasks '" + tasks[a].name + "' and '" + tasks[b].name +
                            "' both write buffer '" + buf +
                            "' with no declared ordering between them");
            } else {
              emit_pair(a, b, x.buffer, y.buffer, kUnorderedReadWrite,
                        "task '" + tasks[starvm::writes(x.mode) ? a : b].name +
                            "' writes buffer '" + buf + "' while task '" +
                            tasks[starvm::writes(x.mode) ? b : a].name +
                            "' reads it with no declared ordering between them");
            }
          } else if (graph.ranges_overlap(x.buffer, y.buffer)) {
            // Distinct handles over one memory range: invisible to the
            // engine's per-handle inference in every mode.
            const std::string& buf_x = buffers[x.buffer].name;
            const std::string& buf_y = buffers[y.buffer].name;
            std::string message;
            if (graph.same_lineage(x.buffer, y.buffer)) {
              message = "task '" + tasks[a].name + "' accesses buffer '" + buf_x +
                        "' while task '" + tasks[b].name + "' accesses '" + buf_y +
                        "' — a parent handle and its partition block used "
                        "concurrently";
            } else {
              message = "tasks '" + tasks[a].name + "' and '" + tasks[b].name +
                        "' access distinct buffers '" + buf_x + "' and '" + buf_y +
                        "' that overlap the same memory with no ordering between "
                        "them";
            }
            emit_pair(a, b, std::min(x.buffer, y.buffer), std::max(x.buffer, y.buffer),
                      kPartitionAliasing, std::move(message));
          }
        }
      }
    }
    std::fill(candidates.begin(), candidates.end(), 0);
  }

  // A404: declared-dependency cycles.
  const std::vector<int> cycle = graph.find_declared_cycle();
  if (!cycle.empty()) {
    std::string chain;
    for (int t : cycle) {
      if (!chain.empty()) chain += " -> ";
      chain += tasks[t].name;
    }
    chain += " -> " + tasks[cycle.front()].name;
    out.emit(kDependencyCycle,
             "declared task dependencies form a cycle (" + chain +
                 "); the engine silently drops forward dependencies, so this "
                 "ordering is not enforced",
             tasks[cycle.front()].loc, tasks[cycle.front()].name);
  }

  // A405: dependencies the engine would silently satisfy.
  for (int t = 0; t < n; ++t) {
    for (int dep : tasks[t].declared_deps) {
      if (dep >= 0 && dep < t) continue;
      std::string message;
      if (dep < 0 || dep >= n) {
        message = "task '" + tasks[t].name + "' depends on unknown task index " +
                  std::to_string(dep);
      } else {
        message = "task '" + tasks[t].name + "' depends on task '" +
                  tasks[dep].name +
                  "' which is submitted later; the engine treats the dependency "
                  "as already satisfied";
      }
      out.emit(kUnknownDependency, std::move(message), tasks[t].loc, tasks[t].name);
    }
  }
}

}  // namespace analysis
