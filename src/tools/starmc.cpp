// starmc — the DPOR interleaving explorer for the starvm engine
// (docs/MODEL_CHECKING.md).
//
//   starmc --graph <file> [options]
//
//   --graph <file>      task-graph fixture (graph_io.hpp text format)
//   --devices <n>       CPU devices of the simulated platform (default 2)
//   --scheduler <s>     heft|eager|ws (default heft)
//   --fault-plan <spec> deterministic fault plan (fault.hpp grammar);
//                       device-/history-dependent plans disable the
//                       serial-equivalence check automatically
//   --max-depth <n>     branch points considered per execution (default 256)
//   --budget <n>        engine-execution budget (default 20000)
//   --dpor=on|off       sleep-set partial-order reduction (default on)
//   --compare-naive     also run without reduction and report the ratio
//   --serial-check=on|off
//                       compare every terminal output against the
//                       canonical run (default on)
//   --trace-out <prefix>
//                       on a finding, replay the first counterexample and
//                       write <prefix>.decisions.json (replayable decision
//                       trace), <prefix>.jsonl and <prefix>.trace.json
//                       (flight recorder)
//
// Exit codes: 0 clean, 1 findings, 2 usage/load error.
#include <climits>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include "analysis/graph_io.hpp"
#include "mc/explorer.hpp"
#include "mc/graph_program.hpp"
#include "mc/report.hpp"
#include "obs/env.hpp"
#include "util/string_util.hpp"

namespace {

void usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s --graph <file> [--devices N] [--scheduler heft|eager|ws]\n"
      "          [--fault-plan SPEC] [--max-depth N] [--budget N]\n"
      "          [--dpor=on|off] [--serial-check=on|off] [--compare-naive]\n"
      "          [--trace-out PREFIX]\n",
      argv0);
}

bool parse_on_off(const std::string& value, bool* out) {
  if (value == "on") {
    *out = true;
    return true;
  }
  if (value == "off") {
    *out = false;
    return true;
  }
  return false;
}

/// A count flag's value: a positive integer up to `max`, nothing else.
std::optional<std::int64_t> parse_count(const char* flag, const char* text,
                                        std::int64_t max = INT64_MAX) {
  const auto value = pdl::util::parse_int(text);
  if (!value || *value < 1 || *value > max) {
    std::fprintf(stderr, "starmc: %s takes a positive integer, got '%s'\n",
                 flag, text);
    return std::nullopt;
  }
  return value;
}

void print_summary(const char* tag, const mc::Result& result) {
  std::printf(
      "%s: %zu engine runs, %zu terminal states, %zu branch points, "
      "%zu sleep-set pruned, %zu symmetry pruned%s\n",
      tag, result.runs, result.terminals, result.branch_points,
      result.sleep_pruned, result.symmetry_pruned,
      result.truncated ? " (budget truncated)" : "");
}

}  // namespace

int main(int argc, char** argv) {
  obs::init_from_env();
  std::string graph_path;
  std::string trace_out;
  mc::GraphProgramOptions program_options;
  mc::Options options;
  options.max_runs = 20000;
  bool compare_naive = false;
  bool serial_check_explicit = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "starmc: %s needs a value\n", flag);
        return nullptr;
      }
      return argv[++i];
    };
    if (arg == "--graph") {
      const char* v = value("--graph");
      if (v == nullptr) return 2;
      graph_path = v;
    } else if (arg.rfind("--graph=", 0) == 0) {
      graph_path = arg.substr(std::strlen("--graph="));
    } else if (arg == "--devices") {
      const char* v = value("--devices");
      if (v == nullptr) return 2;
      const auto n = parse_count("--devices", v, INT_MAX);
      if (!n) return 2;
      program_options.devices = static_cast<int>(*n);
    } else if (arg == "--scheduler") {
      const char* v = value("--scheduler");
      if (v == nullptr) return 2;
      const std::string s = v;
      if (s == "heft") {
        program_options.scheduler = starvm::SchedulerKind::kHeft;
      } else if (s == "eager") {
        program_options.scheduler = starvm::SchedulerKind::kEager;
      } else if (s == "ws") {
        program_options.scheduler = starvm::SchedulerKind::kWorkStealing;
      } else {
        std::fprintf(stderr, "starmc: unknown scheduler '%s'\n", v);
        return 2;
      }
    } else if (arg == "--fault-plan") {
      const char* v = value("--fault-plan");
      if (v == nullptr) return 2;
      program_options.fault_plan = v;
    } else if (arg.rfind("--fault-plan=", 0) == 0) {
      program_options.fault_plan = arg.substr(std::strlen("--fault-plan="));
    } else if (arg == "--max-depth") {
      const char* v = value("--max-depth");
      if (v == nullptr) return 2;
      const auto n = parse_count("--max-depth", v);
      if (!n) return 2;
      options.max_depth = static_cast<std::size_t>(*n);
    } else if (arg == "--budget") {
      const char* v = value("--budget");
      if (v == nullptr) return 2;
      const auto n = parse_count("--budget", v);
      if (!n) return 2;
      options.max_runs = static_cast<std::size_t>(*n);
    } else if (arg.rfind("--dpor=", 0) == 0) {
      if (!parse_on_off(arg.substr(std::strlen("--dpor=")), &options.dpor)) {
        std::fprintf(stderr, "starmc: --dpor takes on|off\n");
        return 2;
      }
    } else if (arg.rfind("--serial-check=", 0) == 0) {
      bool on = true;
      if (!parse_on_off(arg.substr(std::strlen("--serial-check=")), &on)) {
        std::fprintf(stderr, "starmc: --serial-check takes on|off\n");
        return 2;
      }
      options.check_serial = on;
      serial_check_explicit = true;
    } else if (arg == "--compare-naive") {
      compare_naive = true;
    } else if (arg == "--trace-out") {
      const char* v = value("--trace-out");
      if (v == nullptr) return 2;
      trace_out = v;
    } else if (arg.rfind("--trace-out=", 0) == 0) {
      trace_out = arg.substr(std::strlen("--trace-out="));
    } else {
      std::fprintf(stderr, "starmc: unknown option '%s'\n", arg.c_str());
      usage(argv[0]);
      return 2;
    }
  }

  if (graph_path.empty()) {
    usage(argv[0]);
    return 2;
  }

  auto graph = analysis::load_graph_file(graph_path);
  if (!graph.ok()) {
    std::fprintf(stderr, "starmc: %s\n", graph.error().str().c_str());
    return 2;
  }

  if (!program_options.fault_plan.empty() && !serial_check_explicit &&
      mc::fault_plan_is_schedule_sensitive(program_options.fault_plan)) {
    std::printf(
        "note: fault plan '%s' can fire schedule-dependently; disabling the "
        "serial-equivalence check\n",
        program_options.fault_plan.c_str());
    options.check_serial = false;
  }

  auto program = mc::make_graph_program(graph.value(), program_options);
  if (!program.ok()) {
    std::fprintf(stderr, "starmc: %s\n", program.error().str().c_str());
    return 2;
  }

  mc::Explorer explorer(program.value(), options);
  const mc::Result result = explorer.explore();
  print_summary(options.dpor ? "dpor" : "naive", result);

  if (compare_naive) {
    mc::Options naive_options = options;
    naive_options.dpor = !options.dpor;
    naive_options.replay_check = false;
    mc::Explorer other(program.value(), naive_options);
    const mc::Result naive = other.explore();
    print_summary(naive_options.dpor ? "dpor" : "naive", naive);
    const mc::Result& reduced = options.dpor ? result : naive;
    const mc::Result& full = options.dpor ? naive : result;
    if (reduced.runs > 0) {
      std::printf("reduction: %.1fx fewer engine runs (%zu -> %zu)\n",
                  static_cast<double>(full.runs) /
                      static_cast<double>(reduced.runs),
                  full.runs, reduced.runs);
    }
  }

  if (result.findings.empty()) {
    std::printf("no A6xx findings: %zu terminal state(s) satisfy all "
                "invariants\n",
                result.terminals);
    return 0;
  }

  for (const mc::Finding& finding : result.findings) {
    std::printf("%s: %s\n  replay trace %s (%zu of the explored terminal "
                "states)\n",
                finding.rule.c_str(), finding.message.c_str(),
                mc::format_trace(finding.trace).c_str(), finding.occurrences);
  }
  if (!trace_out.empty()) {
    const mc::RunOutcome replayed =
        explorer.replay(result.findings.front().trace, trace_out);
    const std::string path = trace_out + ".decisions.json";
    std::ofstream out(path);
    if (out) {
      out << mc::trace_to_json(replayed);
      std::printf("counterexample written: %s, %s.jsonl, %s.trace.json\n",
                  path.c_str(), trace_out.c_str(), trace_out.c_str());
    } else {
      std::fprintf(stderr, "starmc: cannot write '%s'\n", path.c_str());
    }
  }
  return 1;
}
