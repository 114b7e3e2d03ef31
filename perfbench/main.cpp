// perfbench: one closed loop (one caller, one job in flight) per
// run. See README.md for the workloads, the metrics and how to run it.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--out <dir>]
//
// The last line of standard output is the result object
// {"correct", "attempted", "failed", "metrics"}; --trace 0 reports the
// end-to-end metrics, --trace 1 the per-layer ones.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "discovery/discovery.hpp"
#include "perfbench.hpp"
#include "probe.hpp"

namespace {

using perfbench::Clock;
using perfbench::Metrics;
using perfbench::median;

// Set-ups at the start of every cycle; setup_s is the median over all of a
// run's set-ups, so it samples the host as often as the jobs do.
constexpr int kSetupsPerCycle = 3;
// One single-PDL baseline job after every this many main jobs.
constexpr int kSinglesEvery = 5;
// job_ms.p90 needs at least ten samples above it.
constexpr std::size_t kMinMainSamples = 100;
// A traced run needs medians only, of traced and of untraced jobs.
constexpr std::size_t kMinTracedSamples = 20;

// Variables that would make a run depend on state outside its inputs:
// a perf store warmed by an earlier run, injected faults, or tracing the
// program itself. The program reads them lazily, so clearing them at the
// start of a run is enough.
constexpr const char* kClearedEnv[] = {"PDL_PERF_STORE", "PDL_FAULT_PLAN",
                                       "PDL_TRACE",      "PDL_METRICS",
                                       "PDL_METRICS_PROM", "PDL_FLIGHT_DUMP"};

// Per-layer metrics that come from counters and probes rather than spans.
const std::map<std::string, std::string> kLayerMetricUnits = {
    {"starvm.tasks_per_job", "count"},
    {"starvm.busy_ratio", "ratio"},
    {"starvm.overhead_us_per_task", "us"},
    {"starvm.retained_kb_per_task", "kB"},
    {"starvm.steals", "count"},
    {"starvm.retries", "count"},
    {"starvm.task_failures", "count"},
    {"obs.flight_records_per_task", "count"},
    {"kernels.gemm_gflops", "GFLOP/s"},
    {"kernels.peak_gflops", "GFLOP/s"},
    {"kernels.gemm_peak_fraction", "ratio"},
    {"kernels.tile_gflops", "GFLOP/s"},
    {"analysis.findings", "count"},
    {"starvm.modeled_speedup.starpu", "ratio"},
    {"starvm.modeled_speedup.starpu_2gpu", "ratio"},
};

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out = ".bench_build/perfbench-out";
};

bool parse_args(int argc, char** argv, Args& args) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--workload" && has_value) {
      args.workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      args.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      args.seconds = std::atof(argv[++i]);
    } else if (arg == "--trace" && has_value) {
      args.trace = std::string(argv[++i]) == "1";
    } else if (arg == "--out" && has_value) {
      args.out = argv[++i];
    } else {
      return false;
    }
  }
  return !args.workload.empty() && args.seconds > 0.0;
}

/// Nearest-rank percentile.
double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(std::ceil(p * static_cast<double>(v.size())));
  return v[std::max<std::size_t>(rank, 1) - 1];
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

std::string metrics_json(const Metrics& metrics) {
  std::string out = "{";
  for (const auto& [name, metric] : metrics) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", metric.value);
    if (out.size() > 1) out += ", ";
    out += "\"" + name + "\": {\"value\": " + value + ", \"unit\": \"" + metric.unit +
           "\"}";
  }
  return out + "}";
}

/// Job times in run order, for looking at a run's distribution over time.
std::string samples_json(const std::vector<double>& samples) {
  std::string out = "[";
  for (const double ms : samples) {
    char value[32];
    std::snprintf(value, sizeof(value), "%.4f", ms);
    if (out.size() > 1) out += ", ";
    out += value;
  }
  return out + "]";
}

/// What a result was measured on; compare.py refuses to pair results whose
/// CPU count or build type differ.
std::string host_json(const Args& args, int devices) {
  const int nproc = perfbench::host_nproc();
  std::ostringstream out;
  out << "{\"nproc\": " << nproc << ", \"cpu_model\": \""
      << json_escape(pdl::discovery::read_host_cpu().model_name)
      << "\", \"engine_devices\": " << devices << ", \"build_type\": \""
      << PERFBENCH_BUILD_TYPE << "\", \"ndebug\": "
#ifdef NDEBUG
      << "true"
#else
      << "false"
#endif
      << ", \"native_arch\": " << (PERFBENCH_NATIVE_ARCH ? "true" : "false")
      << ", \"compiler\": \"" << json_escape(__VERSION__) << "\", \"seed\": "
      << args.seed << "}";
  return out.str();
}

struct Samples {
  std::vector<double> setup_s;         ///< every set-up of the run
  std::vector<double> main_ms;         ///< untraced main jobs
  std::vector<double> main_traced_ms;  ///< traced main jobs (traced runs)
  std::vector<double> single_ms;       ///< single-PDL baseline jobs
  /// probe_ms[i] is the host probe run right after main_ms[i], on as many
  /// threads as the main engine has devices (README.md "Host probe").
  std::vector<double> probe_ms;
  /// single_probe_ms[i] is the one-thread probe run right after single_ms[i].
  std::vector<double> single_probe_ms;
  int attempted = 0;
  int failed = 0;
};

/// Median over jobs of (job time ÷ the probe run right after the job).
double per_probe(const std::vector<double>& job_ms, const std::vector<double>& probe_ms) {
  std::vector<double> ratios;
  for (std::size_t i = 0; i < job_ms.size() && i < probe_ms.size(); ++i) {
    ratios.push_back(job_ms[i] / probe_ms[i]);
  }
  return median(ratios);
}

class Runner {
 public:
  Runner(perfbench::Workload& workload, const Args& args)
      : w_(workload), args_(args), main_threads_(engine_threads(workload)),
        probe_(main_threads_, workload.probe_matrix_n()) {}

  /// One job: prepare (untimed), run (timed), check (untimed).
  double job(bool single, bool counted, Samples& s) {
    w_.prepare(single);
    std::string why;
    const Clock::time_point start = Clock::now();
    bool ok = false;
    {
      perfbench::Span root("job");
      ok = w_.run(single, &why);
    }
    const double ms = perfbench::seconds_since(start) * 1e3;
    ok = ok && w_.check(single, &why);
    if (counted || !ok) ++s.attempted;
    if (!ok) {
      ++s.failed;
      std::fprintf(stderr, "perfbench: %s job failed: %s\n",
                   single ? "single-PDL" : "main", why.c_str());
    }
    return ms;
  }

  /// Cycles of two blocks of main jobs with single-PDL jobs interleaved,
  /// until the time is up and enough samples are in.
  void loop(Samples& s) {
    const bool trace = args_.trace;
    const Clock::time_point start = Clock::now();
    const auto elapsed = [&] { return perfbench::seconds_since(start); };
    const auto done = [&] {
      if (elapsed() > 3.0 * args_.seconds) return true;
      const std::size_t wanted = trace ? kMinTracedSamples : kMinMainSamples;
      return elapsed() > args_.seconds && s.main_ms.size() >= wanted &&
             (!trace || s.main_traced_ms.size() >= wanted);
    };
    int main_jobs = 0;
    int job_id = 0;
    for (int cycle = 0; !done(); ++cycle) {
      for (int rep = 0; rep < kSetupsPerCycle; ++rep) {
        w_.teardown();
        perfbench::spans().set_job(-1 - static_cast<int>(s.setup_s.size()));
        perfbench::spans().set_enabled(trace);
        const Clock::time_point setup_start = Clock::now();
        {
          perfbench::Span root("setup");
          w_.setup();
        }
        s.setup_s.push_back(perfbench::seconds_since(setup_start));
      }
      perfbench::spans().set_enabled(false);
      if (w_.start_cycle(cycle == 0)) {
        job(false, false, s);
        job(true, false, s);
      }
      if (trace) w_.cycle_counters_begin();
      double cycle_wall_s = 0.0;
      int cycle_jobs = 0;
      for (int block = 0; block < 2 && !done(); ++block) {
        const bool traced = trace && block == 1;
        for (int i = 0; i < w_.block_jobs() && !done(); ++i) {
          perfbench::spans().set_job(job_id++);
          perfbench::spans().set_enabled(traced);
          const double ms = job(false, true, s);
          perfbench::spans().set_enabled(false);
          (traced ? s.main_traced_ms : s.main_ms).push_back(ms);
          if (!traced) s.probe_ms.push_back(probe_.run_ms(main_threads_));
          cycle_wall_s += ms / 1e3;
          ++cycle_jobs;
          if (++main_jobs % kSinglesEvery == 0) {
            s.single_ms.push_back(job(true, true, s));
            s.single_probe_ms.push_back(probe_.run_ms(1));
          }
        }
      }
      if (trace) w_.cycle_counters_end(cycle_wall_s, cycle_jobs);
    }
  }

 private:
  /// Threads of the main jobs' engine (1 when they run none), read from
  /// one untimed set-up.
  static int engine_threads(perfbench::Workload& w) {
    w.setup();
    const int devices = std::max(1, w.devices());
    w.teardown();
    return devices;
  }

  perfbench::Workload& w_;
  const Args& args_;
  const int main_threads_;
  perfbench::HostProbe probe_;
};

int run(const Args& args) {
  for (const char* name : kClearedEnv) {
    if (std::getenv(name) != nullptr) {
      std::fprintf(stderr, "perfbench: cleared %s for the run\n", name);
      unsetenv(name);
    }
  }
  std::unique_ptr<perfbench::Workload> workload = perfbench::make_workload(args.workload);
  if (!workload) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  std::error_code ec;
  std::filesystem::create_directories(args.out, ec);
  if (ec) {
    std::fprintf(stderr, "perfbench: cannot create %s\n", args.out.c_str());
    return 2;
  }

  bool correct = true;
  std::string why;
  if (!perfbench::self_test(&why)) {
    std::fprintf(stderr, "perfbench: %s\n", why.c_str());
    correct = false;
  }
  workload->make_inputs(args.seed, args.out);

  Samples s;
  workload->run_checks(s.attempted, s.failed);
  Runner(*workload, args).loop(s);
  correct = correct && s.failed == 0;

  const double p50 = median(s.main_ms);
  Metrics metrics;
  if (!args.trace) {
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    const double job_per_probe = per_probe(s.main_ms, s.probe_ms);
    metrics["job_per_probe.p50"] = {job_per_probe, "ratio"};
    metrics["speedup_vs_single.norm"] = {
        job_per_probe > 0 ? per_probe(s.single_ms, s.single_probe_ms) / job_per_probe : 0.0,
        "ratio"};
    metrics["setup_s"] = {median(s.setup_s), "s"};
    metrics["peak_rss_mb"] = {static_cast<double>(usage.ru_maxrss) / 1024.0, "MB"};
  } else {
    workload->layer_metrics(metrics);
    const std::map<std::string, double> self_ms = perfbench::spans().median_self_ms();
    static const char* const kLayerSpans[] = {
        "xml.parse",          "pdl.parse",          "pdl.validate",
        "discovery.discover_host", "annot.scan",    "cascabel.translate",
        "cascabel.context",   "starvm.engine",      "cascabel.execute",
        "cascabel.wait",      "solvers.tiled_cholesky", "analysis.graph_parse",
        "analysis.simulate",  "analysis.rules",     "analysis.accuracy",
        "analysis.render"};
    for (const char* name : kLayerSpans) {
      const auto it = self_ms.find(name);
      metrics[std::string(name) + "_ms"] = {it == self_ms.end() ? 0.0 : it->second, "ms"};
    }
    const double traced_p50 = median(s.main_traced_ms);
    metrics["obs.trace_overhead"] = {p50 > 0 ? traced_p50 / p50 - 1.0 : 0.0, "ratio"};
    metrics["obs.untraced_share"] = {perfbench::spans().median_root_share("job"), "ratio"};
    // Layers this workload does not run read 0.
    for (const auto& [name, unit] : kLayerMetricUnits) {
      metrics.emplace(name, perfbench::Metric{0.0, unit});
    }
  }

  const std::string stem = args.out + "/" + args.workload + "-seed" +
                           std::to_string(args.seed) + "-trace" +
                           (args.trace ? "1" : "0");
  if (args.trace && !perfbench::spans().write_json(stem + ".spans.json")) {
    std::fprintf(stderr, "perfbench: cannot write %s.spans.json\n", stem.c_str());
  }
  const std::string host = host_json(args, workload->devices());
  // The raw wall times, fail_ratio and the probe time are reported but are
  // not result metrics (README.md "End-to-end metrics").
  const Metrics reported = {
      {"fail_ratio",
       {s.attempted > 0 ? static_cast<double>(s.failed) / s.attempted : 0.0, "ratio"}},
      {"job_ms.p50", {p50, "ms"}},
      {"job_ms.p90", {percentile(s.main_ms, 0.9), "ms"}},
      {"speedup_vs_single", {p50 > 0 ? median(s.single_ms) / p50 : 0.0, "ratio"}},
      {"probe_ms.p50", {median(s.probe_ms), "ms"}}};
  char summary[512];
  std::snprintf(summary, sizeof(summary),
                "\"fail_ratio\": %.6g, \"job_ms.p50\": %.6f, \"job_ms.p90\": %.6f, "
                "\"speedup_vs_single\": %.6f, \"probe_ms.p50\": %.6f, \"main_jobs\": %zu, "
                "\"traced_jobs\": %zu, \"single_jobs\": %zu",
                reported.at("fail_ratio").value, reported.at("job_ms.p50").value,
                reported.at("job_ms.p90").value, reported.at("speedup_vs_single").value,
                reported.at("probe_ms.p50").value, s.main_ms.size(), s.main_traced_ms.size(),
                s.single_ms.size());
  {
    std::ofstream record(stem + ".json");
    record << "{\"workload\": \"" << args.workload << "\", \"trace\": " << args.trace
           << ", \"host\": " << host << ", \"correct\": " << (correct ? "true" : "false")
           << ", \"attempted\": " << s.attempted << ", \"failed\": " << s.failed << ", "
           << summary << ", \"metrics\": " << metrics_json(metrics)
           << ", \"job_ms\": " << samples_json(s.main_ms)
           << ", \"traced_job_ms\": " << samples_json(s.main_traced_ms)
           << ", \"single_job_ms\": " << samples_json(s.single_ms)
           << ", \"probe_ms\": " << samples_json(s.probe_ms)
           << ", \"single_probe_ms\": " << samples_json(s.single_probe_ms) << "}\n";
  }

  std::printf("host %s\n", host.c_str());
  std::printf("run {%s}\n", summary);
  for (const auto& [name, metric] : reported) {
    std::printf("%-40s %14.6g %s (not gated)\n", name.c_str(), metric.value,
                metric.unit.c_str());
  }
  for (const auto& [name, metric] : metrics) {
    std::printf("%-40s %14.6g %s\n", name.c_str(), metric.value, metric.unit.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %d, \"failed\": %d, \"metrics\": %s}\n",
              correct ? "true" : "false", s.attempted, s.failed,
              metrics_json(metrics).c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--out <dir>]\n");
    return 2;
  }
  try {
    return run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
