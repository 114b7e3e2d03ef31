// The three workloads (README.md has the table and the reasons).
//
// Spans sit at the calls from this file into each module's public
// functions; nothing inside the program is instrumented.
#include <malloc.h>
#include <sched.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <stdexcept>

#include "analysis/accuracy.hpp"
#include "analysis/analyzer.hpp"
#include "analysis/capacity.hpp"
#include "analysis/graph_io.hpp"
#include "analysis/sarif.hpp"
#include "analysis/schedule_sim.hpp"
#include "annot/annotated_program.hpp"
#include "cascabel/builtin_variants.hpp"
#include "cascabel/rt.hpp"
#include "cascabel/translator.hpp"
#include "discovery/discovery.hpp"
#include "discovery/presets.hpp"
#include "kernels/cholesky.hpp"
#include "pdl/extension.hpp"
#include "pdl/parser.hpp"
#include "pdl/serializer.hpp"
#include "pdl/validate.hpp"
#include "perfbench.hpp"
#include "peak.hpp"
#include "solvers/tiled_cholesky.hpp"
#include "starvm/bridge.hpp"
#include "util/string_util.hpp"
#include "xml/parser.hpp"

namespace perfbench {

namespace {

// The paper's §IV-D input program: a serial DGEMM with one task and one
// execute annotation (the same source examples/dgemm_pipeline.cpp uses).
constexpr const char* kCaseStudySource = R"(
#pragma cascabel task : x86 : Idgemm : dgemm_input : ( C: readwrite, A: read, B: read )
void dgemm_serial(double *C, double *A, double *B, int n) {
  for (int i = 0; i < n; ++i)
    for (int j = 0; j < n; ++j) {
      double sum = 0.0;
      for (int k = 0; k < n; ++k) sum += A[i*n+k] * B[k*n+j];
      C[i*n+j] += sum;
    }
}

int main() {
  const int n = 8192;
  double *C = new double[n*n];
  double *A = new double[n*n];
  double *B = new double[n*n];
#pragma cascabel execute Idgemm : all (C:BLOCK:n:n, A:BLOCK:n:n, B:WHOLE:n:n)
  dgemm_serial(C, A, B, n);
  delete[] C; delete[] A; delete[] B;
  return 0;
}
)";
constexpr const char* kCaseStudyName = "dgemm.cpp";

constexpr std::size_t kGemmN = 1024;
constexpr std::size_t kModeledN = 8192;
constexpr std::size_t kCholeskyN = 1024;
constexpr int kCholeskyTiles = 32;
constexpr int kPlanTasks = 2000;

[[noreturn]] void fail(const std::string& what) { throw std::runtime_error(what); }

/// Traced runs only: the separate XML parse behind xml.parse_ms.
/// pdl::parse_platform parses the text itself, so an untraced job or
/// set-up does not pay for this one.
bool traced_xml_ok(const std::string& text) {
  if (!spans().enabled()) return true;
  Span span("xml.parse");
  return pdl::xml::parse(text).ok();
}

/// Traced runs only: the separate scan behind annot.scan_ms.
/// cascabel::translate scans the source itself.
bool traced_scan_ok() {
  if (!spans().enabled()) return true;
  Span span("annot.scan");
  pdl::Diagnostics diags;
  auto program = cascabel::parse_annotated_source(kCaseStudySource, kCaseStudyName, diags);
  return program.ok() && program.value().calls.size() == 1;
}

/// The pipeline a user runs before translating: discover the host (workers
/// capped at the CPUs this process may use), write it as PDL, then parse
/// and validate that document.
pdl::Platform discover_parse_validate() {
  std::string text;
  {
    Span span("discovery.discover_host");
    const pdl::discovery::HostCpuInfo cpu = pdl::discovery::read_host_cpu();
    const int nproc = host_nproc();
    pdl::Platform host = cpu.physical_cores > nproc
                             ? pdl::discovery::make_gpgpu_platform(cpu, nproc, {})
                             : pdl::discovery::discover_host();
    text = pdl::serialize(host);
  }
  if (!traced_xml_ok(text)) fail("discovered PDL is not well-formed XML");
  pdl::Diagnostics diags;
  pdl::util::Result<pdl::Platform> platform = [&] {
    Span span("pdl.parse");
    return pdl::parse_platform(text, diags, "host.pdl.xml");
  }();
  if (!platform.ok()) fail("discovered PDL does not parse: " + platform.error().str());
  {
    Span span("pdl.validate");
    const bool ok = pdl::validate(platform.value(), diags) &&
                    pdl::builtin_registry().validate_properties(platform.value(), diags);
    if (!ok || pdl::has_errors(diags)) fail("discovered PDL does not validate");
  }
  return std::move(platform).value();
}

cascabel::TranslationResult translate_case_study(const pdl::Platform& target) {
  if (!traced_scan_ok()) fail("case-study source does not scan to one call site");
  Span span("cascabel.translate");
  auto translation = cascabel::translate(kCaseStudySource, kCaseStudyName, target);
  if (!translation.ok()) fail("translation failed: " + translation.error().str());
  return std::move(translation).value();
}

// No run may warm from an earlier one, so no perf store is read or
// written. An empty perf_store_path defers to PDL_PERF_STORE, which the
// benchmark clears at start; "0" would not do, because EngineConfig takes
// it as a file name (README.md "Run isolation").
cascabel::rt::Options rt_options(starvm::ExecutionMode mode) {
  cascabel::rt::Options options;
  options.mode = mode;
  return options;
}

starvm::EngineConfig engine_config(const pdl::Platform& platform) {
  auto config = starvm::engine_config_from_platform(platform);
  if (!config.ok()) fail("bridge failed: " + config.error().str());
  return std::move(config).value();
}

/// Engine counters read at cycle boundaries (traced runs only).
struct Counters {
  double busy_s = 0.0;
  double tasks = 0.0;
  double steals = 0.0;
  double retries = 0.0;
  double failures = 0.0;
  double flight = 0.0;

  static Counters of(const starvm::EngineStats& stats) {
    Counters c;
    for (const starvm::DeviceStats& d : stats.devices) c.busy_s += d.busy_seconds;
    c.tasks = static_cast<double>(stats.tasks_completed);
    c.steals = static_cast<double>(stats.steals);
    c.retries = static_cast<double>(stats.retries);
    c.failures = static_cast<double>(stats.task_failures);
    c.flight = static_cast<double>(stats.flight_records);
    return c;
  }
};

/// Cycle-summed engine counters turned into the starvm/obs layer metrics.
/// Retention is heap growth, not RSS growth: a cycle's fresh engine reuses
/// the pages its predecessor freed, so RSS would hide what it keeps. The
/// single-PDL jobs interleaved in the cycle grow the same heap, so their
/// tasks count in its denominator.
/// Busy time is the engine's own stopwatch around each kernel body (CPU
/// devices in hybrid mode measure, they do not model); every other time
/// here is the benchmark's steady clock.
class CounterTotals {
 public:
  /// Reads the heap before taking any stats snapshot: a snapshot copies
  /// every retained task record.
  void begin(const starvm::Engine& main, const starvm::Engine& single) {
    heap_start_kb_ = heap_in_use_kb();
    start_ = Counters::of(main.stats());
    single_start_ = static_cast<double>(single.stats().tasks_completed);
  }
  void end(const starvm::Engine& main, const starvm::Engine& single, double job_wall_s,
           int jobs) {
    heap_growth_kb_ += heap_in_use_kb() - heap_start_kb_;
    const Counters now = Counters::of(main.stats());
    single_tasks_ += static_cast<double>(single.stats().tasks_completed) - single_start_;
    busy_s_ += now.busy_s - start_.busy_s;
    tasks_ += now.tasks - start_.tasks;
    steals_ += now.steals - start_.steals;
    retries_ += now.retries - start_.retries;
    failures_ += now.failures - start_.failures;
    flight_ += now.flight - start_.flight;
    device_wall_s_ += static_cast<double>(main.device_count()) * job_wall_s;
    jobs_ += jobs;
  }
  void report(Metrics& out) const {
    const double tasks = std::max(tasks_, 1.0);
    out["starvm.tasks_per_job"] = {jobs_ > 0 ? tasks_ / jobs_ : 0.0, "count"};
    out["starvm.busy_ratio"] = {device_wall_s_ > 0 ? busy_s_ / device_wall_s_ : 0.0,
                                "ratio"};
    out["starvm.overhead_us_per_task"] = {(device_wall_s_ - busy_s_) / tasks * 1e6,
                                          "us"};
    out["starvm.retained_kb_per_task"] = {
        heap_growth_kb_ / std::max(tasks_ + single_tasks_, 1.0), "kB"};
    out["starvm.steals"] = {steals_, "count"};
    out["starvm.retries"] = {retries_, "count"};
    out["starvm.task_failures"] = {failures_, "count"};
    out["obs.flight_records_per_task"] = {flight_ / tasks, "count"};
  }

 private:
  Counters start_;
  double heap_start_kb_ = 0.0;
  double single_start_ = 0.0, single_tasks_ = 0.0;
  double busy_s_ = 0.0, tasks_ = 0.0, steals_ = 0.0, retries_ = 0.0;
  double failures_ = 0.0, flight_ = 0.0, heap_growth_kb_ = 0.0;
  double device_wall_s_ = 0.0;
  double jobs_ = 0.0;
};

// --- fig5_dgemm ---------------------------------------------------------------

class Fig5Dgemm final : public Workload {
 public:
  void make_inputs(std::uint64_t seed, const std::string&) override {
    Rng rng(seed);
    a_ = random_matrix(kGemmN, rng);
    b_ = random_matrix(kGemmN, rng);
    c_.assign(kGemmN * kGemmN, 0.0);
    probe_ = random_probe(kGemmN, rng);
  }

  void teardown() override { ctx_.reset(); }

  void setup() override {
    const pdl::Platform platform = discover_parse_validate();
    cascabel::TranslationResult translation = translate_case_study(platform);
    Span span("cascabel.context");
    ctx_ = std::make_unique<cascabel::rt::Context>(
        platform, std::move(translation.repository),
        rt_options(starvm::ExecutionMode::kHybrid));
    if (ctx_->perf_store() != nullptr) fail("a perf store was loaded");
  }

  bool start_cycle(bool first) override {
    if (first) {
      const pdl::Platform single = pdl::discovery::paper_platform_single();
      cascabel::TranslationResult translation = translate_case_study(single);
      single_ = std::make_unique<cascabel::rt::Context>(
          single, std::move(translation.repository),
          rt_options(starvm::ExecutionMode::kHybrid));
    }
    return true;
  }

  void prepare(bool single) override {
    std::fill(c_.begin(), c_.end(), 0.0);
    context(single).host_modified(c_.data());
  }

  bool run(bool single, std::string* why) override {
    cascabel::rt::Context& ctx = context(single);
    const std::size_t n = kGemmN;
    {
      Span span("cascabel.execute");
      const auto status = ctx.execute(
          "Idgemm", "all",
          {cascabel::rt::arg_matrix(c_.data(), n, n, cascabel::AccessMode::kReadWrite,
                                    cascabel::DistributionKind::kBlock),
           cascabel::rt::arg_matrix(a_.data(), n, n, cascabel::AccessMode::kRead,
                                    cascabel::DistributionKind::kBlock),
           cascabel::rt::arg_matrix(b_.data(), n, n, cascabel::AccessMode::kRead,
                                    cascabel::DistributionKind::kNone)});
      if (!status.ok()) {
        *why = "execute: " + status.error().str();
        return false;
      }
    }
    Span span("cascabel.wait");
    const auto status = ctx.wait();
    if (!status.ok()) *why = "wait: " + status.error().str();
    return status.ok();
  }

  bool check(bool, std::string* why) override {
    return check_gemm(kGemmN, a_.data(), b_.data(), c_.data(), probe_, why);
  }

  int block_jobs() const override { return 10; }
  int devices() const override {
    return static_cast<int>(ctx_->engine().device_count());
  }
  // A, B and C are 8 MB each.
  std::size_t probe_matrix_n() const override { return kGemmN; }

  void cycle_counters_begin() override { totals_.begin(ctx_->engine(), single_->engine()); }
  void cycle_counters_end(double wall_s, int jobs) override {
    totals_.end(ctx_->engine(), single_->engine(), wall_s, jobs);
  }

  void run_checks(int& attempted, int& failed) override {
    const double single = modeled_makespan(pdl::discovery::paper_platform_single());
    modeled_starpu_ = single / modeled_makespan(pdl::discovery::paper_platform_starpu_cpu());
    modeled_2gpu_ = single / modeled_makespan(pdl::discovery::paper_platform_starpu_2gpu());
    ++attempted;
    std::string why;
    if (!check_fig5_shape(modeled_starpu_, modeled_2gpu_, &why)) {
      std::fprintf(stderr, "perfbench: %s\n", why.c_str());
      ++failed;
    }
  }

  void layer_metrics(Metrics& out) override {
    totals_.report(out);
    const double gemm = gemm_band_gflops();
    const double peak = measure_peak_gflops();
    out["kernels.gemm_gflops"] = {gemm, "GFLOP/s"};
    out["kernels.peak_gflops"] = {peak, "GFLOP/s"};
    out["kernels.gemm_peak_fraction"] = {peak > 0 ? gemm / peak : 0.0, "ratio"};
    out["starvm.modeled_speedup.starpu"] = {modeled_starpu_, "ratio"};
    out["starvm.modeled_speedup.starpu_2gpu"] = {modeled_2gpu_, "ratio"};
  }

 private:
  cascabel::rt::Context& context(bool single) { return single ? *single_ : *ctx_; }

  /// The paper point on the engine's virtual clock (pure simulation: the
  /// buffers are never touched, so they stay unallocated pages).
  static double modeled_makespan(const pdl::Platform& platform) {
    const std::size_t n = kModeledN;
    std::unique_ptr<double[]> a(new double[n * n]);
    std::unique_ptr<double[]> b(new double[n * n]);
    std::unique_ptr<double[]> c(new double[n * n]);
    cascabel::TaskRepository repository = translate_case_study(platform).repository;
    cascabel::rt::Context ctx(platform, std::move(repository),
                              rt_options(starvm::ExecutionMode::kPureSim));
    const auto status = ctx.execute(
        "Idgemm", "all",
        {cascabel::rt::arg_matrix(c.get(), n, n, cascabel::AccessMode::kReadWrite,
                                  cascabel::DistributionKind::kBlock),
         cascabel::rt::arg_matrix(a.get(), n, n, cascabel::AccessMode::kRead,
                                  cascabel::DistributionKind::kBlock),
         cascabel::rt::arg_matrix(b.get(), n, n, cascabel::AccessMode::kRead,
                                  cascabel::DistributionKind::kNone)});
    if (!status.ok() || !ctx.wait().ok()) fail("modeled Fig. 5 run failed");
    return ctx.stats().makespan_seconds;
  }

  /// One single-threaded call of the CPU Idgemm variant the runtime ran
  /// (read back from the perf model it calibrated) on one row band.
  double gemm_band_gflops() {
    std::string variant;
    const auto* candidates = ctx_->selection().candidates("Idgemm");
    for (const auto& sample : ctx_->engine().perf_model().snapshot()) {
      if (sample.count == 0 || candidates == nullptr) continue;
      for (const auto& candidate : *candidates) {
        if (candidate.device_kind == starvm::DeviceKind::kCpu &&
            candidate.variant->pragma.variant_name == sample.codelet) {
          variant = sample.codelet;
        }
      }
    }
    cascabel::TaskRepository repository = cascabel::TaskRepository::with_defaults();
    cascabel::register_builtin_variants(repository);
    const cascabel::BoundImpl* impl = repository.bound(variant);
    if (impl == nullptr || !impl->fn) {
      std::fprintf(stderr, "perfbench: selected Idgemm variant not found\n");
      return 0.0;
    }
    const std::size_t n = kGemmN;
    const std::size_t rows =
        n / (static_cast<std::size_t>(ctx_->options().blocks_per_device) *
             static_cast<std::size_t>(devices()));
    std::vector<double> c(rows * n, 0.0);
    starvm::Engine engine(starvm::EngineConfig::cpus(1));
    const std::vector<starvm::BufferView> views = {
        {engine.register_matrix(c.data(), rows, n), starvm::Access::kReadWrite},
        {engine.register_matrix(a_.data(), rows, n), starvm::Access::kRead},
        {engine.register_matrix(b_.data(), n, n), starvm::Access::kRead}};
    starvm::ExecContext exec;
    exec.buffers = &views;
    std::vector<double> rates;
    for (int rep = 0; rep < 7; ++rep) {
      std::fill(c.begin(), c.end(), 0.0);
      const Clock::time_point start = Clock::now();
      impl->fn(exec);
      rates.push_back(2.0 * static_cast<double>(rows * n * n) / seconds_since(start) /
                      1e9);
    }
    return median(rates);
  }

  std::vector<double> a_, b_, c_, probe_;
  std::unique_ptr<cascabel::rt::Context> ctx_;
  std::unique_ptr<cascabel::rt::Context> single_;
  CounterTotals totals_;
  double modeled_starpu_ = 0.0;
  double modeled_2gpu_ = 0.0;
};

// --- cholesky_dag -----------------------------------------------------------

class CholeskyDag final : public Workload {
 public:
  void make_inputs(std::uint64_t seed, const std::string&) override {
    Rng rng(seed);
    original_ = random_spd(kCholeskyN, rng);
    a_ = original_;
    probe_ = random_probe(kCholeskyN, rng);
  }

  void teardown() override { engine_.reset(); }

  void setup() override {
    const pdl::Platform platform = discover_parse_validate();
    {
      Span span("starvm.engine");
      engine_ = std::make_unique<starvm::Engine>(engine_config(platform));
    }
    if (engine_->stats().perf_store_entries != 0) fail("a perf store was loaded");
  }

  // The single-PDL engine is rebuilt every cycle like the main one: an
  // engine keeps a record per completed task, so one engine over a whole
  // run would grow without bound (README.md "Set-up lifetime").
  bool start_cycle(bool) override {
    single_.reset();
    single_ = std::make_unique<starvm::Engine>(
        engine_config(pdl::discovery::paper_platform_single()));
    return true;
  }

  void prepare(bool) override { std::copy(original_.begin(), original_.end(), a_.begin()); }

  bool run(bool single, std::string* why) override {
    Span span("solvers.tiled_cholesky");
    auto result = solvers::tiled_cholesky(single ? *single_ : *engine_, a_.data(),
                                          kCholeskyN, kCholeskyTiles);
    if (!result.ok()) {
      *why = result.error().str();
      return false;
    }
    return true;
  }

  bool check(bool, std::string* why) override {
    return check_cholesky(kCholeskyN, original_.data(), a_.data(), probe_, why);
  }

  int block_jobs() const override { return 20; }
  int devices() const override { return static_cast<int>(engine_->device_count()); }
  // The factored matrix is 8 MB.
  std::size_t probe_matrix_n() const override { return kCholeskyN; }

  void cycle_counters_begin() override { totals_.begin(*engine_, *single_); }
  void cycle_counters_end(double wall_s, int jobs) override {
    totals_.end(*engine_, *single_, wall_s, jobs);
  }

  void layer_metrics(Metrics& out) override {
    totals_.report(out);
    out["kernels.peak_gflops"] = {measure_peak_gflops(), "GFLOP/s"};
    out["kernels.tile_gflops"] = {tile_replay_gflops(), "GFLOP/s"};
  }

 private:
  /// The tile kernel calls of one job, replayed serially in the solver's
  /// submission order on this thread.
  double tile_replay_gflops() {
    const std::size_t n = kCholeskyN;
    const auto tiles = static_cast<std::size_t>(kCholeskyTiles);
    const std::size_t t = n / tiles;
    std::vector<double> m(original_);
    const auto at = [&](std::size_t r, std::size_t c) { return m.data() + r * t * n + c * t; };
    std::vector<double> rates;
    for (int rep = 0; rep < 3; ++rep) {
      std::copy(original_.begin(), original_.end(), m.begin());
      double flops = 0.0;
      const Clock::time_point start = Clock::now();
      for (std::size_t k = 0; k < tiles; ++k) {
        if (!kernels::potrf(t, at(k, k), n)) fail("tile replay: matrix not SPD");
        flops += kernels::potrf_flops(t);
        for (std::size_t i = k + 1; i < tiles; ++i) {
          kernels::trsm_rlt_simd(t, t, at(k, k), n, at(i, k), n);
          flops += kernels::trsm_flops(t, t);
        }
        for (std::size_t i = k + 1; i < tiles; ++i) {
          kernels::syrk_ln_simd(t, t, at(i, k), n, at(i, i), n);
          flops += kernels::syrk_flops(t, t);
          for (std::size_t j = k + 1; j < i; ++j) {
            kernels::gemm_nt_minus(t, t, t, at(i, k), n, at(j, k), n, at(i, j), n);
            flops += kernels::gemm_flops_nt(t, t, t);
          }
        }
      }
      rates.push_back(flops / seconds_since(start) / 1e9);
    }
    std::string why;
    if (!check_cholesky(n, original_.data(), m.data(), probe_, &why)) {
      fail("tile replay: " + why);
    }
    return median(rates);
  }

  std::vector<double> original_, a_, probe_;
  std::unique_ptr<starvm::Engine> engine_;
  std::unique_ptr<starvm::Engine> single_;
  CounterTotals totals_;
};

// --- pdlcheck_plan ----------------------------------------------------------

class PdlcheckPlan final : public Workload {
 public:
  void make_inputs(std::uint64_t seed, const std::string& out_dir) override {
    Rng rng(seed);
    GraphInput graph = random_plan_graph(kPlanTasks, rng);
    graph_path_ = out_dir + "/plan-" + std::to_string(seed) + ".graph";
    std::ofstream file(graph_path_);
    file << graph.text;
    if (!file) fail("cannot write " + graph_path_);
    // The platforms and the graph's bulk lanes are built to fire nothing,
    // so the planted hazards are the whole verdict on either platform.
    expected_ = graph.planted;
  }

  // What pdlcheck does before analysing: read its inputs from disk.
  void setup() override {
    platform_text_ = read("platforms/testbed-starpu-2gpu.pdl.xml");
    single_text_ = read("platforms/testbed-single.pdl.xml");
    graph_text_ = read(graph_path_);
  }

  bool start_cycle(bool first) override { return first; }

  void prepare(bool) override {}

  bool run(bool single, std::string* why) override {
    const std::string& text = single ? single_text_ : platform_text_;
    const char* name = single ? "testbed-single.pdl.xml" : "testbed-starpu-2gpu.pdl.xml";
    const analysis::AnalysisOptions options;
    pdl::Diagnostics diags;
    if (!traced_xml_ok(text)) return fail_job(why, "platform is not XML");
    pdl::util::Result<pdl::Platform> platform = [&] {
      Span span("pdl.parse");
      return pdl::parse_platform(text, diags, name);
    }();
    if (!platform.ok()) return fail_job(why, "platform parse: " + platform.error().str());
    {
      Span span("pdl.validate");
      pdl::validate(platform.value(), diags);
      pdl::builtin_registry().validate_properties(platform.value(), diags);
    }
    {
      Span span("analysis.rules");
      analysis::analyze_platform(platform.value(), options, diags);
    }
    if (!traced_scan_ok()) return fail_job(why, "case-study source does not scan");
    {
      Span span("cascabel.translate");
      auto translation =
          cascabel::translate(kCaseStudySource, kCaseStudyName, platform.value());
      if (!translation.ok() || translation.value().output_source.empty()) {
        return fail_job(why, "translation failed");
      }
    }
    pdl::util::Result<starvm::TaskGraph> graph = [&] {
      Span span("analysis.graph_parse");
      return analysis::parse_graph_text(graph_text_, "plan.graph");
    }();
    if (!graph.ok()) return fail_job(why, "graph parse: " + graph.error().str());
    if (graph.value().tasks().size() != static_cast<std::size_t>(kPlanTasks)) {
      return fail_job(why, "graph task count differs from the generated one");
    }
    {
      Span span("analysis.rules");
      analysis::analyze_task_graph(graph.value(), options, diags);
    }
    {
      Span span("analysis.accuracy");
      analysis::analyze_accuracy(graph.value(), options, diags,
                                 analysis::accuracy_epsilon_floor(platform.value()));
    }
    const analysis::SchedulePlan plan = [&] {
      Span span("analysis.simulate");
      return analysis::simulate_schedule(graph.value(), platform.value());
    }();
    {
      Span span("analysis.rules");
      analysis::analyze_schedule_plan(plan, graph.value(), options, diags);
    }
    {
      Span span("analysis.render");
      pdl::normalize(diags);
      sarif_ = analysis::render_sarif(diags);
    }
    findings_.clear();
    for (const pdl::Diagnostic& d : diags) {
      if (!d.rule.empty()) ++findings_[d.rule];
    }
    if (!single) {
      main_findings_ = 0;
      for (const auto& [rule, count] : findings_) main_findings_ += count;
    }
    return true;
  }

  bool check(bool, std::string* why) override {
    if (!check_findings(expected_, findings_, why)) {
      return false;
    }
    if (sarif_rule_ids(sarif_) != findings_) {
      *why = "SARIF results do not carry the verdict's rule ids";
      return false;
    }
    return true;
  }

  int block_jobs() const override { return 10; }
  int devices() const override { return 0; }
  // A verdict walks a 2,000-task graph, far less memory than the other
  // workloads' 8 MB matrices. A probe over 1 MB tracked this workload
  // through the host's slow phases, one over 8 MB did not (README.md
  // "Host probe").
  std::size_t probe_matrix_n() const override { return 362; }

  void layer_metrics(Metrics& out) override {
    out["analysis.findings"] = {static_cast<double>(main_findings_), "count"};
    out["kernels.peak_gflops"] = {measure_peak_gflops(), "GFLOP/s"};
  }

 private:
  static bool fail_job(std::string* why, std::string message) {
    *why = std::move(message);
    return false;
  }

  static std::string read(const std::string& path) {
    Span span("util.read_file");
    auto text = pdl::util::read_file(path);
    if (!text) fail("cannot read " + path + " (run from the repository root)");
    return std::move(*text);
  }

  std::string graph_path_;
  std::string platform_text_, single_text_, graph_text_;
  std::map<std::string, int> expected_, findings_;
  std::string sarif_;
  int main_findings_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_workload(const std::string& name) {
  if (name == "fig5_dgemm") return std::make_unique<Fig5Dgemm>();
  if (name == "cholesky_dag") return std::make_unique<CholeskyDag>();
  if (name == "pdlcheck_plan") return std::make_unique<PdlcheckPlan>();
  return nullptr;
}

int host_nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  return std::max(1, CPU_COUNT(&set));
}

double heap_in_use_kb() {
  const struct mallinfo2 info = mallinfo2();
  return static_cast<double>(info.uordblks + info.hblkhd) / 1024.0;
}

}  // namespace perfbench
