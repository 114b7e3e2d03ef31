// Shared declarations of the wall-clock benchmark program (README.md).
//
// One caller thread runs one job at a time (closed loop). Every timing is
// taken with std::chrono::steady_clock in this program, except the engine's
// own per-kernel busy time behind starvm.busy_ratio; values from the
// engine's virtual clock only ever appear under metric names containing
// "modeled".
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Median (mean of the middle two for an even count); 0 when empty.
double median(std::vector<double> v);

// --- Seeded inputs (inputs.cpp) -----------------------------------------------

/// splitmix64: the same seed gives the same stream on every platform.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next();
  /// Uniform in [lo, hi).
  double uniform(double lo, double hi);
  /// Uniform integer in [lo, hi].
  int range(int lo, int hi);

 private:
  std::uint64_t state_;
};

/// Row-major n x n matrix with entries uniform in [-1, 1).
std::vector<double> random_matrix(std::size_t n, Rng& rng);
/// Symmetric, strictly diagonally dominant (hence SPD) n x n matrix.
std::vector<double> random_spd(std::size_t n, Rng& rng);
/// Vector with entries uniform in [0.5, 1.5): no entry can hide an error.
std::vector<double> random_probe(std::size_t n, Rng& rng);

/// The seeded task-graph text of the pdlcheck_plan workload (graph_io
/// format, `tasks` tasks in total) and the rule ids it must produce.
struct GraphInput {
  std::string text;
  /// Rule ids the planted hazards fire, independent of the seed.
  std::map<std::string, int> planted;
};
GraphInput random_plan_graph(int tasks, Rng& rng);

// --- Output checks (checks.cpp) -----------------------------------------------
// None of them calls into the code under test.

/// Freivalds: C·x against A·(B·x), with a rounding-error budget per row.
bool check_gemm(std::size_t n, const double* a, const double* b, const double* c,
                const std::vector<double>& x, std::string* why);
/// L·(Lᵀ·x) against A·x, where L is the lower triangle of `l`.
bool check_cholesky(std::size_t n, const double* a, const double* l,
                    const std::vector<double>& x, std::string* why);
/// Rule-id multisets must be equal.
bool check_findings(const std::map<std::string, int>& expected,
                    const std::map<std::string, int>& actual, std::string* why);
/// Count of `"ruleId":"<id>"` occurrences per id in rendered SARIF.
std::map<std::string, int> sarif_rule_ids(const std::string& sarif);
/// Fig. 5 shape: 1 < speedup(starpu) <= 8 < speedup(starpu+2gpu).
bool check_fig5_shape(double starpu, double starpu_2gpu, std::string* why);
/// Feeds every check a corrupted result; true when each one rejects it.
bool self_test(std::string* why);

// --- Spans (spans.cpp) ----------------------------------------------------------

struct SpanRecord {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;  ///< index into the log; -1 = root
  int job = 0;      ///< job id; set-up repetitions use negative ids
};

/// In-memory span log of the benchmark's own layer boundaries; written
/// out once, at exit. Single-threaded: only the caller thread records.
class SpanLog {
 public:
  void set_enabled(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }
  void set_job(int job) { job_ = job; }
  int begin(const char* name);
  void end(int index);
  /// Per span name: the median over jobs of the per-job sum of self time
  /// (duration minus the time covered by direct children), in ms.
  std::map<std::string, double> median_self_ms() const;
  /// Median over jobs of (root self time / root duration) for root spans
  /// named `root`: the share of a job no layer span covers.
  double median_root_share(const char* root) const;
  bool write_json(const std::string& path) const;

 private:
  bool enabled_ = false;
  int job_ = 0;
  std::vector<SpanRecord> records_;
  std::vector<int> open_;
};

SpanLog& spans();

/// RAII span at a layer boundary; free when the log is disabled.
class Span {
 public:
  explicit Span(const char* name)
      : index_(spans().enabled() ? spans().begin(name) : -1) {}
  ~Span() {
    if (index_ >= 0) spans().end(index_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  int index_;
};

// --- Workloads (workloads.cpp) --------------------------------------------------

struct Metric {
  double value = 0.0;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

/// One named workload. The runner (main.cpp) owns the loop and the clock;
/// a workload only knows how to set up, run, and check its jobs.
class Workload {
 public:
  virtual ~Workload() = default;

  /// Reference data from the seed (inputs, expected results); untimed.
  /// Generated files go to `out_dir`.
  virtual void make_inputs(std::uint64_t seed, const std::string& out_dir) = 0;
  /// One full set-up, timed as setup_s. Every cycle of jobs starts with a
  /// few; the last one is what the cycle's jobs run on.
  virtual void setup() = 0;
  /// Drops what setup() built, untimed, before the next set-up.
  virtual void teardown() {}
  /// Called after a cycle's set-ups, untimed: builds the single-PDL
  /// baseline. True when the runner must warm both up before timing.
  virtual bool start_cycle(bool first) = 0;
  /// Untimed preparation of the next job (restore mutated inputs).
  virtual void prepare(bool single) = 0;
  /// The timed job; false when the program reported a failure.
  virtual bool run(bool single, std::string* why) = 0;
  /// Untimed check of the job's output against the reference.
  virtual bool check(bool single, std::string* why) = 0;

  /// Main jobs per block; a cycle is two blocks (untraced, then traced in
  /// a traced run), so twice this is the lifetime of a set-up.
  virtual int block_jobs() const = 0;
  /// Device count of the engine the main jobs run on; 0 when they run none.
  virtual int devices() const = 0;
  /// Side of the host probe's matrix (probe.hpp), so that the probe reads
  /// about as much memory as a job does.
  virtual std::size_t probe_matrix_n() const = 0;
  /// Engine counters over the current cycle (traced runs only).
  virtual void cycle_counters_begin() {}
  virtual void cycle_counters_end(double main_job_wall_s, int main_jobs) {
    (void)main_job_wall_s;
    (void)main_jobs;
  }
  /// Checks made once per run besides the jobs (the Fig. 5 shape). Each
  /// adds one attempt, and one failure when it does not hold.
  virtual void run_checks(int& attempted, int& failed) {
    (void)attempted;
    (void)failed;
  }
  /// Per-layer metrics that need probes of their own (traced runs only).
  virtual void layer_metrics(Metrics& out) = 0;
};

std::unique_ptr<Workload> make_workload(const std::string& name);

/// CPUs this process may run on (what `nproc` prints).
int host_nproc();

/// Bytes the allocator has handed out and not taken back, in kB.
double heap_in_use_kb();

}  // namespace perfbench
