#pragma once

#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <thread>
#include <vector>

namespace perfbench {

/// A fixed amount of the benchmark's own work, timed on the steady clock:
/// rows of a matrix product against one shared n × n matrix, so it reads
/// about as much memory as the job it is paired with. It calls no code
/// under test, so its time moves only with the host (other tenants' load on
/// the caches and memory, clock speed), and a job time divided by a probe
/// time taken right after it cancels most of that movement.
///
/// Like the engine, it keeps its threads parked between runs and hands out
/// rows as threads free up; the calling thread is one of the threads.
class HostProbe {
 public:
  /// Every run does 4 · 1024² multiply-adds per thread, whatever n is.
  HostProbe(int max_threads, std::size_t n);
  ~HostProbe();
  HostProbe(const HostProbe&) = delete;
  HostProbe& operator=(const HostProbe&) = delete;

  /// Wall time of one probe on `threads` threads (1 to max_threads).
  double run_ms(int threads);

 private:
  void work(std::size_t lane);
  void park(std::size_t lane);

  std::size_t n_;
  int rows_per_thread_;
  std::vector<double> a_, b_;
  std::vector<std::vector<double>> rows_;  ///< one output row per lane
  std::vector<std::thread> threads_;
  std::mutex mutex_;
  std::condition_variable wake_, done_;
  std::uint64_t generation_ = 0;
  int active_ = 0;   ///< lanes taking part in the current run
  int running_ = 0;  ///< parked threads still working on it
  int rows_left_ = 0;
  bool stop_ = false;
};

}  // namespace perfbench
