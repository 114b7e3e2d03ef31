#include "probe.hpp"

#include <algorithm>
#include <stdexcept>

#include "perfbench.hpp"

namespace perfbench {

namespace {

// Rows of A the probe cycles through; each row reads all of B.
constexpr std::size_t kARows = 64;

}  // namespace

HostProbe::HostProbe(int max_threads, std::size_t n)
    : n_(n), rows_per_thread_(static_cast<int>(4 * (1024 * 1024) / (n * n))) {
  Rng rng(0x5eed);
  const auto lanes = static_cast<std::size_t>(std::max(1, max_threads));
  a_ = random_matrix(n_, rng);
  a_.resize(std::min(n_, kARows) * n_);
  b_ = random_matrix(n_, rng);
  rows_.assign(lanes, std::vector<double>(n_, 0.0));
  for (std::size_t lane = 1; lane < lanes; ++lane) {
    threads_.emplace_back([this, lane] { park(lane); });
  }
}

HostProbe::~HostProbe() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  wake_.notify_all();
  for (std::thread& thread : threads_) thread.join();
}

void HostProbe::work(std::size_t lane) {
  std::vector<double>& c = rows_[lane];
  for (;;) {
    std::size_t i = 0;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (rows_left_ == 0) return;
      i = static_cast<std::size_t>(--rows_left_) % (a_.size() / n_);
    }
    // c += A(i, :) · B, streaming all of B once.
    const double* a = &a_[i * n_];
    for (std::size_t k = 0; k < n_; ++k) {
      const double aik = a[k];
      const double* b = &b_[k * n_];
      for (std::size_t j = 0; j < n_; ++j) c[j] += aik * b[j];
    }
    // Keeps the row bounded and live.
    c[i] *= 0.5;
  }
}

void HostProbe::park(std::size_t lane) {
  std::uint64_t seen = 0;
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(mutex_);
      wake_.wait(lock, [&] { return stop_ || generation_ != seen; });
      if (stop_) return;
      seen = generation_;
      if (lane >= static_cast<std::size_t>(active_)) continue;
    }
    work(lane);
    std::lock_guard<std::mutex> lock(mutex_);
    if (--running_ == 0) done_.notify_one();
  }
}

double HostProbe::run_ms(int threads) {
  if (threads < 1 || static_cast<std::size_t>(threads) > rows_.size()) {
    throw std::invalid_argument("probe thread count");
  }
  const Clock::time_point start = Clock::now();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    active_ = threads;
    running_ = threads - 1;
    rows_left_ = rows_per_thread_ * threads;
    ++generation_;
  }
  if (threads > 1) wake_.notify_all();
  work(0);
  std::unique_lock<std::mutex> lock(mutex_);
  done_.wait(lock, [&] { return running_ == 0; });
  return seconds_since(start) * 1e3;
}

}  // namespace perfbench
