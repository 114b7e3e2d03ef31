#include "peak.hpp"

#include <algorithm>
#include <chrono>

namespace perfbench {

namespace {

// The widest vector the kernels' flags let the compiler use.
#if defined(__AVX512F__)
constexpr int kVectorBytes = 64;
#elif defined(__AVX__)
constexpr int kVectorBytes = 32;
#else
constexpr int kVectorBytes = 16;
#endif
typedef double Vec __attribute__((vector_size(kVectorBytes)));
constexpr int kLanes = kVectorBytes / static_cast<int>(sizeof(double));
// Enough independent chains to cover the multiply-add latency on two ports.
constexpr int kChains = 8;

}  // namespace

double measure_peak_gflops() {
  volatile double mul_in = 0.999999;
  volatile double add_in = 1e-6;
  const double mul = mul_in;
  const double add = add_in;
  constexpr long kIterations = 4'000'000;
  double best = 0.0;
  double sink = 0.0;
  for (int rep = 0; rep < 5; ++rep) {
    Vec acc[kChains];
    for (int k = 0; k < kChains; ++k) acc[k] = Vec{} + (1.0 + k);
    const auto start = std::chrono::steady_clock::now();
    for (long it = 0; it < kIterations; ++it) {
      for (int k = 0; k < kChains; ++k) acc[k] = acc[k] * mul + add;
    }
    const double seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
    for (int k = 0; k < kChains; ++k) sink += acc[k][0];
    const double flops = 2.0 * kChains * kLanes * static_cast<double>(kIterations);
    best = std::max(best, flops / seconds / 1e9);
  }
  volatile double keep = sink;
  (void)keep;
  return best;
}

}  // namespace perfbench
