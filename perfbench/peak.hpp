#pragma once

namespace perfbench {

/// Measured per-core multiply-add peak of this host in GFLOP/s: the best
/// of several timed runs of independent vector multiply-add chains, built
/// with the dense kernels' compile flags (CMakeLists.txt).
double measure_peak_gflops();

}  // namespace perfbench
