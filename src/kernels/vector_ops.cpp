#include "kernels/vector_ops.hpp"

#include <cmath>

namespace kernels {

void vector_add(double* a, const double* b, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) a[i] += b[i];
}

void daxpy(std::size_t n, double alpha, const double* x, double* y) {
  for (std::size_t i = 0; i < n; ++i) y[i] += alpha * x[i];
}

double ddot(std::size_t n, const double* x, const double* y) {
  double sum = 0.0;
  for (std::size_t i = 0; i < n; ++i) sum += x[i] * y[i];
  return sum;
}

double dnrm2(std::size_t n, const double* x) { return std::sqrt(ddot(n, x, x)); }

}  // namespace kernels
