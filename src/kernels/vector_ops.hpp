// Vector kernels for the paper's Listing 3/4 vecadd example and tests.
#pragma once

#include <cstddef>

namespace kernels {

/// A[i] += B[i] — exactly the paper's annotated vectoradd(double*, double*)
/// task (A is readwrite, B is read).
void vector_add(double* a, const double* b, std::size_t n);

/// y[i] += alpha * x[i].
void daxpy(std::size_t n, double alpha, const double* x, double* y);

/// Dot product.
double ddot(std::size_t n, const double* x, const double* y);

/// Euclidean norm.
double dnrm2(std::size_t n, const double* x);

}  // namespace kernels
