// Output checks written against the definitions, not against the code
// under test: plain loops over the inputs, O(n^2) per check.
#include <cmath>
#include <cstdio>
#include <limits>

#include "perfbench.hpp"

namespace perfbench {

namespace {

constexpr double kEps = std::numeric_limits<double>::epsilon() / 2.0;

/// y = M·x and z = |M|·|x| for a row-major n x n matrix.
void matvec(std::size_t n, const double* m, const std::vector<double>& x,
            std::vector<double>& y, const std::vector<double>& ax,
            std::vector<double>& z) {
  for (std::size_t i = 0; i < n; ++i) {
    double s = 0.0;
    double sa = 0.0;
    const double* row = m + i * n;
    for (std::size_t j = 0; j < n; ++j) {
      s += row[j] * x[j];
      sa += std::fabs(row[j]) * ax[j];
    }
    y[i] = s;
    z[i] = sa;
  }
}

std::vector<double> abs_of(const std::vector<double>& v) {
  std::vector<double> out(v.size());
  for (std::size_t i = 0; i < v.size(); ++i) out[i] = std::fabs(v[i]);
  return out;
}

/// Compare `got` with `want` row by row against a budget of
/// 8·n·eps times the magnitude bound of the row.
bool within_budget(std::size_t n, const std::vector<double>& got,
                   const std::vector<double>& want, const std::vector<double>& scale,
                   const char* what, std::string* why) {
  const double budget = 8.0 * static_cast<double>(n) * kEps;
  for (std::size_t i = 0; i < n; ++i) {
    const double diff = std::fabs(got[i] - want[i]);
    if (!(diff <= budget * scale[i])) {
      char buf[160];
      std::snprintf(buf, sizeof(buf), "%s: row %zu differs by %.3e (budget %.3e)",
                    what, i, diff, budget * scale[i]);
      *why = buf;
      return false;
    }
  }
  return true;
}

}  // namespace

bool check_gemm(std::size_t n, const double* a, const double* b, const double* c,
                const std::vector<double>& x, std::string* why) {
  const std::vector<double> ax = abs_of(x);
  std::vector<double> cx(n), unused(n), bx(n), bx_abs(n), abx(n), scale(n);
  matvec(n, c, x, cx, ax, unused);
  matvec(n, b, x, bx, ax, bx_abs);
  matvec(n, a, bx, abx, bx_abs, scale);
  return within_budget(n, cx, abx, scale, "gemm Freivalds check", why);
}

bool check_cholesky(std::size_t n, const double* a, const double* l,
                    const std::vector<double>& x, std::string* why) {
  // w = Lᵀ·x and v = L·w, reading only the lower triangle of `l`.
  std::vector<double> w(n, 0.0), w_abs(n, 0.0), v(n), scale(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double* row = l + i * n;
    for (std::size_t j = 0; j <= i; ++j) {
      w[j] += row[j] * x[i];
      w_abs[j] += std::fabs(row[j]) * std::fabs(x[i]);
    }
  }
  for (std::size_t i = 0; i < n; ++i) {
    const double* row = l + i * n;
    double s = 0.0;
    double sa = 0.0;
    for (std::size_t j = 0; j <= i; ++j) {
      s += row[j] * w[j];
      sa += std::fabs(row[j]) * w_abs[j];
    }
    v[i] = s;
    scale[i] = sa;
  }
  std::vector<double> axv(n), a_abs(n);
  matvec(n, a, x, axv, abs_of(x), a_abs);
  for (std::size_t i = 0; i < n; ++i) scale[i] += a_abs[i];
  return within_budget(n, v, axv, scale, "cholesky L·Lᵀ·x check", why);
}

bool check_findings(const std::map<std::string, int>& expected,
                    const std::map<std::string, int>& actual, std::string* why) {
  if (expected == actual) return true;
  std::string got;
  for (const auto& [rule, count] : actual) {
    got += " " + rule + "x" + std::to_string(count);
  }
  *why = "rule-id multiset differs from the expected one; got:" + got;
  return false;
}

std::map<std::string, int> sarif_rule_ids(const std::string& sarif) {
  static const std::string kKey = "\"ruleId\":\"";
  std::map<std::string, int> ids;
  for (std::size_t pos = sarif.find(kKey); pos != std::string::npos;
       pos = sarif.find(kKey, pos)) {
    pos += kKey.size();
    const std::size_t end = sarif.find('"', pos);
    if (end == std::string::npos) break;
    ++ids[sarif.substr(pos, end - pos)];
  }
  return ids;
}

bool check_fig5_shape(double starpu, double starpu_2gpu, std::string* why) {
  if (starpu > 1.0 && starpu <= 8.0 && starpu_2gpu > 8.0) return true;
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "modeled Fig. 5 shape broken: starpu %.3f, starpu+2gpu %.3f "
                "(want 1 < starpu <= 8 < starpu+2gpu)",
                starpu, starpu_2gpu);
  *why = buf;
  return false;
}

bool self_test(std::string* why) {
  constexpr std::size_t n = 96;
  Rng rng(12345);
  const std::vector<double> a = random_matrix(n, rng);
  const std::vector<double> b = random_matrix(n, rng);
  const std::vector<double> x = random_probe(n, rng);
  std::vector<double> c(n * n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t k = 0; k < n; ++k) {
      for (std::size_t j = 0; j < n; ++j) c[i * n + j] += a[i * n + k] * b[k * n + j];
    }
  }
  std::string ignored;
  if (!check_gemm(n, a.data(), b.data(), c.data(), x, &ignored)) {
    *why = "self-test: gemm check rejects a correct product: " + ignored;
    return false;
  }
  c[37 * n + 11] += 1e-6;
  if (check_gemm(n, a.data(), b.data(), c.data(), x, &ignored)) {
    *why = "self-test: gemm check accepts a corrupted product";
    return false;
  }

  // A = L·Lᵀ for a known lower-triangular L.
  std::vector<double> l(n * n, 0.0), spd(n * n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < i; ++j) l[i * n + j] = rng.uniform(-1.0, 1.0);
    l[i * n + i] = 4.0 + rng.uniform(0.0, 1.0);
  }
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      double s = 0.0;
      for (std::size_t k = 0; k <= std::min(i, j); ++k) s += l[i * n + k] * l[j * n + k];
      spd[i * n + j] = s;
    }
  }
  if (!check_cholesky(n, spd.data(), l.data(), x, &ignored)) {
    *why = "self-test: cholesky check rejects a correct factor: " + ignored;
    return false;
  }
  l[50 * n + 20] += 1e-6;
  if (check_cholesky(n, spd.data(), l.data(), x, &ignored)) {
    *why = "self-test: cholesky check accepts a corrupted factor";
    return false;
  }

  const std::map<std::string, int> expected = {{"A701-tolerance-exceeded", 1},
                                               {"A703-accumulation-blowup", 1}};
  if (!check_findings(expected, expected, &ignored) ||
      check_findings(expected, {{"A701-tolerance-exceeded", 1}}, &ignored) ||
      check_findings(expected,
                     {{"A701-tolerance-exceeded", 2}, {"A703-accumulation-blowup", 1}},
                     &ignored)) {
    *why = "self-test: findings check does not compare multisets";
    return false;
  }
  const std::map<std::string, int> parsed = sarif_rule_ids(
      R"({"results":[{"ruleId":"A701-tolerance-exceeded"},)"
      R"({"ruleId":"A703-accumulation-blowup"}]})");
  if (parsed != expected) {
    *why = "self-test: SARIF rule-id extraction is wrong";
    return false;
  }

  if (!check_fig5_shape(7.9, 20.0, &ignored) || check_fig5_shape(1.0, 20.0, &ignored) ||
      check_fig5_shape(8.5, 20.0, &ignored) || check_fig5_shape(4.0, 8.0, &ignored)) {
    *why = "self-test: Fig. 5 shape check accepts a wrong shape";
    return false;
  }
  return true;
}

}  // namespace perfbench
