// Seeded inputs. The program under test receives only what these
// functions generate; the seed comes from the command line.
#include <string>

#include "perfbench.hpp"

namespace perfbench {

std::uint64_t Rng::next() {
  std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

double Rng::uniform(double lo, double hi) {
  const double unit = static_cast<double>(next() >> 11) * 0x1p-53;
  return lo + (hi - lo) * unit;
}

int Rng::range(int lo, int hi) {
  const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
  return lo + static_cast<int>(next() % span);
}

std::vector<double> random_matrix(std::size_t n, Rng& rng) {
  std::vector<double> m(n * n);
  for (double& v : m) v = rng.uniform(-1.0, 1.0);
  return m;
}

std::vector<double> random_spd(std::size_t n, Rng& rng) {
  std::vector<double> m(n * n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j <= i; ++j) {
      const double v = rng.uniform(-1.0, 1.0);
      m[i * n + j] = v;
      m[j * n + i] = v;
    }
    m[i * n + i] = static_cast<double>(n) + rng.uniform(0.0, 1.0);
  }
  return m;
}

std::vector<double> random_probe(std::size_t n, Rng& rng) {
  std::vector<double> x(n);
  for (double& v : x) v = rng.uniform(0.5, 1.5);
  return x;
}

// The graph has two parts.
//
// Planted hazards, one per rule the verdict must report, built so that no
// seed can change whether they fire: a 10-step rounding recurrence into a
// 1e-13 tolerance (A701 + A703, the committed tolerance fixture's shape),
// an unmodeled copy into a tolerance buffer (A702), a tolerance no range
// reaches (A704), and two unordered writers of overlapping buffers (A403).
//
// Bulk load: 16 lanes of rw tasks over 192-320 kB lane buffers, with a
// seeded lane order per round and seeded flops and error models, and a
// barrier task every 4th round that reads every lane (a pipeline with
// periodic reductions). The barriers bound the unordered task pairs the
// A4xx pair scan visits. Every lane task also reads a range-less input, so
// no lane bound is known and no lane fires A703; no lane carries a
// tolerance; and every task computes for far longer than its buffers take
// to cross a PCIe link, so no task is transfer bound. The lanes add
// analysis work but no finding. The shape (lanes, rounds, barrier
// positions) is fixed, so the analysis cost does not depend on the seed.
GraphInput random_plan_graph(int tasks, Rng& rng) {
  constexpr int kLanes = 16;
  constexpr int kPlantedTasks = 15;
  GraphInput out;
  std::string& t = out.text;
  t.reserve(static_cast<std::size_t>(tasks) * 64);
  t += "# pdlcheck_plan workload graph\n";
  for (int k = 0; k < kLanes; ++k) {
    t += "buffer l" + std::to_string(k) + " " +
         std::to_string(rng.range(192, 320)) + "kB\n";
  }
  t += "buffer hub 64kB\nbuffer lin 8kB\n";
  t += "buffer ax 8kB\nbuffer ay 8kB\nbuffer acc 8kB\n";
  t += "range ax 2\nrange ay 2\ntolerance acc 1e-13\n";
  t += "buffer pin 8kB\nbuffer pout 8kB\nrange pin 1\ntolerance pout 1e-3\n";
  t += "buffer vin 8kB\nbuffer vout 8kB\ntolerance vout 1e-3\n";
  // Far above every automatically placed buffer; the two overlap by 32 kB.
  t += "buffer alias_a 64kB 100000000000\n";
  t += "buffer alias_b 64kB 100000032000\n";

  const std::string depth = std::to_string(rng.range(500, 2000));
  t += "task acc_init write=acc model=exact\n";
  for (int s = 0; s < 10; ++s) {
    t += "task acc_s" + std::to_string(s) +
         " rw=acc read=ax read=ay model=rounding depth=" + depth + "\n";
  }
  t += "task p_copy read=pin write=pout\n";
  t += "task v_step read=vin rw=vout model=rounding depth=10\n";
  t += "task alias_w1 write=alias_a\n";
  t += "task alias_w2 write=alias_b\n";
  out.planted = {{"A403-partition-aliasing", 1},
                 {"A701-tolerance-exceeded", 1},
                 {"A702-unmodeled-write", 1},
                 {"A703-accumulation-blowup", 1},
                 {"A704-vacuous-tolerance", 1}};

  static const char* const kModels[] = {"rounding", "rounding32", "exact"};
  int order[kLanes];
  for (int k = 0; k < kLanes; ++k) order[k] = k;
  int id = 0;
  for (int round = 0; id < tasks - kPlantedTasks; ++round) {
    if (round % 4 == 3) {
      t += "task t" + std::to_string(id++);
      for (int k = 0; k < kLanes; ++k) t += " read=l" + std::to_string(k);
      t += " rw=hub flops=2e9 model=exact\n";
      continue;
    }
    for (int k = kLanes - 1; k > 0; --k) {
      const int j = rng.range(0, k);
      const int tmp = order[k];
      order[k] = order[j];
      order[j] = tmp;
    }
    for (int slot = 0; slot < kLanes && id < tasks - kPlantedTasks; ++slot) {
      t += "task t" + std::to_string(id) + " rw=l" + std::to_string(order[slot]) +
           " read=lin";
      t += " flops=" + std::to_string(rng.range(200, 400)) + "e6";
      t += " model=";
      t += kModels[rng.range(0, 2)];
      t += " depth=" + std::to_string(rng.range(16, 256)) + "\n";
      ++id;
    }
  }
  return out;
}

}  // namespace perfbench
