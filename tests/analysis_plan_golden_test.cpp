// Golden tests for the two task-graph passes.
//
// PlanGolden: every shipped platform and every fixture platform, crossed
// with every fixture task graph, must give the committed plan summary and
// A5xx findings byte for byte. Refactors of how the simulator reads the
// platform are judged against this file.
//
// HazardGolden: every fixture task graph and one seeded in-test graph,
// analyzed in strict and --relaxed mode, must give the committed A401-A405
// findings byte for byte. Changes to how task ordering is computed are
// judged against this file.
//
// Regenerate (only for an intended behaviour change) with
//   PDL_UPDATE_GOLDEN=1 ./test_analysis --gtest_filter='*Golden.*'
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include "analysis/analyzer.hpp"
#include "analysis/capacity.hpp"
#include "analysis/graph_io.hpp"
#include "analysis/report.hpp"
#include "analysis/schedule_sim.hpp"
#include "pdl/parser.hpp"
#include "util/string_util.hpp"

namespace analysis {
namespace {

namespace fs = std::filesystem;

const std::string kRoot = std::string(PDL_SOURCE_DIR) + "/";

/// Files in `dir` (relative to the source root) ending in `suffix`, as
/// root-relative paths in sorted order.
std::vector<std::string> files_with_suffix(const std::string& dir,
                                           const std::string& suffix) {
  std::vector<std::string> out;
  for (const fs::directory_entry& entry : fs::directory_iterator(kRoot + dir)) {
    const std::string name = entry.path().filename().string();
    if (name.size() > suffix.size() &&
        name.compare(name.size() - suffix.size(), suffix.size(), suffix) == 0) {
      out.push_back(dir + "/" + name);
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

/// Diagnostics text with the source root stripped from every location.
std::string relative(std::string text) {
  for (std::size_t at = text.find(kRoot); at != std::string::npos;
       at = text.find(kRoot, at)) {
    text.erase(at, kRoot.size());
  }
  return text;
}

/// Compare `actual` with the golden file `name` under tests/fixtures, or
/// rewrite the file when PDL_UPDATE_GOLDEN is set.
void expect_golden(const std::string& name, const std::string& actual) {
  const std::string golden_path = kRoot + "tests/fixtures/" + name;
  if (std::getenv("PDL_UPDATE_GOLDEN") != nullptr) {
    ASSERT_TRUE(pdl::util::write_file(golden_path, actual));
  }
  const std::string expected = pdl::util::read_file(golden_path).value_or("");
  EXPECT_EQ(actual, expected);
}

TEST(PlanGolden, EveryPlatformTimesEveryGraph) {
  std::vector<std::string> platforms = files_with_suffix("platforms", ".pdl.xml");
  for (const std::string& p : files_with_suffix("tests/fixtures", ".pdl.xml")) {
    platforms.push_back(p);
  }
  const std::vector<std::string> graphs =
      files_with_suffix("tests/fixtures", ".graph");
  ASSERT_FALSE(platforms.empty());
  ASSERT_FALSE(graphs.empty());

  std::string actual;
  for (const std::string& platform_path : platforms) {
    pdl::Diagnostics parse_diags;
    auto platform = pdl::parse_platform_file(kRoot + platform_path, parse_diags);
    ASSERT_TRUE(platform.ok()) << platform_path;
    for (const std::string& graph_path : graphs) {
      auto graph = load_graph_file(kRoot + graph_path);
      ASSERT_TRUE(graph.ok()) << graph_path;
      pdl::Diagnostics diags;
      const SchedulePlan plan = analyze_schedule(
          graph.value(), platform.value(), AnalysisOptions{}, diags);
      pdl::normalize(diags);
      actual += "== " + graph_path + " on " + platform_path + " ==\n";
      actual += render_plan_text(plan, graph.value());
      actual += relative(render_text(diags));
    }
  }

  expect_golden("plan.golden", actual);
}

/// splitmix64, so the seeded graph is the same with every standard library.
struct SplitMix {
  std::uint64_t state;
  int below(int bound) {
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return static_cast<int>((z ^ (z >> 31)) % static_cast<std::uint64_t>(bound));
  }
};

/// A seeded 333-task pipeline (not a multiple of 64 tasks): 8 lanes of
/// write or read-write tasks, a barrier every 27th task that reads every
/// lane, a partitioned buffer whose parent and blocks are both used, a
/// second registration over part of lane 0, backward and forward `after`
/// deps (one pair forms a cycle), and tasks that name one buffer twice.
starvm::TaskGraph seeded_hazard_graph() {
  constexpr int kTasks = 333;
  constexpr int kLanes = 8;
  SplitMix rng{2011};
  starvm::TaskGraph g;
  std::vector<int> lane;
  for (int k = 0; k < kLanes; ++k) {
    lane.push_back(g.add_buffer("l" + std::to_string(k), 4096));
  }
  const int hub = g.add_buffer("hub", 1024);
  const int part = g.add_buffer("part", 4096);
  const std::vector<int> blocks = g.partition(part, 4);
  const int alias = g.add_buffer_at(
      "l0_alias", g.buffers()[static_cast<std::size_t>(lane[0])].base + 1024,
      1024);

  std::vector<int> last(kLanes, -1);
  std::vector<int> window;  // lane tasks since the last barrier
  int barrier = -1;
  for (int t = 0; t < kTasks; ++t) {
    std::vector<starvm::GraphAccess> accesses;
    std::vector<int> deps;
    if (t % 27 == 26) {
      for (int k = 0; k < kLanes; ++k) {
        accesses.push_back({lane[static_cast<std::size_t>(k)], starvm::Access::kRead});
      }
      accesses.push_back({hub, starvm::Access::kReadWrite});
      // Waits for the tasks since the previous barrier, now and then
      // forgetting one (which then stays unordered with its lane).
      for (const int w : window) {
        if (rng.below(64) != 0) deps.push_back(w);
      }
      window.clear();
      barrier = t;
    } else {
      const int k = rng.below(kLanes);
      const int next = lane[static_cast<std::size_t>((k + 1) % kLanes)];
      accesses.push_back({lane[static_cast<std::size_t>(k)],
                          rng.below(3) == 0 ? starvm::Access::kWrite
                                            : starvm::Access::kReadWrite});
      switch (rng.below(16)) {
        case 0: accesses.push_back({blocks[static_cast<std::size_t>(rng.below(4))],
                                    starvm::Access::kWrite}); break;
        case 1: accesses.push_back({part, starvm::Access::kRead}); break;
        case 2: accesses.push_back({alias, starvm::Access::kWrite}); break;
        case 3:
          accesses.push_back({next, starvm::Access::kRead});
          accesses.push_back({next, starvm::Access::kRead});
          break;
        case 4: accesses.push_back({lane[static_cast<std::size_t>(k)],
                                    starvm::Access::kRead}); break;
        default: break;
      }
      // Follows its lane, the last barrier, or both.
      const bool after_barrier = barrier >= 0 && rng.below(2) == 0;
      if (after_barrier) deps.push_back(barrier);
      if (last[static_cast<std::size_t>(k)] >= 0 &&
          !(after_barrier && rng.below(4) == 0)) {
        deps.push_back(last[static_cast<std::size_t>(k)]);
      }
      if (rng.below(40) == 0) deps.push_back(t + 1 + rng.below(5));
      last[static_cast<std::size_t>(k)] = t;
      window.push_back(t);
    }
    if (t == 200) deps.push_back(203);
    if (t == 203) deps.push_back(200);
    g.add_task("t" + std::to_string(t), std::move(accesses), std::move(deps));
  }
  return g;
}

TEST(HazardGolden, EveryGraphInBothModes) {
  std::vector<std::pair<std::string, starvm::TaskGraph>> graphs;
  for (const std::string& path : files_with_suffix("tests/fixtures", ".graph")) {
    auto graph = load_graph_file(kRoot + path);
    ASSERT_TRUE(graph.ok()) << path;
    graphs.emplace_back(path, std::move(graph).value());
  }
  graphs.emplace_back("seeded 333-task graph", seeded_hazard_graph());

  std::string actual;
  for (const auto& [name, graph] : graphs) {
    for (const bool relaxed : {false, true}) {
      AnalysisOptions options;
      options.relaxed = relaxed;
      pdl::Diagnostics diags;
      analyze_task_graph(graph, options, diags);
      pdl::normalize(diags);
      actual += "== " + name + (relaxed ? " --relaxed" : "") + " ==\n";
      actual += relative(render_text(diags));
    }
  }
  expect_golden("hazards.golden", actual);
}

}  // namespace
}  // namespace analysis
