// Golden test for the A5xx schedule simulator: every shipped platform and
// every fixture platform, crossed with every fixture task graph, must give
// the committed plan summary and A5xx findings byte for byte. Refactors of
// how the simulator reads the platform are judged against this file.
//
// Regenerate (only for an intended behaviour change) with
//   PDL_UPDATE_GOLDEN=1 ./test_analysis --gtest_filter='PlanGolden.*'
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

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
    auto platform = pdl::parse_platform_file(kRoot + platform_path);
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

  const std::string golden_path = kRoot + "tests/fixtures/plan.golden";
  if (std::getenv("PDL_UPDATE_GOLDEN") != nullptr) {
    ASSERT_TRUE(pdl::util::write_file(golden_path, actual));
  }
  const std::string expected = pdl::util::read_file(golden_path).value_or("");
  EXPECT_EQ(actual, expected);
}

}  // namespace
}  // namespace analysis
