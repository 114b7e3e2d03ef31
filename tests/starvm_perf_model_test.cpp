#include <gtest/gtest.h>

#include "starvm/perf_model.hpp"

namespace starvm {
namespace {

TEST(PerfModel, AnalyticFallbackUsesFlopsAndRate) {
  PerfModel model;
  // 1e9 flops at 10 GFLOPS -> 0.1 s.
  EXPECT_DOUBLE_EQ(PerfModel::estimate_in(model.row("k"), 0, 1e9, 10.0), 0.1);
}

TEST(PerfModel, DefaultEstimateWithoutAnyInformation) {
  PerfModel model;
  const PerfModel::Row& row = model.row("k");
  EXPECT_DOUBLE_EQ(PerfModel::estimate_in(row, 0, 0.0, 10.0), 1e-3);
  EXPECT_DOUBLE_EQ(PerfModel::estimate_in(row, 0, 1e9, 0.0), 1e-3);
  EXPECT_DOUBLE_EQ(PerfModel::default_estimate_seconds(), 1e-3);
  // Out-of-row devices fall back too.
  EXPECT_DOUBLE_EQ(PerfModel::estimate_in(row, PerfModel::kMaxDevices, 0.0, 0.0),
                   1e-3);
}

TEST(PerfModel, HistoryOverridesAnalytic) {
  PerfModel model;
  PerfModel::Row& row = model.row("k");
  PerfModel::observe_in(row, 0, 0.5);
  EXPECT_DOUBLE_EQ(PerfModel::estimate_in(row, 0, 1e9, 10.0), 0.5);
  EXPECT_EQ(row[0].count.load(), 1u);
  EXPECT_EQ(model.history_estimate("k", 0), 0.5);
}

TEST(PerfModel, EmaConvergesTowardRecentObservations) {
  PerfModel model;
  PerfModel::Row& row = model.row("k");
  PerfModel::observe_in(row, 0, 1.0);
  for (int i = 0; i < 50; ++i) PerfModel::observe_in(row, 0, 0.1);
  EXPECT_NEAR(PerfModel::estimate_in(row, 0, 0, 0), 0.1, 0.01);
  EXPECT_EQ(row[0].count.load(), 51u);
}

TEST(PerfModel, HistoriesAreKeyedPerCodeletAndDevice) {
  PerfModel model;
  PerfModel::observe_in(model.row("a"), 0, 0.1);
  PerfModel::observe_in(model.row("a"), 1, 0.2);
  PerfModel::observe_in(model.row("b"), 0, 0.3);
  EXPECT_EQ(&model.row("a"), &model.row("a"));  // stable, created once
  EXPECT_DOUBLE_EQ(PerfModel::estimate_in(model.row("a"), 0, 0, 0), 0.1);
  EXPECT_DOUBLE_EQ(PerfModel::estimate_in(model.row("a"), 1, 0, 0), 0.2);
  EXPECT_DOUBLE_EQ(PerfModel::estimate_in(model.row("b"), 0, 0, 0), 0.3);
  EXPECT_EQ(model.row("b")[1].count.load(), 0u);
  EXPECT_FALSE(model.history_estimate("b", 1).has_value());
  EXPECT_FALSE(model.history_estimate("unseen", 0).has_value());
}

TEST(TransferSeconds, LatencyPlusBandwidth) {
  // 1 GB over 1 GB/s with 0 latency: 1 s.
  EXPECT_NEAR(transfer_seconds(1'000'000'000, 1.0, 0.0), 1.0, 1e-9);
  // Latency dominates tiny messages.
  EXPECT_NEAR(transfer_seconds(8, 10.0, 100.0), 1e-4, 1e-6);
  // Degenerate bandwidth: only latency.
  EXPECT_DOUBLE_EQ(transfer_seconds(1024, 0.0, 5.0), 5e-6);
}

}  // namespace
}  // namespace starvm
