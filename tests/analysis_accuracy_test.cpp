// Tests for the A7xx numerical-accuracy analysis (analysis/accuracy):
// forward error-bound propagation over task graphs, the four rules
// (A701 tolerance exceeded, A702 unmodeled write, A703 accumulation
// blow-up, A704 vacuous tolerance), the ACCURACY epsilon floor, and the
// graph_io accuracy directives (`tolerance`, `range`, `model=` et al.) —
// including the committed tolerance.graph / fp32-testbed.pdl.xml pair.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <string_view>

#include "analysis/accuracy.hpp"
#include "analysis/graph_io.hpp"
#include "analysis/report.hpp"
#include "analysis/rules.hpp"
#include "analysis/sarif.hpp"
#include "pdl/parser.hpp"
#include "starvm/types.hpp"

namespace analysis {
namespace {

const pdl::Diagnostic* find_finding(const pdl::Diagnostics& diags,
                                    std::string_view rule,
                                    std::string_view message_part = "") {
  for (const auto& d : diags) {
    if (d.rule == rule &&
        (message_part.empty() ||
         d.message.find(message_part) != std::string::npos)) {
      return &d;
    }
  }
  return nullptr;
}

std::size_t count_rule(const pdl::Diagnostics& diags, std::string_view rule) {
  std::size_t n = 0;
  for (const auto& d : diags) n += d.rule == rule ? 1 : 0;
  return n;
}

starvm::TaskGraph parse(const std::string& text) {
  auto graph = parse_graph_text(text, "t.graph");
  EXPECT_TRUE(graph.ok()) << (graph.ok() ? "" : graph.error().str());
  return std::move(graph).value();
}

pdl::Diagnostics analyze(const starvm::TaskGraph& graph,
                         double epsilon_floor = 0.0) {
  pdl::Diagnostics diags;
  analyze_accuracy(graph, {}, diags, epsilon_floor);
  pdl::normalize(diags);
  return diags;
}

constexpr double kUlp = 0x1p-53;  // starvm::ErrorModel::kUlpDouble

// --- Propagation math ---------------------------------------------------------

TEST(AnalyzeAccuracy, SingleGemmBoundIsCoeffDepthMagnitudeEps) {
  // c = a*b with |a|,|b| <= 2, depth 100, model 2*k*|a||b|*ulp: the bound is
  // 2*100*4*2^-53, far under a 1e-10 tolerance. No findings at all.
  const starvm::TaskGraph g = parse(R"(buffer a 1kB
buffer b 1kB
buffer c 1kB
range a 2
range b 2
tolerance c 1e-10
task gemm read=a read=b write=c model=rounding coeff=2 depth=100
)");
  EXPECT_TRUE(analyze(g).empty());
}

TEST(AnalyzeAccuracy, A701_FiresWhenBoundExceedsTolerance) {
  const starvm::TaskGraph g = parse(R"(buffer a 1kB
buffer b 1kB
buffer c 1kB
range a 2
range b 2
tolerance c 1e-14
task gemm read=a read=b write=c model=rounding coeff=2 depth=1000
)");
  const pdl::Diagnostics diags = analyze(g);
  const pdl::Diagnostic* d =
      find_finding(diags, kToleranceExceeded, "exceeds its declared tolerance");
  ASSERT_NE(d, nullptr) << render_text(diags);
  EXPECT_EQ(d->severity, pdl::Severity::kError);
  // Bound = 2 * 1000 * (2*2) * 2^-53 ~ 8.9e-13 > 1e-14; the finding points
  // at the tolerance declaration and names the buffer.
  EXPECT_NE(d->message.find("8.88e-13"), std::string::npos) << d->message;
  EXPECT_EQ(d->loc.file, "t.graph");
  EXPECT_EQ(d->loc.line, 6);
  EXPECT_EQ(d->where, "c");
}

TEST(AnalyzeAccuracy, ErrorAmplifiesThroughDownstreamMagnitudes) {
  // e1 = a*b (depth 10), then out = e1*c (depth 10, |c| <= 3): the first
  // stage's error is amplified by depth*|c| = 30 in stage two, plus stage
  // two's own term. Checked against the closed form below.
  const starvm::TaskGraph g = parse(R"(buffer a 1kB
buffer b 1kB
buffer c 1kB
buffer e1 1kB
buffer out 1kB
range a 2
range b 2
range c 3
tolerance out 1e-30
task s1 read=a read=b write=e1 model=rounding coeff=1 depth=10
task s2 read=e1 read=c write=out model=rounding coeff=1 depth=10
)");
  const pdl::Diagnostics diags = analyze(g);
  const pdl::Diagnostic* d = find_finding(diags, kToleranceExceeded);
  ASSERT_NE(d, nullptr) << render_text(diags);
  const double e1_err = 10.0 * 4.0 * kUlp;        // own term of s1
  const double e1_mag = 10.0 * 4.0;               // depth * |a||b|
  const double amplified = e1_err * 10.0 * 3.0;   // E_e1 * depth * |c|
  const double own2 = 10.0 * e1_mag * 3.0 * kUlp; // s2's own rounding
  char expect[64];
  std::snprintf(expect, sizeof(expect), "%.3g", amplified + own2);
  EXPECT_NE(d->message.find(expect), std::string::npos)
      << d->message << " want " << expect;
}

TEST(AnalyzeAccuracy, ExactModelsPropagateZeroEvenWithoutRanges) {
  // A copy chain of exact tasks introduces no error: the tolerance holds
  // even though no range was declared anywhere (zero error needs no
  // magnitude to stay zero).
  const starvm::TaskGraph g = parse(R"(buffer a 1kB
buffer b 1kB
buffer c 1kB
tolerance c 1e-30
task gen write=a model=exact
task cp1 read=a write=b model=exact
task cp2 read=b write=c model=exact
)");
  EXPECT_TRUE(analyze(g).empty()) << render_text(analyze(g));
}

TEST(AnalyzeAccuracy, ReadWriteAccumulatesWriteReplaces) {
  // Ten rw= steps accumulate ten step terms; a final write= replaces the
  // bound with just the last stage's contribution, so the tolerance that
  // the accumulated bound violates is satisfied after a rewrite.
  const std::string steps = R"(buffer x 1kB
buffer acc 1kB
range x 2
tolerance acc 5e-13
task s0 rw=acc read=x model=rounding depth=1000
task s1 rw=acc read=x model=rounding depth=1000
task s2 rw=acc read=x model=rounding depth=1000
task s3 rw=acc read=x model=rounding depth=1000
task s4 rw=acc read=x model=rounding depth=1000
)";
  // Five terms of 1000*2*2^-53 ~ 2.2e-13 each: 1.1e-12 > 5e-13 -> A701.
  const pdl::Diagnostics accumulated = analyze(parse(steps));
  EXPECT_EQ(count_rule(accumulated, kToleranceExceeded), 1u)
      << render_text(accumulated);
  // One write= step replacing the contents stays under the tolerance.
  const pdl::Diagnostics replaced = analyze(parse(
      steps + "task fin read=x write=acc model=rounding depth=1000\n"));
  EXPECT_EQ(count_rule(replaced, kToleranceExceeded), 0u)
      << render_text(replaced);
}

// --- A702: unmodeled writes ---------------------------------------------------

TEST(AnalyzeAccuracy, A702_DirectUnmodeledWrite) {
  const starvm::TaskGraph g = parse(R"(buffer a 1kB
buffer c 1kB
range a 2
tolerance c 1e-10
task mystery read=a write=c
)");
  const pdl::Diagnostics diags = analyze(g);
  const pdl::Diagnostic* d =
      find_finding(diags, kUnmodeledWrite, "no declared error model");
  ASSERT_NE(d, nullptr) << render_text(diags);
  EXPECT_EQ(d->severity, pdl::Severity::kWarning);
  EXPECT_EQ(d->where, "mystery");
  EXPECT_EQ(d->loc.line, 5);  // points at the task, not the tolerance
  EXPECT_EQ(count_rule(diags, kToleranceExceeded), 0u);
  EXPECT_EQ(count_rule(diags, kVacuousTolerance), 0u);
}

TEST(AnalyzeAccuracy, A702_TransitivePoisonNamesFirstUnmodeledTask) {
  // The unmodeled task writes an intermediate; a modeled task carries the
  // poison into the tolerance buffer. The finding still names `mystery`.
  const starvm::TaskGraph g = parse(R"(buffer a 1kB
buffer mid 1kB
buffer c 1kB
range a 2
tolerance c 1e-10
task mystery read=a write=mid
task gemm read=mid write=c model=rounding depth=10
)");
  const pdl::Diagnostics diags = analyze(g);
  const pdl::Diagnostic* d = find_finding(diags, kUnmodeledWrite);
  ASSERT_NE(d, nullptr) << render_text(diags);
  EXPECT_EQ(d->where, "mystery");
}

TEST(AnalyzeAccuracy, UnmodeledWriteOffToleranceBuffersIsSilent) {
  // No tolerance anywhere: unmodeled tasks are none of our business.
  const starvm::TaskGraph g = parse(R"(buffer a 1kB
buffer c 1kB
task mystery read=a write=c
)");
  EXPECT_TRUE(analyze(g).empty());
}

// --- A703: accumulation blow-up -----------------------------------------------

TEST(AnalyzeAccuracy, A703_ChainOfEqualStepsWithPath) {
  const starvm::TaskGraph g = parse(R"(buffer x 1kB
buffer acc 1kB
range x 2
tolerance acc 1e-3
task s0 rw=acc read=x model=rounding depth=1000
task s1 rw=acc read=x model=rounding depth=1000
task s2 rw=acc read=x model=rounding depth=1000
task s3 rw=acc read=x model=rounding depth=1000
task s4 rw=acc read=x model=rounding depth=1000
task s5 rw=acc read=x model=rounding depth=1000
task s6 rw=acc read=x model=rounding depth=1000
task s7 rw=acc read=x model=rounding depth=1000
task s8 rw=acc read=x model=rounding depth=1000
task s9 rw=acc read=x model=rounding depth=1000
)");
  const pdl::Diagnostics diags = analyze(g);
  // Tolerance 1e-3 is generous (bound ~2.2e-12): only the chain fires.
  EXPECT_EQ(count_rule(diags, kToleranceExceeded), 0u) << render_text(diags);
  const pdl::Diagnostic* d =
      find_finding(diags, kAccumulationBlowup, "RAW chain of 10 rounding steps");
  ASSERT_NE(d, nullptr) << render_text(diags);
  EXPECT_EQ(d->severity, pdl::Severity::kWarning);
  // The chain rides in `where` and becomes the SARIF logical location.
  EXPECT_EQ(d->where, "s0->s1->s2->s3->s4->s5->s6->s7->s8->s9");
  const std::string sarif = render_sarif(diags);
  EXPECT_NE(sarif.find("\"fullyQualifiedName\":\"s0->s1->s2->s3->s4->s5->s6->"
                       "s7->s8->s9\""),
            std::string::npos)
      << sarif;
}

TEST(AnalyzeAccuracy, A703_SilentWhenOneStepDominatesOrChainShort) {
  // Three equal steps: below kChainMinSteps.
  const pdl::Diagnostics short_chain = analyze(parse(R"(buffer x 1kB
buffer acc 1kB
range x 2
tolerance acc 1
task s0 rw=acc read=x model=rounding depth=1000
task s1 rw=acc read=x model=rounding depth=1000
task s2 rw=acc read=x model=rounding depth=1000
)"));
  EXPECT_EQ(count_rule(short_chain, kAccumulationBlowup), 0u);
  // Five steps where one dominates: sum < 8x max.
  const pdl::Diagnostics dominated = analyze(parse(R"(buffer x 1kB
buffer acc 1kB
range x 2
tolerance acc 1
task heavy rw=acc read=x model=rounding depth=1000000
task s1 rw=acc read=x model=rounding depth=10
task s2 rw=acc read=x model=rounding depth=10
task s3 rw=acc read=x model=rounding depth=10
task s4 rw=acc read=x model=rounding depth=10
)"));
  EXPECT_EQ(count_rule(dominated, kAccumulationBlowup), 0u)
      << render_text(dominated);
}

// --- A704: vacuous tolerance --------------------------------------------------

TEST(AnalyzeAccuracy, A704_ToleranceWithoutRangeIsVacuous) {
  const starvm::TaskGraph g = parse(R"(buffer a 1kB
buffer c 1kB
tolerance c 1e-10
task gemm read=a write=c model=rounding depth=10
)");
  const pdl::Diagnostics diags = analyze(g);
  const pdl::Diagnostic* d =
      find_finding(diags, kVacuousTolerance, "no `range` reaches it");
  ASSERT_NE(d, nullptr) << render_text(diags);
  EXPECT_EQ(d->severity, pdl::Severity::kInfo);
  EXPECT_EQ(d->where, "c");
  // A701 must NOT fire off a vacuous bound.
  EXPECT_EQ(count_rule(diags, kToleranceExceeded), 0u);
}

// --- Epsilon floor ------------------------------------------------------------

TEST(AnalyzeAccuracy, EpsilonFloorRaisesRoundingBounds) {
  const std::string text = R"(buffer a 1kB
buffer c 1kB
range a 2
tolerance c 1e-9
task gemm read=a write=c model=rounding depth=1000
)";
  // fp64 bound 1000*2*2^-53 ~ 2.2e-13 passes a 1e-9 tolerance...
  EXPECT_EQ(count_rule(analyze(parse(text)), kToleranceExceeded), 0u);
  // ...but flooring eps at 2^-24 (an fp32 PU in the platform) breaks it.
  const pdl::Diagnostics floored = analyze(parse(text), 0x1p-24);
  EXPECT_EQ(count_rule(floored, kToleranceExceeded), 1u)
      << render_text(floored);
}

TEST(AnalyzeAccuracy, EpsilonFloorComesFromPlatformAccuracyProperty) {
  pdl::Diagnostics parse_diags;
  auto platform = pdl::parse_platform(R"(<?xml version="1.0"?>
<Platform name="mixed" version="1.0">
  <Master id="m" quantity="1">
    <PUDescriptor>
      <Property fixed="true"><name>ARCHITECTURE</name><value>x86</value></Property>
      <Property fixed="true"><name>ACCURACY</name><value>1.1102230246251565e-16</value></Property>
    </PUDescriptor>
    <Worker id="fp32" quantity="1">
      <PUDescriptor>
        <Property fixed="true"><name>ARCHITECTURE</name><value>gpu</value></Property>
        <Property fixed="true"><name>ACCURACY</name><value>5.9604644775390625e-8</value></Property>
      </PUDescriptor>
    </Worker>
  </Master>
</Platform>)", parse_diags);
  ASSERT_TRUE(platform.ok()) << platform.error().str();
  // The floor is the loosest PU: a dynamic scheduler may place any task
  // on the fp32 unit.
  EXPECT_DOUBLE_EQ(accuracy_epsilon_floor(platform.value()), 0x1p-24);

  auto no_accuracy = pdl::parse_platform(R"(<?xml version="1.0"?>
<Platform name="plain" version="1.0">
  <Master id="m" quantity="1">
    <PUDescriptor>
      <Property fixed="true"><name>ARCHITECTURE</name><value>x86</value></Property>
    </PUDescriptor>
  </Master>
</Platform>)", parse_diags);
  ASSERT_TRUE(no_accuracy.ok());
  EXPECT_EQ(accuracy_epsilon_floor(no_accuracy.value()), 0.0);
}

// --- Rule options and the committed fixture pair ------------------------------

TEST(AnalyzeAccuracy, RespectsRuleOptionsLikeOtherFamilies) {
  const starvm::TaskGraph g = parse(R"(buffer a 1kB
buffer c 1kB
range a 2
tolerance c 1e-20
task gemm read=a write=c model=rounding depth=1000
)");
  AnalysisOptions off;
  off.disabled.insert(kToleranceExceeded);
  pdl::Diagnostics diags;
  analyze_accuracy(g, off, diags);
  EXPECT_EQ(count_rule(diags, kToleranceExceeded), 0u);

  AnalysisOptions demote;
  demote.severity_overrides[kToleranceExceeded] = pdl::Severity::kInfo;
  pdl::Diagnostics diags2;
  analyze_accuracy(g, demote, diags2);
  const pdl::Diagnostic* d = find_finding(diags2, kToleranceExceeded);
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, pdl::Severity::kInfo);
}

TEST(AnalyzeAccuracy, CommittedFixturePairFiresA701AndA703) {
  pdl::Diagnostics parse_diags;
  auto platform = pdl::parse_platform_file(
      std::string(PDL_SOURCE_DIR) + "/tests/fixtures/fp32-testbed.pdl.xml",
      parse_diags);
  ASSERT_TRUE(platform.ok()) << platform.error().str();
  auto graph = load_graph_file(std::string(PDL_SOURCE_DIR) +
                               "/tests/fixtures/tolerance.graph");
  ASSERT_TRUE(graph.ok()) << graph.error().str();
  pdl::Diagnostics diags;
  analyze_accuracy(graph.value(), {}, diags,
                   accuracy_epsilon_floor(platform.value()));
  pdl::normalize(diags);
  EXPECT_EQ(count_rule(diags, kToleranceExceeded), 1u) << render_text(diags);
  EXPECT_EQ(count_rule(diags, kAccumulationBlowup), 1u) << render_text(diags);
  EXPECT_EQ(count_rule(diags, kUnmodeledWrite), 0u) << render_text(diags);
  EXPECT_EQ(count_rule(diags, kVacuousTolerance), 0u) << render_text(diags);
}

// --- Rule catalog additions ---------------------------------------------------

TEST(RuleCatalogA7xx, CatalogAndSuggestions) {
  ASSERT_NE(find_rule("A701"), nullptr);
  ASSERT_NE(find_rule("A701-tolerance-exceeded"), nullptr);
  EXPECT_EQ(find_rule("A701")->default_severity, pdl::Severity::kError);
  EXPECT_EQ(find_rule("A702")->default_severity, pdl::Severity::kWarning);
  EXPECT_EQ(find_rule("A703")->default_severity, pdl::Severity::kWarning);
  EXPECT_EQ(find_rule("A704")->default_severity, pdl::Severity::kInfo);
  // Typo'd --rule ids suggest the A7xx family like every other family.
  EXPECT_EQ(suggest_rule("A710"), "A701");
  EXPECT_EQ(suggest_rule("A704-vacuous-tolerence"), "A704-vacuous-tolerance");
  EXPECT_EQ(suggest_rule("A702-unmodeled-wirte"), "A702-unmodeled-write");
}

// --- graph_io accuracy directives ---------------------------------------------

TEST(GraphIoAccuracy, ParsesToleranceRangeAndModels) {
  const starvm::TaskGraph g = parse(R"(buffer a 1kB
buffer c 1kB
range a 4
tolerance c 1e-6
task t0 read=a write=c model=rounding32 coeff=3 depth=64
task t1 read=a write=c model=exact
task t2 read=a write=c model=rounding eps=1e-7
)");
  ASSERT_EQ(g.buffers().size(), 2u);
  EXPECT_TRUE(g.buffers()[0].has_range);
  EXPECT_DOUBLE_EQ(g.buffers()[0].range, 4.0);
  EXPECT_FALSE(g.buffers()[0].has_tolerance);
  EXPECT_TRUE(g.buffers()[1].has_tolerance);
  EXPECT_DOUBLE_EQ(g.buffers()[1].tolerance, 1e-6);
  EXPECT_EQ(g.buffers()[1].tolerance_loc.line, 4);
  ASSERT_EQ(g.tasks().size(), 3u);
  EXPECT_EQ(g.tasks()[0].error_model.kind,
            starvm::ErrorModel::Kind::kRounding);
  EXPECT_DOUBLE_EQ(g.tasks()[0].error_model.coefficient, 3.0);
  EXPECT_DOUBLE_EQ(g.tasks()[0].error_model.epsilon,
                   starvm::ErrorModel::kUlpSingle);
  EXPECT_DOUBLE_EQ(g.tasks()[0].depth, 64.0);
  EXPECT_EQ(g.tasks()[1].error_model.kind, starvm::ErrorModel::Kind::kExact);
  EXPECT_DOUBLE_EQ(g.tasks()[2].error_model.epsilon, 1e-7);
}

TEST(GraphIoAccuracy, RejectsMalformedDirectivesWithFileLine) {
  // Duplicate tolerance / range.
  const auto dup_tol = parse_graph_text(
      "buffer c 1\ntolerance c 1e-3\ntolerance c 1e-3\n", "f.graph");
  ASSERT_FALSE(dup_tol.ok());
  EXPECT_EQ(dup_tol.error().where, "f.graph:3");
  EXPECT_NE(dup_tol.error().message.find("duplicate tolerance"),
            std::string::npos);
  const auto dup_range =
      parse_graph_text("buffer c 1\nrange c 2\nrange c 2\n", "f.graph");
  ASSERT_FALSE(dup_range.ok());
  EXPECT_EQ(dup_range.error().where, "f.graph:3");

  // Unknown buffer: declaration order matters.
  const auto unknown = parse_graph_text("tolerance c 1e-3\n", "f.graph");
  ASSERT_FALSE(unknown.ok());
  EXPECT_EQ(unknown.error().where, "f.graph:1");
  EXPECT_NE(unknown.error().message.find("unknown buffer 'c'"),
            std::string::npos);

  // Non-finite / non-positive values (strict util::parse_double).
  EXPECT_FALSE(parse_graph_text("buffer c 1\ntolerance c nan\n").ok());
  EXPECT_FALSE(parse_graph_text("buffer c 1\ntolerance c inf\n").ok());
  EXPECT_FALSE(parse_graph_text("buffer c 1\ntolerance c 0\n").ok());
  EXPECT_FALSE(parse_graph_text("buffer c 1\nrange c -2\n").ok());
  EXPECT_FALSE(parse_graph_text("buffer c 1\nrange c 2x\n").ok());

  // Trailing tokens.
  const auto trailing =
      parse_graph_text("buffer c 1\ntolerance c 1e-3 extra\n", "f.graph");
  ASSERT_FALSE(trailing.ok());
  EXPECT_NE(trailing.error().message.find("trailing token 'extra'"),
            std::string::npos);

  // Task model options.
  EXPECT_FALSE(parse_graph_text("task t model=float\n").ok());
  EXPECT_FALSE(parse_graph_text("task t model=exact model=exact\n").ok());
  EXPECT_FALSE(parse_graph_text("task t depth=nan\n").ok());
  EXPECT_FALSE(parse_graph_text("task t coeff=0\n").ok());
  // coeff=/eps= without a rounding model are meaningless, not ignored.
  const auto coeff_only = parse_graph_text("task t coeff=2\n", "f.graph");
  ASSERT_FALSE(coeff_only.ok());
  EXPECT_NE(coeff_only.error().message.find(
                "coeff=/eps= need model=rounding or model=rounding32"),
            std::string::npos);
  EXPECT_FALSE(parse_graph_text("task t model=exact eps=1e-8\n").ok());
}

}  // namespace
}  // namespace analysis
