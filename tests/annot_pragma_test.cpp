#include <gtest/gtest.h>

#include "annot/pragma_parser.hpp"

namespace cascabel {
namespace {

TEST(Classify, DistinguishesKinds) {
  EXPECT_EQ(classify_pragma("cascabel task : x : I : n : (A: read)"),
            PragmaKind::kTask);
  EXPECT_EQ(classify_pragma("cascabel execute I : g (A:BLOCK:1)"),
            PragmaKind::kExecute);
  EXPECT_EQ(classify_pragma("cascabel frobnicate"), PragmaKind::kUnknown);
  EXPECT_EQ(classify_pragma("omp parallel"), PragmaKind::kUnknown);
}

// The paper's Listing 3 task pragma, verbatim structure.
TEST(TaskPragma, ParsesPaperListing3) {
  auto p = parse_task_pragma(
      "cascabel task : x86 : Ivecadd : vecadd01 : ( A: readwrite, B : read )");
  ASSERT_TRUE(p.ok()) << p.error().str();
  const TaskPragma& t = p.value();
  ASSERT_EQ(t.target_platforms.size(), 1u);
  EXPECT_EQ(t.target_platforms[0], "x86");
  EXPECT_EQ(t.task_interface, "Ivecadd");
  EXPECT_EQ(t.variant_name, "vecadd01");
  ASSERT_EQ(t.params.size(), 2u);
  EXPECT_EQ(t.params[0].name, "A");
  EXPECT_EQ(t.params[0].mode, AccessMode::kReadWrite);
  EXPECT_EQ(t.params[1].name, "B");
  EXPECT_EQ(t.params[1].mode, AccessMode::kRead);
}

TEST(TaskPragma, MultiplePlatforms) {
  auto p = parse_task_pragma(
      "cascabel task : cuda, opencl, cell : Idgemm : dgemm_gpu : (C: write)");
  ASSERT_TRUE(p.ok());
  ASSERT_EQ(p.value().target_platforms.size(), 3u);
  EXPECT_EQ(p.value().target_platforms[1], "opencl");
}

TEST(TaskPragma, InlinePatternEntriesKeepTheirCommas) {
  auto p = parse_task_pragma(
      "cascabel task : x86, pattern(M[Wx2,W(ARCHITECTURE=gpu)x1]) "
      ": I : tuned : (A: read)");
  ASSERT_TRUE(p.ok()) << p.error().str();
  ASSERT_EQ(p.value().target_platforms.size(), 2u);
  EXPECT_EQ(p.value().target_platforms[0], "x86");
  EXPECT_EQ(p.value().target_platforms[1],
            "pattern(M[Wx2,W(ARCHITECTURE=gpu)x1])");
}

TEST(TaskPragma, EmptyParameterListIsAllowed) {
  auto p = parse_task_pragma("cascabel task : x86 : Inop : nop01 : ()");
  ASSERT_TRUE(p.ok()) << p.error().str();
  EXPECT_TRUE(p.value().params.empty());
}

TEST(TaskPragma, RejectsMalformedInputs) {
  EXPECT_FALSE(parse_task_pragma("cascabel task : x86 : I : n").ok());  // 3 fields
  EXPECT_FALSE(parse_task_pragma("cascabel task : x86 : I : n : (A)").ok());  // no mode
  EXPECT_FALSE(
      parse_task_pragma("cascabel task : x86 : I : n : (A: sideways)").ok());
  EXPECT_FALSE(
      parse_task_pragma("cascabel task : x86 : 9bad : n : (A: read)").ok());
  EXPECT_FALSE(parse_task_pragma("cascabel task :  : I : n : (A: read)").ok());
  EXPECT_FALSE(parse_task_pragma("cascabel execute I : g").ok());
  EXPECT_FALSE(parse_task_pragma("not a pragma").ok());
}

TEST(TaskPragma, AccessModesAreCaseInsensitive) {
  auto p = parse_task_pragma(
      "cascabel task : x86 : I : n : (A: READWRITE, B: Read, C: WRITE)");
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(p.value().params[0].mode, AccessMode::kReadWrite);
  EXPECT_EQ(p.value().params[1].mode, AccessMode::kRead);
  EXPECT_EQ(p.value().params[2].mode, AccessMode::kWrite);
}

// The paper's Listing 4 execute pragma.
TEST(ExecutePragma, ParsesPaperListing4) {
  auto p = parse_execute_pragma(
      "cascabel execute Ivecadd : executionset01 (A:BLOCK:N, B:BLOCK:N)");
  ASSERT_TRUE(p.ok()) << p.error().str();
  const ExecutePragma& e = p.value();
  EXPECT_EQ(e.task_interface, "Ivecadd");
  EXPECT_EQ(e.execution_group, "executionset01");
  ASSERT_EQ(e.distributions.size(), 2u);
  EXPECT_EQ(e.distributions[0].param, "A");
  EXPECT_EQ(e.distributions[0].kind, DistributionKind::kBlock);
  ASSERT_EQ(e.distributions[0].sizes.size(), 1u);
  EXPECT_EQ(e.distributions[0].sizes[0], "N");
}

TEST(ExecutePragma, MatrixSizesAndWholeDistribution) {
  auto p = parse_execute_pragma(
      "cascabel execute Idgemm : gset (C:BLOCK:n:n, A:BLOCK:n:n, B:WHOLE:n:n)");
  ASSERT_TRUE(p.ok()) << p.error().str();
  ASSERT_EQ(p.value().distributions.size(), 3u);
  EXPECT_EQ(p.value().distributions[0].sizes.size(), 2u);
  EXPECT_EQ(p.value().distributions[2].kind, DistributionKind::kNone);
  EXPECT_EQ(p.value().distributions[2].sizes.size(), 2u);
}

TEST(ExecutePragma, GroupIsOptional) {
  auto p = parse_execute_pragma("cascabel execute Iface (A:CYCLIC:64)");
  ASSERT_TRUE(p.ok()) << p.error().str();
  EXPECT_TRUE(p.value().execution_group.empty());
  EXPECT_EQ(p.value().distributions[0].kind, DistributionKind::kCyclic);
  EXPECT_EQ(p.value().distributions[0].sizes[0], "64");
}

TEST(ExecutePragma, DistributionsAreOptional) {
  auto p = parse_execute_pragma("cascabel execute Iface : mygroup");
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(p.value().execution_group, "mygroup");
  EXPECT_TRUE(p.value().distributions.empty());
}

TEST(ExecutePragma, RejectsMalformedInputs) {
  EXPECT_FALSE(parse_execute_pragma("cascabel execute ").ok());
  EXPECT_FALSE(parse_execute_pragma("cascabel execute 1bad : g").ok());
  EXPECT_FALSE(parse_execute_pragma("cascabel execute I : g (A:SPIRAL:2)").ok());
  EXPECT_FALSE(parse_execute_pragma("cascabel execute I : g (A:BLOCK:1:2:3)").ok());
  EXPECT_FALSE(parse_execute_pragma("cascabel execute I : g (A:BLOCK:1").ok());
  EXPECT_FALSE(parse_execute_pragma("cascabel task : x : I : n : ()").ok());
}

TEST(ExecutePragma, BlockCyclicSpellings) {
  EXPECT_EQ(parse_execute_pragma("cascabel execute I : g (A:BLOCKCYCLIC:8)")
                .value()
                .distributions[0]
                .kind,
            DistributionKind::kBlockCyclic);
  EXPECT_EQ(parse_execute_pragma("cascabel execute I : g (A:block-cyclic:8)")
                .value()
                .distributions[0]
                .kind,
            DistributionKind::kBlockCyclic);
}

TEST(EnumStrings, RoundTrip) {
  EXPECT_EQ(access_mode_from_string("readwrite"), AccessMode::kReadWrite);
  EXPECT_FALSE(access_mode_from_string("rw").has_value());
  EXPECT_EQ(distribution_from_string("block"), DistributionKind::kBlock);
  EXPECT_EQ(distribution_from_string("whole"), DistributionKind::kNone);
  EXPECT_FALSE(distribution_from_string("diag").has_value());
}

}  // namespace
}  // namespace cascabel
