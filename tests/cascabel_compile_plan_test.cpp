#include <gtest/gtest.h>

#include "cascabel/compile_plan.hpp"
#include "discovery/presets.hpp"
#include "pdl/well_known.hpp"

namespace cascabel {
namespace {

using pdl::discovery::cell_be_platform;
using pdl::discovery::paper_platform_starpu_2gpu;
using pdl::discovery::paper_platform_starpu_cpu;

TEST(CompilePlan, CpuOnlyPlatformUsesOneCompiler) {
  const CompilePlan plan =
      derive_compile_plan(paper_platform_starpu_cpu(), "gen.cpp", "prog");
  // Master declares COMPILER=gcc; the x86_core workers inherit it.
  ASSERT_EQ(plan.steps.size(), 1u);
  EXPECT_EQ(plan.steps[0].compiler, "gcc");
  EXPECT_EQ(plan.steps[0].source, "gen.cpp");
  EXPECT_EQ(plan.link.output, "prog");
  EXPECT_EQ(plan.link.inputs.size(), 1u);
}

TEST(CompilePlan, GpuPlatformAddsNvccStep) {
  const CompilePlan plan =
      derive_compile_plan(paper_platform_starpu_2gpu(), "gen.cpp", "prog");
  // gcc (master + cpu cores, via COMPILER) + nvcc (gpu arch default).
  ASSERT_EQ(plan.steps.size(), 2u);
  std::vector<std::string> compilers = {plan.steps[0].compiler,
                                        plan.steps[1].compiler};
  EXPECT_NE(std::find(compilers.begin(), compilers.end(), "gcc"), compilers.end());
  EXPECT_NE(std::find(compilers.begin(), compilers.end(), "nvcc"), compilers.end());
}

TEST(CompilePlan, CellPlatformUsesXlcAndSpuGcc) {
  const CompilePlan plan = derive_compile_plan(cell_be_platform(), "gen.cpp", "prog");
  // Master declares xlc; the SPE workers' own architecture selects the SPU
  // cross-compiler (the paper names "gcc-spu" explicitly in §IV-C step 4).
  ASSERT_EQ(plan.steps.size(), 2u);
  EXPECT_EQ(plan.steps[0].compiler, "xlc");
  EXPECT_EQ(plan.steps[1].compiler, "spu-gcc");
}

TEST(CompilePlan, ExplicitWorkerCompilerOverridesInheritance) {
  pdl::Platform p("t");
  pdl::ProcessingUnit* m = p.add_master("m");
  m->descriptor().add(pdl::props::kCompiler, "gcc");
  pdl::ProcessingUnit* w = m->add_child(pdl::PuKind::kWorker, "spe", 8);
  w->descriptor().add(pdl::props::kArchitecture, "spe");
  w->descriptor().add(pdl::props::kCompiler, "spu-gcc");
  const CompilePlan plan = derive_compile_plan(p, "gen.cpp", "prog");
  ASSERT_EQ(plan.steps.size(), 2u);
  EXPECT_EQ(plan.steps[1].compiler, "spu-gcc");
  EXPECT_EQ(plan.steps[1].for_pu, "spe");
}

TEST(CompilePlan, DefaultCompilerByArchitecture) {
  pdl::Platform p("t");
  pdl::ProcessingUnit* m = p.add_master("m");  // no COMPILER, no ARCH -> gcc
  pdl::ProcessingUnit* w = m->add_child(pdl::PuKind::kWorker, "g");
  w->descriptor().add(pdl::props::kArchitecture, "gpu");
  const CompilePlan plan = derive_compile_plan(p, "gen.cpp", "prog");
  ASSERT_EQ(plan.steps.size(), 2u);
  EXPECT_EQ(plan.steps[0].compiler, "gcc");
  EXPECT_EQ(plan.steps[1].compiler, "nvcc");
}

TEST(CompilePlan, MakefileRendering) {
  const CompilePlan plan =
      derive_compile_plan(paper_platform_starpu_2gpu(), "gen.cpp", "dgemm_prog");
  const std::string makefile = plan.to_makefile();
  EXPECT_NE(makefile.find("all: dgemm_prog"), std::string::npos);
  EXPECT_NE(makefile.find("nvcc"), std::string::npos);
  EXPECT_NE(makefile.find("-c gen.cpp"), std::string::npos);
  EXPECT_NE(makefile.find("-lstarvm"), std::string::npos);
}

}  // namespace
}  // namespace cascabel
