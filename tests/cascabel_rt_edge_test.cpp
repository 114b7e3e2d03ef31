// Edge-path tests of the rt veneer and related glue.
#include <gtest/gtest.h>

#include "cascabel/builtin_variants.hpp"
#include "cascabel/rt.hpp"
#include "discovery/presets.hpp"
#include "starvm/trace_export.hpp"

namespace cascabel::rt {
namespace {

using pdl::discovery::paper_platform_single;
using pdl::discovery::paper_platform_starpu_2gpu;
using pdl::discovery::paper_platform_starpu_cpu;

TaskRepository builtin_repo() {
  TaskRepository repo = TaskRepository::with_defaults();
  register_builtin_variants(repo);
  return repo;
}

TEST(ContextEdge, GroupWithNoRunnableImplementationFails) {
  // Only an accelerator variant is usable in group 'gpu', but the target
  // platform has no accelerators at all -> execute must fail cleanly.
  TaskRepository repo = TaskRepository::with_defaults();
  TaskVariant gpu_only;
  gpu_only.pragma.task_interface = "Ionly";
  gpu_only.pragma.variant_name = "only_gpu";
  gpu_only.pragma.target_platforms = {"x86"};  // select it as fallback...
  repo.add_variant(gpu_only);
  // ...but bind it as an accelerator implementation.
  repo.bind(BoundImpl{"only_gpu", starvm::DeviceKind::kAccelerator,
                      [](const starvm::ExecContext&) {}, nullptr});

  Context ctx(paper_platform_starpu_cpu(), std::move(repo));
  std::vector<double> data(4, 0.0);
  auto status = ctx.execute("Ionly", "",
                            {arg(data.data(), 4, AccessMode::kRead,
                                 DistributionKind::kNone)});
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.error().message.find("no executable implementation"),
            std::string::npos);
}

TEST(ContextEdge, SourceOnlyVariantsAreSkipped) {
  // A selected variant without a bound implementation must not break
  // execution as long as another usable implementation exists.
  TaskRepository repo = builtin_repo();
  TaskVariant unbound;
  unbound.pragma.task_interface = "Ivecadd";
  unbound.pragma.variant_name = "vecadd_sourceonly";
  unbound.pragma.target_platforms = {"smp"};
  repo.add_variant(unbound);  // never bound

  Context ctx(paper_platform_starpu_cpu(), std::move(repo));
  const std::size_t n = 64;
  std::vector<double> a(n, 1.0), b(n, 1.0);
  ASSERT_TRUE(ctx.execute("Ivecadd", "",
                          {arg(a.data(), n, AccessMode::kReadWrite,
                               DistributionKind::kBlock),
                           arg(b.data(), n, AccessMode::kRead,
                               DistributionKind::kBlock)})
                  .ok());
  EXPECT_TRUE(ctx.wait().ok());
  for (double v : a) EXPECT_DOUBLE_EQ(v, 2.0);
}

TEST(ContextEdge, PureSimContextNeverTouchesData) {
  Options options;
  options.mode = starvm::ExecutionMode::kPureSim;
  Context ctx(paper_platform_starpu_cpu(), builtin_repo(), options);
  const std::size_t n = 128;
  std::vector<double> a(n, 1.0), b(n, 2.0);
  ASSERT_TRUE(ctx.execute("Ivecadd", "",
                          {arg(a.data(), n, AccessMode::kReadWrite,
                               DistributionKind::kBlock),
                           arg(b.data(), n, AccessMode::kRead,
                               DistributionKind::kBlock)})
                  .ok());
  EXPECT_TRUE(ctx.wait().ok());
  for (double v : a) EXPECT_DOUBLE_EQ(v, 1.0);  // untouched
  EXPECT_GT(ctx.stats().makespan_seconds, 0.0);
}

TEST(ContextEdge, StatsFeedTraceExports) {
  Context ctx(paper_platform_starpu_2gpu(), builtin_repo());
  const std::size_t n = 256;
  std::vector<double> a(n, 1.0), b(n, 2.0);
  ASSERT_TRUE(ctx.execute("Ivecadd", "all",
                          {arg(a.data(), n, AccessMode::kReadWrite,
                               DistributionKind::kBlock),
                           arg(b.data(), n, AccessMode::kRead,
                               DistributionKind::kBlock)})
                  .ok());
  EXPECT_TRUE(ctx.wait().ok());
  const auto stats = ctx.stats();
  const std::string json = starvm::merged_chrome_trace({}, &stats);
  EXPECT_NE(json.find("Ivecadd["), std::string::npos);
  const std::string gantt = starvm::to_ascii_gantt(stats, 5);  // width clamped
  EXPECT_NE(gantt.find('#'), std::string::npos);
}

TEST(ContextEdge, EmptyArgListExecutes) {
  // Tasks without data are legal (pure side-effect codelets).
  TaskRepository repo = TaskRepository::with_defaults();
  int runs = 0;
  TaskVariant v;
  v.pragma.task_interface = "Inop";
  v.pragma.variant_name = "nop";
  v.pragma.target_platforms = {"x86"};
  repo.add_variant(v);
  repo.bind(BoundImpl{"nop", starvm::DeviceKind::kCpu,
                      [&runs](const starvm::ExecContext&) { ++runs; }, nullptr});
  Context ctx(paper_platform_single(), std::move(repo));
  ASSERT_TRUE(ctx.execute("Inop", "", {}).ok());
  EXPECT_TRUE(ctx.wait().ok());
  EXPECT_EQ(runs, 1);
}

}  // namespace
}  // namespace cascabel::rt
