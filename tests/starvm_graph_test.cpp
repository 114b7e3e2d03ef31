#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <vector>

#include "starvm/graph.hpp"

namespace starvm {
namespace {

using Edge = TaskGraph::Edge;

/// True when `edges` holds an edge from->to of `kind`.
bool has_edge(const std::vector<Edge>& edges, int from, int to, Edge::Kind kind) {
  for (const Edge& e : edges) {
    if (e.from == from && e.to == to && e.kind == kind) return true;
  }
  return false;
}

TEST(TaskGraph, BuffersGetDisjointRanges) {
  TaskGraph g;
  const int a = g.add_buffer("a", 256);
  const int b = g.add_buffer("b", 256);
  EXPECT_FALSE(g.ranges_overlap(a, b));
  EXPECT_FALSE(g.same_lineage(a, b));
}

TEST(TaskGraph, AddBufferAtModelsAliasedRegistration) {
  TaskGraph g;
  const int a = g.add_buffer("alloc", 1024);
  // A second handle registered over the same allocation, as
  // register_vector(data.data(), n) twice would produce at runtime.
  const int b = g.add_buffer_at("alias", g.buffers()[a].base, 1024);
  EXPECT_TRUE(g.ranges_overlap(a, b));
  EXPECT_FALSE(g.same_lineage(a, b));  // two registrations, not parent/block
}

TEST(TaskGraph, PartitionSplitsRangeLikeEngine) {
  TaskGraph g;
  const int parent = g.add_buffer("v", 100);
  const std::vector<int> blocks = g.partition(parent, 3);
  ASSERT_EQ(blocks.size(), 3u);

  // Blocks tile the parent range exactly (chunk + remainder spread).
  std::uint64_t total = 0;
  std::uint64_t cursor = g.buffers()[parent].base;
  for (const int block : blocks) {
    const GraphBuffer& b = g.buffers()[block];
    EXPECT_EQ(b.base, cursor);
    EXPECT_EQ(b.parent, parent);
    cursor += b.bytes;
    total += b.bytes;
  }
  EXPECT_EQ(total, 100u);

  // Parent/block overlap is lineage; sibling blocks are disjoint.
  EXPECT_TRUE(g.ranges_overlap(parent, blocks[0]));
  EXPECT_TRUE(g.same_lineage(parent, blocks[0]));
  EXPECT_FALSE(g.ranges_overlap(blocks[0], blocks[1]));
}

TEST(TaskGraph, InfersRawWarWawEdges) {
  TaskGraph g;
  const int buf = g.add_buffer("v", 64);
  const int w0 = g.add_task("w0", {{buf, Access::kWrite}});
  const int r0 = g.add_task("r0", {{buf, Access::kRead}});
  const int r1 = g.add_task("r1", {{buf, Access::kRead}});
  const int w1 = g.add_task("w1", {{buf, Access::kWrite}});

  const auto edges = g.edges();
  EXPECT_TRUE(has_edge(edges, w0, r0, Edge::kRaw));
  EXPECT_TRUE(has_edge(edges, w0, r1, Edge::kRaw));
  EXPECT_TRUE(has_edge(edges, w0, w1, Edge::kWaw));
  EXPECT_TRUE(has_edge(edges, r0, w1, Edge::kWar));
  EXPECT_TRUE(has_edge(edges, r1, w1, Edge::kWar));
  // Concurrent pure readers are unordered.
  EXPECT_FALSE(has_edge(edges, r0, r1, Edge::kRaw));
}

TEST(TaskGraph, PureReadersShareNoEdges) {
  TaskGraph g;
  const int buf = g.add_buffer("v", 64);
  g.add_task("r0", {{buf, Access::kRead}});
  g.add_task("r1", {{buf, Access::kRead}});
  EXPECT_TRUE(g.edges().empty());
}

TEST(TaskGraph, ExplicitDepsKeepBackwardDropForward) {
  TaskGraph g;
  const int t0 = g.add_task("t0", {});
  // Depends on t0 (backward, kept) and on task 5 (forward/unknown: the
  // engine treats those as satisfied, so no edge may appear).
  const int t1 = g.add_task("t1", {}, {t0, 5});

  const auto all = g.edges();
  ASSERT_EQ(all.size(), 1u);
  EXPECT_TRUE(has_edge(all, t0, t1, Edge::kExplicit));

  // edges(false) drops inferred edges but keeps the declared ones.
  TaskGraph h;
  const int buf = h.add_buffer("v", 64);
  const int w0 = h.add_task("w0", {{buf, Access::kWrite}});
  const int w1 = h.add_task("w1", {{buf, Access::kWrite}}, {w0});
  EXPECT_TRUE(has_edge(h.edges(), w0, w1, Edge::kWaw));
  const auto explicit_only = h.edges(/*include_inferred=*/false);
  ASSERT_EQ(explicit_only.size(), 1u);
  EXPECT_TRUE(has_edge(explicit_only, w0, w1, Edge::kExplicit));
}

TEST(TaskGraph, ReachabilityIsTransitive) {
  TaskGraph g;
  const int buf = g.add_buffer("v", 64);
  const int t0 = g.add_task("t0", {{buf, Access::kWrite}});
  const int t1 = g.add_task("t1", {{buf, Access::kReadWrite}});
  const int t2 = g.add_task("t2", {{buf, Access::kRead}});
  const int lone = g.add_task("lone", {});

  const auto reach = g.reachability();
  EXPECT_TRUE(reach.before(t0, t1));
  EXPECT_TRUE(reach.before(t0, t2));  // via t1
  EXPECT_FALSE(reach.before(t2, t0));
  EXPECT_TRUE(reach.ordered(t0, t2));
  EXPECT_FALSE(reach.ordered(t0, lone));
}

// --- Differential check of edges() and the closure -------------------------

/// splitmix64, so the random graphs are the same with every standard library.
struct SplitMix {
  std::uint64_t state;
  int below(int bound) {
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return static_cast<int>((z ^ (z >> 31)) % static_cast<std::uint64_t>(bound));
  }
};

/// `n` tasks over 16 buffers: up to 3 accesses per task (repeats and an
/// invalid buffer id included) and up to 2 declared deps (forward and
/// out-of-range ids included).
TaskGraph random_graph(int n, SplitMix& rng) {
  TaskGraph g;
  for (int b = 0; b < 16; ++b) g.add_buffer("b" + std::to_string(b), 64);
  constexpr Access kModes[] = {Access::kRead, Access::kWrite, Access::kReadWrite};
  for (int t = 0; t < n; ++t) {
    std::vector<GraphAccess> accesses;
    for (int i = rng.below(4); i > 0; --i) {
      accesses.push_back({rng.below(17) - 1, kModes[rng.below(3)]});
    }
    std::vector<int> deps;
    for (int i = rng.below(3); i > 0; --i) deps.push_back(rng.below(n + 2) - 1);
    g.add_task("t" + std::to_string(t), std::move(accesses), std::move(deps));
  }
  return g;
}

/// The edge inference with a dedup over the whole list so far.
std::vector<Edge> naive_edges(const TaskGraph& g, bool include_inferred) {
  std::vector<Edge> out;
  const auto add = [&out](int from, int to, Edge::Kind kind, int buffer) {
    if (from == to) return;
    for (const Edge& e : out) {
      if (e.from == from && e.to == to && e.kind == kind && e.buffer == buffer) {
        return;
      }
    }
    out.push_back(Edge{from, to, kind, buffer});
  };
  const int nbuf = static_cast<int>(g.buffers().size());
  std::vector<int> last_writer(static_cast<std::size_t>(nbuf), -1);
  std::vector<std::vector<int>> readers(static_cast<std::size_t>(nbuf));
  for (int t = 0; t < static_cast<int>(g.tasks().size()); ++t) {
    const GraphTask& task = g.tasks()[static_cast<std::size_t>(t)];
    for (const int dep : task.declared_deps) {
      if (dep >= 0 && dep < t) add(dep, t, Edge::kExplicit, -1);
    }
    if (!include_inferred) continue;
    for (const GraphAccess& a : task.accesses) {
      if (a.buffer < 0 || a.buffer >= nbuf) continue;
      int& writer = last_writer[static_cast<std::size_t>(a.buffer)];
      std::vector<int>& since = readers[static_cast<std::size_t>(a.buffer)];
      if (reads(a.mode) && writer >= 0) add(writer, t, Edge::kRaw, a.buffer);
      if (writes(a.mode)) {
        if (writer >= 0) add(writer, t, Edge::kWaw, a.buffer);
        for (const int r : since) add(r, t, Edge::kWar, a.buffer);
        writer = t;
        since.clear();
      }
      if (reads(a.mode) && !writes(a.mode)) since.push_back(t);
    }
  }
  return out;
}

/// reach[a][b]: task b is reachable from task a, by one BFS per task.
std::vector<std::vector<bool>> bfs_reach(int n, const std::vector<Edge>& edges) {
  std::vector<std::vector<int>> succ(static_cast<std::size_t>(n));
  for (const Edge& e : edges) succ[static_cast<std::size_t>(e.from)].push_back(e.to);
  std::vector<std::vector<bool>> reach(static_cast<std::size_t>(n),
                                       std::vector<bool>(static_cast<std::size_t>(n)));
  for (int start = 0; start < n; ++start) {
    std::vector<bool>& row = reach[static_cast<std::size_t>(start)];
    std::vector<int> frontier = {start};
    while (!frontier.empty()) {
      const int node = frontier.back();
      frontier.pop_back();
      for (const int next : succ[static_cast<std::size_t>(node)]) {
        if (!row[static_cast<std::size_t>(next)]) {
          row[static_cast<std::size_t>(next)] = true;
          frontier.push_back(next);
        }
      }
    }
  }
  return reach;
}

TEST(TaskGraph, EdgesAndClosureMatchNaiveReferences) {
  SplitMix rng{64};
  for (const int n : {0, 1, 63, 64, 65, 200}) {
    for (int seed = 0; seed < 3; ++seed) {
      const TaskGraph g = random_graph(n, rng);
      for (const bool inferred : {true, false}) {
        SCOPED_TRACE("n=" + std::to_string(n) + " seed=" + std::to_string(seed) +
                     (inferred ? " strict" : " relaxed"));
        const std::vector<Edge> edges = g.edges(inferred);
        const std::vector<Edge> expected = naive_edges(g, inferred);
        ASSERT_EQ(edges.size(), expected.size());
        for (std::size_t i = 0; i < edges.size(); ++i) {
          EXPECT_EQ(edges[i].from, expected[i].from) << i;
          EXPECT_EQ(edges[i].to, expected[i].to) << i;
          EXPECT_EQ(edges[i].kind, expected[i].kind) << i;
          EXPECT_EQ(edges[i].buffer, expected[i].buffer) << i;
        }

        const auto reach = g.reachability(inferred);
        const auto ref = bfs_reach(n, edges);
        for (int a = 0; a < n; ++a) {
          std::vector<int> unordered;
          for (int b = 0; b < n; ++b) {
            const bool before = ref[static_cast<std::size_t>(a)][static_cast<std::size_t>(b)];
            ASSERT_EQ(reach.before(a, b), before) << a << " -> " << b;
            if (b > a && !before && !ref[static_cast<std::size_t>(b)][static_cast<std::size_t>(a)]) {
              unordered.push_back(b);
            }
          }
          // Among all tasks, the walk visits exactly the unordered ones.
          const std::vector<std::uint64_t> all(
              (static_cast<std::size_t>(n) + 63) / 64, ~std::uint64_t{0});
          std::vector<int> walked;
          for (int b = reach.next_unordered(a, a + 1, all.data()); b < n;
               b = reach.next_unordered(a, b + 1, all.data())) {
            walked.push_back(b);
          }
          EXPECT_EQ(walked, unordered) << "row " << a;

          // Restricted to a random set of tasks, the walk keeps the
          // unordered ones in it.
          std::vector<std::uint64_t> among((static_cast<std::size_t>(n) + 63) / 64);
          std::vector<int> kept;
          for (int b = a + 1; b < n; ++b) {
            if (rng.below(2) == 0) continue;
            among[static_cast<std::size_t>(b) / 64] |= std::uint64_t{1} << (b % 64);
            if (std::find(unordered.begin(), unordered.end(), b) != unordered.end()) {
              kept.push_back(b);
            }
          }
          walked.clear();
          for (int b = reach.next_unordered(a, a + 1, among.data()); b < n;
               b = reach.next_unordered(a, b + 1, among.data())) {
            walked.push_back(b);
          }
          EXPECT_EQ(walked, kept) << "row " << a;
        }
      }
    }
  }
}

TEST(TaskGraph, OverlappingBuffersMatchesPairwiseOverlap) {
  SplitMix rng{7};
  TaskGraph g;
  // Registrations at random bases (some empty, some sharing a base) plus
  // partitions of a few of them, so parents, blocks and aliases all occur.
  for (int b = 0; b < 60; ++b) {
    g.add_buffer_at("b" + std::to_string(b), static_cast<std::uint64_t>(rng.below(400)),
                    static_cast<std::uint64_t>(rng.below(6) == 0 ? 0 : rng.below(40)));
  }
  for (int p = 0; p < 5; ++p) g.partition(rng.below(60), 1 + rng.below(4));
  const auto overlaps = g.overlapping_buffers();
  const int nbuf = static_cast<int>(g.buffers().size());
  ASSERT_EQ(overlaps.size(), g.buffers().size());
  for (int a = 0; a < nbuf; ++a) {
    std::vector<int> expected;
    for (int b = 0; b < nbuf; ++b) {
      if (g.ranges_overlap(a, b)) expected.push_back(b);
    }
    EXPECT_EQ(overlaps[static_cast<std::size_t>(a)], expected) << "buffer " << a;
  }
}

TEST(TaskGraph, FindsDeclaredCycle) {
  TaskGraph g;
  // t0 forward-depends on t1, t1 backward-depends on t0: a declared cycle
  // the engine would silently break by dropping the forward half.
  g.add_task("t0", {}, {1});
  g.add_task("t1", {}, {0});
  const std::vector<int> cycle = g.find_declared_cycle();
  ASSERT_EQ(cycle.size(), 2u);
  EXPECT_NE(std::find(cycle.begin(), cycle.end(), 0), cycle.end());
  EXPECT_NE(std::find(cycle.begin(), cycle.end(), 1), cycle.end());
}

TEST(TaskGraph, AcyclicDeclaredDepsReportNoCycle) {
  TaskGraph g;
  const int t0 = g.add_task("t0", {});
  const int t1 = g.add_task("t1", {}, {t0});
  g.add_task("t2", {}, {t0, t1});
  EXPECT_TRUE(g.find_declared_cycle().empty());
}

TEST(TaskGraph, AddBufferAtRejectsWrappingRange) {
  TaskGraph g;
  // base + bytes past 2^64 would wrap and poison every overlap query.
  EXPECT_EQ(g.add_buffer_at("wrap", UINT64_MAX, 2), -1);
  EXPECT_EQ(g.add_buffer_at("wrap2", UINT64_MAX - 9, 10 + 1), -1);
  EXPECT_TRUE(g.buffers().empty());
  // The exact fit (base + bytes == 2^64) is still representable.
  EXPECT_GE(g.add_buffer_at("fit", UINT64_MAX - 10, 10), 0);
  // Fresh allocation would land past the top: it fails safely, it does
  // not wrap around into the low ranges.
  EXPECT_EQ(g.add_buffer("later", 64), -1);
}

TEST(TaskGraph, ZeroByteBuffersNeverOverlap) {
  TaskGraph g;
  const int a = g.add_buffer("a", 256);
  const int empty = g.add_buffer_at("empty", g.buffers()[a].base, 0);
  EXPECT_EQ(g.buffers()[empty].bytes, 0u);
  EXPECT_FALSE(g.ranges_overlap(a, empty));
  EXPECT_FALSE(g.ranges_overlap(empty, empty));
}

TEST(TaskGraph, OverlappingExplicitRangesAreModeled) {
  TaskGraph g;
  const int a = g.add_buffer("a", 256);
  // Partial overlap (tail of `a` / head of `b`) counts, not just identity.
  const int b = g.add_buffer_at("b", g.buffers()[a].base + 128, 256);
  EXPECT_TRUE(g.ranges_overlap(a, b));
  EXPECT_FALSE(g.same_lineage(a, b));
}

TEST(TaskGraph, RootOfWalksPartitionLineage) {
  TaskGraph g;
  const int root = g.add_buffer("m", 1000);
  const auto rows = g.partition(root, 2);
  const auto tiles = g.partition(rows[0], 2);
  EXPECT_EQ(g.root_of(root), root);
  EXPECT_EQ(g.root_of(rows[1]), root);
  EXPECT_EQ(g.root_of(tiles[0]), root);
  EXPECT_EQ(g.root_of(-1), -1);
  EXPECT_EQ(g.root_of(999), -1);
}

TEST(TaskGraph, RootLiveIntervalsSpanFirstToLastTouch) {
  TaskGraph g;
  const int a = g.add_buffer("a", 100);
  const int b = g.add_buffer("b", 100);
  const int idle = g.add_buffer("idle", 100);
  const auto blocks = g.partition(b, 2);
  g.add_task("t0", {{a, Access::kWrite}});
  g.add_task("t1", {{blocks[0], Access::kWrite}});
  g.add_task("t2", {{a, Access::kRead}, {blocks[1], Access::kRead}});
  const auto live = g.root_live_intervals();
  EXPECT_EQ(live[static_cast<std::size_t>(a)].first_task, 0);
  EXPECT_EQ(live[static_cast<std::size_t>(a)].last_task, 2);
  // A block touch counts against the root, and blocks carry the root's
  // interval so footprint queries can index by any handle.
  EXPECT_EQ(live[static_cast<std::size_t>(b)].first_task, 1);
  EXPECT_EQ(live[static_cast<std::size_t>(b)].last_task, 2);
  EXPECT_EQ(live[static_cast<std::size_t>(blocks[0])].first_task, 1);
  EXPECT_EQ(live[static_cast<std::size_t>(blocks[0])].last_task, 2);
  // Never-touched roots report an empty interval.
  EXPECT_EQ(live[static_cast<std::size_t>(idle)].first_task, -1);
  EXPECT_EQ(live[static_cast<std::size_t>(idle)].last_task, -1);
}

TEST(TaskGraph, SetTaskFlopsIsBoundsChecked) {
  TaskGraph g;
  const int t = g.add_task("t", {});
  EXPECT_EQ(g.tasks()[static_cast<std::size_t>(t)].flops, 0.0);
  g.set_task_flops(t, 2.5e9);
  EXPECT_EQ(g.tasks()[static_cast<std::size_t>(t)].flops, 2.5e9);
  g.set_task_flops(-1, 1.0);   // out of range: ignored, no crash
  g.set_task_flops(42, 1.0);
  EXPECT_EQ(g.tasks()[static_cast<std::size_t>(t)].flops, 2.5e9);
}

TEST(TaskGraph, PartitionOfPartitionKeepsLineage) {
  TaskGraph g;
  const int root = g.add_buffer("m", 1000);
  const auto rows = g.partition(root, 2);
  const auto tiles = g.partition(rows[0], 2);
  EXPECT_TRUE(g.same_lineage(root, tiles[0]));
  EXPECT_TRUE(g.same_lineage(rows[0], tiles[1]));
  EXPECT_FALSE(g.same_lineage(rows[1], tiles[0]));
  EXPECT_FALSE(g.ranges_overlap(rows[1], tiles[0]));
}

}  // namespace
}  // namespace starvm
