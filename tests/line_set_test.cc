// Differential tests for the run-aware memory-accounting rewrite: LineSet's
// interval + open-addressed hybrid, WarpContext's run-merging MemAccess
// paths, and DenseRegionFilter are each checked against naive
// std::unordered_set oracles over randomized streams — `mem_txns` must match
// the one-line-at-a-time model EXACTLY, across line sizes, lane counts and
// epoch Clear() boundaries. An engine-level suite then asserts that
// BENCH_fig8-shape BFS runs produce bit-identical WarpStats between the
// serial and parallel engines for every lane-count x line-size combination.
#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <unordered_set>
#include <utility>
#include <vector>

#include "cgr/cgr_graph.h"
#include "core/bfs.h"
#include "core/cgr_traversal.h"
#include "core/frontier_filter.h"
#include "core/gcgt_options.h"
#include "core/memory_layout.h"
#include "graph/generators.h"
#include "simt/warp.h"

namespace gcgt {
namespace {

using simt::DenseRegionFilter;
using simt::LineSet;
using simt::WarpContext;
using simt::WarpStats;

/// The reference semantics: a plain set of line ids, inserted one line at a
/// time (exactly the pre-rewrite implementation).
class OracleSet {
 public:
  uint64_t InsertRun(uint64_t first, uint64_t n) {
    uint64_t novel = 0;
    for (uint64_t l = first; l < first + n; ++l) {
      novel += lines_.insert(l).second ? 1 : 0;
    }
    return novel;
  }
  void Clear() { lines_.clear(); }
  size_t size() const { return lines_.size(); }

 private:
  std::unordered_set<uint64_t> lines_;
};

/// Reference WarpContext memory model: per-line inserts of every byte
/// range, cleared at TakeStats — the exact pre-rewrite accounting.
class OracleContext {
 public:
  explicit OracleContext(int line_bytes) : line_bytes_(line_bytes) {}

  void Access(uint64_t addr, uint64_t bytes) {
    if (bytes == 0) return;
    for (uint64_t l = addr / line_bytes_; l <= (addr + bytes - 1) / line_bytes_;
         ++l) {
      txns_ += set_.InsertRun(l, 1);
    }
  }
  uint64_t TakeTxns() {
    uint64_t t = txns_;
    txns_ = 0;
    set_.Clear();
    return t;
  }

 private:
  uint64_t line_bytes_;
  OracleSet set_;
  uint64_t txns_ = 0;
};

TEST(LineSet, SingleInsertMatchesOracleOnRandomStream) {
  std::mt19937_64 rng(1234);
  LineSet set;
  OracleSet oracle;
  for (int epoch = 0; epoch < 20; ++epoch) {
    for (int i = 0; i < 2000; ++i) {
      // Mix dense clusters (re-touches) with scattered lines.
      uint64_t line = (rng() % 3 == 0) ? rng() % 64 : rng() % (1 << 20);
      ASSERT_EQ(set.Insert(line), oracle.InsertRun(line, 1) != 0);
      ASSERT_EQ(set.size(), oracle.size());
    }
    set.Clear();
    oracle.Clear();
    ASSERT_EQ(set.size(), 0u);
  }
}

TEST(LineSet, RunInsertMatchesOracleOnRandomStream) {
  std::mt19937_64 rng(99);
  LineSet set;
  OracleSet oracle;
  for (int epoch = 0; epoch < 20; ++epoch) {
    for (int i = 0; i < 1500; ++i) {
      uint64_t first = rng() % (1 << 16);
      uint64_t n = 1 + rng() % 64;  // crosses the small-run threshold
      ASSERT_EQ(set.InsertRun(first, n), oracle.InsertRun(first, n))
          << "first=" << first << " n=" << n << " i=" << i;
      ASSERT_EQ(set.size(), oracle.size());
    }
    set.Clear();
    oracle.Clear();
  }
}

TEST(LineSet, MixedSinglesAndRunsInterleaved) {
  // Singles land in the hash table, runs in the interval list; overlaps
  // between the two structures are the subtle cases.
  std::mt19937_64 rng(2025);
  LineSet set;
  OracleSet oracle;
  for (int i = 0; i < 30000; ++i) {
    uint64_t first;
    uint64_t n;
    switch (rng() % 4) {
      case 0:  // scattered single
        first = rng() % 4096;
        n = 1;
        break;
      case 1:  // single adjacent to likely-existing runs
        first = (rng() % 64) * 64 + rng() % 2;
        n = 1;
        break;
      case 2:  // long run over the singles' range
        first = rng() % 4096;
        n = 8 + rng() % 120;
        break;
      default:  // short straddle run
        first = rng() % 4096;
        n = 2 + rng() % 3;
        break;
    }
    ASSERT_EQ(set.InsertRun(first, n), oracle.InsertRun(first, n))
        << "first=" << first << " n=" << n << " i=" << i;
    ASSERT_EQ(set.size(), oracle.size());
    if (rng() % 1000 == 0) {
      set.Clear();
      oracle.Clear();
    }
  }
}

TEST(LineSet, RunAbsorbsMultipleIntervalsAndHashSingles) {
  LineSet set;
  OracleSet oracle;
  // Two intervals with a gap, plus scattered singles inside the gap.
  for (auto [f, n] : {std::pair<uint64_t, uint64_t>{100, 10},
                      std::pair<uint64_t, uint64_t>{200, 10}}) {
    ASSERT_EQ(set.InsertRun(f, n), oracle.InsertRun(f, n));
  }
  for (uint64_t l : {150ull, 160ull, 170ull}) {
    ASSERT_EQ(set.Insert(l), oracle.InsertRun(l, 1) != 0);
  }
  // A run covering everything: novel = gap lines minus the three singles.
  ASSERT_EQ(set.InsertRun(90, 150), oracle.InsertRun(90, 150));
  ASSERT_EQ(set.size(), oracle.size());
  // Fully covered re-insert is free.
  ASSERT_EQ(set.InsertRun(95, 100), 0u);
  ASSERT_EQ(set.Insert(155), false);
}

TEST(LineSet, EpochClearReallyEmpties) {
  LineSet set;
  EXPECT_EQ(set.InsertRun(10, 50), 50u);
  EXPECT_EQ(set.Insert(5000), true);
  set.Clear();
  EXPECT_EQ(set.size(), 0u);
  EXPECT_EQ(set.InsertRun(10, 50), 50u);  // everything cold again
  EXPECT_EQ(set.Insert(5000), true);
}

/// Drives WarpContext and the oracle with the same randomized op stream and
/// compares mem_txns at every TakeStats (warp) boundary.
void RunContextDifferential(int lanes, int line_bytes, uint64_t seed) {
  std::mt19937_64 rng(seed);
  WarpContext ctx(lanes, line_bytes);
  OracleContext oracle(line_bytes);
  std::vector<uint64_t> addrs;
  std::vector<std::pair<uint64_t, uint64_t>> ranges;

  for (int warp = 0; warp < 300; ++warp) {
    const int ops = 1 + static_cast<int>(rng() % 40);
    for (int op = 0; op < ops; ++op) {
      switch (rng() % 3) {
        case 0: {  // MemAccess: per-lane width-w gather
          const uint32_t width = 1 + static_cast<uint32_t>(rng() % 16);
          addrs.clear();
          const bool sorted_run = rng() % 2 == 0;
          uint64_t base = rng() % (1 << 22);
          for (int l = 0; l < lanes; ++l) {
            uint64_t a = sorted_run ? base + uint64_t(l) * width
                                    : rng() % (1 << 22);
            addrs.push_back(a);
            oracle.Access(a, width);
          }
          ctx.MemAccess(addrs, width);
          break;
        }
        case 1: {  // MemAccessRanges: per-lane inclusive byte ranges
          ranges.clear();
          for (int l = 0; l < lanes; ++l) {
            uint64_t lo = rng() % (1 << 22);
            uint64_t len = 1 + rng() % 300;
            ranges.emplace_back(lo, lo + len - 1);
            oracle.Access(lo, len);
          }
          ctx.MemAccessRanges(ranges);
          break;
        }
        default: {  // MemAccessRange: contiguous block (maybe empty)
          uint64_t addr = rng() % (1 << 22);
          uint64_t bytes = rng() % 4000;
          ctx.MemAccessRange(addr, bytes);
          if (bytes > 0) oracle.Access(addr, bytes);
          break;
        }
      }
    }
    ASSERT_EQ(ctx.TakeStats().mem_txns, oracle.TakeTxns())
        << "warp=" << warp << " lanes=" << lanes << " line=" << line_bytes;
  }
}

TEST(WarpContextDifferential, MemTxnsMatchOracleAcrossLaneAndLineSizes) {
  uint64_t seed = 7;
  for (int lanes : {8, 16, 32}) {
    for (int line_bytes : {8, 32, 64, 128}) {
      RunContextDifferential(lanes, line_bytes, seed++);
    }
  }
}

TEST(DenseRegionFilter, MatchesLineSetForAlignedElements) {
  // 4-byte elements, 128B lines: 32 elems per line, like the label region.
  DenseRegionFilter filter;
  filter.Configure(32, 1 << 16);
  std::mt19937_64 rng(77);
  for (int warp = 0; warp < 200; ++warp) {
    filter.NextWarp();
    OracleSet oracle;
    for (int i = 0; i < 500; ++i) {
      if (rng() % 4 == 0) {
        uint64_t first = rng() % (1 << 16);
        uint64_t last = first + rng() % 200;
        ASSERT_EQ(filter.TouchRange(first, last),
                  oracle.InsertRun(first / 32, last / 32 - first / 32 + 1));
      } else {
        uint64_t e = rng() % (1 << 16);
        ASSERT_EQ(filter.Touch(e), oracle.InsertRun(e / 32, 1));
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Engine-level bit-identity: BENCH_fig8-shape BFS runs must produce
// bit-identical frontiers and per-warp WarpStats between the serial
// reference and the parallel engine, for every lane-count x line-size
// combination (including the 8B minimum line, where an offset fills a whole
// line, and the 32B line that stresses the scattered LineSet path and the
// straddling decode reads).
// ---------------------------------------------------------------------------

Graph Fig8ShapeGraph() {
  WebGraphParams params;
  params.num_nodes = 1200;
  params.avg_degree = 10;
  params.seed = 4242;
  return GenerateWebGraph(params);
}

void RunEngineBitIdentity(uint32_t segment_len, int lanes, int line_bytes) {
  Graph g = Fig8ShapeGraph();
  CgrOptions copt;
  copt.segment_len_bytes = segment_len;
  auto cgr = CgrGraph::Encode(g, copt);
  ASSERT_TRUE(cgr.ok()) << cgr.status().ToString();

  auto options_for = [&](int threads) {
    GcgtOptions o;
    o.lanes = lanes;
    o.num_threads = threads;
    o.cost.cache_line_bytes = line_bytes;
    return o;
  };
  CgrTraversalEngine serial(cgr.value(), options_for(1));
  CgrTraversalEngine parallel(cgr.value(), options_for(4));

  BfsFilter f_serial(g.num_nodes()), f_parallel(g.num_nodes());
  const NodeId source = 1;
  f_serial.SetSource(source);
  f_parallel.SetSource(source);
  std::vector<NodeId> frontier_s{source}, frontier_p{source};
  while (!frontier_s.empty() || !frontier_p.empty()) {
    std::vector<NodeId> next_s, next_p;
    std::vector<WarpStats> warps_s, warps_p;
    serial.ProcessFrontier(frontier_s, f_serial, &next_s, &warps_s);
    parallel.ProcessFrontier(frontier_p, f_parallel, &next_p, &warps_p);
    ASSERT_EQ(next_s, next_p) << "lanes=" << lanes << " line=" << line_bytes
                              << " seg=" << segment_len;
    ASSERT_EQ(warps_s.size(), warps_p.size());
    for (size_t w = 0; w < warps_s.size(); ++w) {
      ASSERT_EQ(warps_s[w], warps_p[w])
          << "warp " << w << " lanes=" << lanes << " line=" << line_bytes
          << " seg=" << segment_len;
    }
    frontier_s.swap(next_s);
    frontier_p.swap(next_p);
  }
  ASSERT_EQ(f_serial.depth(), f_parallel.depth());
}

TEST(EngineBitIdentity, WarpStatsAcrossLaneAndLineSizes) {
  for (uint32_t seg : {0u, 32u}) {
    for (int lanes : {8, 16, 32}) {
      for (int line_bytes : {8, 32, 64, 128}) {
        RunEngineBitIdentity(seg, lanes, line_bytes);
      }
    }
  }
}

}  // namespace
}  // namespace gcgt
