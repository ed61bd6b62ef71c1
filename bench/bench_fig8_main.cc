// Paper Fig. 8: BFS elapsed time and compression rate of six approaches on
// the five datasets, after the unified preprocessing (VNC + LLP, Table 2
// parameters). CPU baselines report measured wall-clock on this host; GPU
// engines report simulator model time (see DESIGN.md); the comparison of
// interest is the *shape*: GPU >> CPU, GCGT within a small factor of GPUCSR,
// Gunrock OOM on the two large datasets, CGR rates 2x-18x.
//
// Each dataset is prepared ONCE into a GcgtSession; the three simulated-GPU
// approaches are the session's backends (kCgrSimt / kCsrBaseline /
// kCsrGunrock) answering the same BFS batch.
//
// `--json out.json` additionally records one row per (dataset, approach)
// with measured wall ns and modeled GPU cycles (see bench::JsonReport).
#include <cstdio>

#include "baseline/byte_rle.h"
#include "baseline/cpu_bfs.h"
#include "bench/bench_common.h"

int main(int argc, char** argv) {
  using namespace gcgt;
  using bench::Cell;
  using bench::NowNs;

  bench::JsonReport json(argc, argv);

  std::printf("== Fig. 8: BFS elapsed time + compression rate ==\n");
  std::printf(
      "Table 2 parameters: zeta3, min interval 4, LLP reordering, 32-byte "
      "residual segments.\nCPU rows: measured wall ms (2 threads). GPU rows: "
      "simulator model ms.\n\n");

  auto datasets = bench::BuildDatasets();
  uint64_t budget = bench::DeviceBudgetBytes(datasets);
  std::printf("device memory budget (scaled 12GB): %.1f MB\n\n",
              budget / 1048576.0);

  std::printf("%-10s %-12s %12s %12s\n", "dataset", "approach", "bfs_ms",
              "compr_rate");
  for (const auto& d : datasets) {
    const Graph& g = d.graph;
    auto sources = bench::BfsSources(g);
    auto batch = bench::BfsBatch(sources);
    ThreadPool pool(2);

    auto prepared = bench::PreparedSession(g, budget);
    if (!prepared.ok()) {
      std::printf("%-10s session prepare failed: %s\n", d.name.c_str(),
                  prepared.status().ToString().c_str());
      continue;
    }
    GcgtSession& session = prepared.value();
    const Graph& rev = session.reversed();
    ByteRleGraph rle = ByteRleGraph::Encode(g);
    ByteRleGraph rle_rev = ByteRleGraph::Encode(rev);

    double csr_rate = bench::RateVsRaw(d.raw_edges, 32ull * g.num_edges());
    double rle_rate = bench::RateVsRaw(d.raw_edges, 8ull * rle.DataBytes());
    double cgr_rate =
        bench::RateVsRaw(d.raw_edges, session.cgr().total_bits());

    // CPU approaches (wall clock, median of 3).
    double naive_ms = bench::WallMs([&] {
      for (NodeId s : sources) SerialBfs(g, s);
    }) / sources.size();
    double ligra_ms = bench::WallMs([&] {
      for (NodeId s : sources) LigraBfs(g, rev, s, pool);
    }) / sources.size();
    double ligrap_ms = bench::WallMs([&] {
      for (NodeId s : sources) LigraPlusBfs(rle, rle_rev, s, pool);
    }) / sources.size();

    // GPU approaches: the same query batch routed through each backend
    // (simulator model time averaged over sources; wall time of the
    // simulation itself recorded for the JSON perf trajectory).
    auto run_backend = [&](Backend backend,
                           double* wall_ns) -> bench::TimedResult {
      bench::TimedResult r;
      const double t0 = NowNs();
      auto results = session.RunBatch(batch, {.backend = backend});
      *wall_ns = NowNs() - t0;
      if (!results.ok()) {
        r.oom = results.status().IsOutOfMemory();
        return r;
      }
      for (const QueryResult& q : results.value()) {
        r.ms += q.metrics().model_ms;
      }
      r.ms /= sources.size();
      return r;
    };
    double gunrock_wall_ns = 0, gpucsr_wall_ns = 0, gcgt_wall_ns = 0;
    bench::TimedResult gunrock =
        run_backend(Backend::kCsrGunrock, &gunrock_wall_ns);
    bench::TimedResult gpucsr =
        run_backend(Backend::kCsrBaseline, &gpucsr_wall_ns);
    bench::TimedResult gcgt = run_backend(Backend::kCgrSimt, &gcgt_wall_ns);

    const simt::CostModel cost = session.options().gcgt.cost;
    auto cycles_of = [&](double model_ms) {
      return bench::ModelCycles(model_ms, cost);
    };
    auto row = [&](const char* name, double ms, bool oom, double rate,
                   double wall_ns, double model_cycles) {
      std::printf("%-10s %-12s %12s %12s\n", d.name.c_str(), name,
                  oom ? Cell("OOM", 12).c_str() : Cell(ms, 12, 3).c_str(),
                  Cell(rate, 12, 2).c_str());
      // OOM rows carry no measurement: both metrics are zeroed and the row
      // is marked so check_trend.py skips it explicitly instead of
      // comparing the few microseconds the failed attempt took.
      // CPU rows have no model: their ms is measured wall time, written as
      // bfs_wall_ms so that bfs_model_ms stays deterministic.
      const bool cpu = model_cycles == 0 && !oom;
      json.Add(d.name + "/" + name, oom ? 0.0 : wall_ns,
               oom ? 0.0 : model_cycles,
               {{"oom", oom ? "1" : "0"},
                {"compr_rate", Cell(rate, 0, 2)},
                {cpu ? "bfs_wall_ms" : "bfs_model_ms",
                 oom ? "OOM" : Cell(ms, 0, 3)}});
    };
    // CPU rows: wall_ns is the measured per-source BFS time; no model.
    row("Naive", naive_ms, false, csr_rate, naive_ms * 1e6, 0.0);
    row("Ligra", ligra_ms, false, csr_rate, ligra_ms * 1e6, 0.0);
    row("Ligra+", ligrap_ms, false, rle_rate, ligrap_ms * 1e6, 0.0);
    // GPU rows: wall_ns is the host time spent simulating all sources.
    row("Gunrock", gunrock.ms, gunrock.oom, csr_rate, gunrock_wall_ns,
        cycles_of(gunrock.ms * sources.size()));
    row("GPUCSR", gpucsr.ms, gpucsr.oom, csr_rate, gpucsr_wall_ns,
        cycles_of(gpucsr.ms * sources.size()));
    row("GCGT", gcgt.ms, gcgt.oom, cgr_rate, gcgt_wall_ns,
        cycles_of(gcgt.ms * sources.size()));
    if (!gcgt.oom && !gpucsr.oom) {
      std::printf("%-10s   GCGT/GPUCSR latency ratio: %.2fx at %.2fx the "
                  "compression\n",
                  "", gcgt.ms / gpucsr.ms, cgr_rate / csr_rate);
    }
    std::printf("\n");
  }
  return 0;
}
