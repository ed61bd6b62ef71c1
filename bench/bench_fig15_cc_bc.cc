// Paper Fig. 15 (Appendix E): GCGT extensions to Connected Components and
// Betweenness Centrality vs Gunrock and GPUCSR, with the scaled device
// memory budget (Gunrock OOMs on the two large datasets). GPUCSR CC is
// edge-centric (Soman et al.), which the paper notes is friendlier to
// twitter's super nodes than GCGT's node-centric frontier.
//
// One GcgtSession per dataset; the three engines are the session's backends
// answering the same CcQuery / BcQuery. A multi-source BC row (BC4) runs on
// GCGT only. GCGT rows additionally surface the decode-word counter.
#include <cstdio>

#include "bench/bench_common.h"

int main(int argc, char** argv) {
  using namespace gcgt;
  using bench::Cell;
  bench::JsonReport json(argc, argv);
  std::printf("== Fig. 15: CC and BC elapsed model time (ms) ==\n\n");

  auto datasets = bench::BuildDatasets();
  uint64_t budget = bench::DeviceBudgetBytes(datasets);
  std::printf("device memory budget (scaled 12GB): %.1f MB\n\n",
              budget / 1048576.0);
  std::printf("%-10s %-4s %12s %12s %12s\n", "dataset", "app", "Gunrock",
              "GPUCSR", "GCGT");

  // JSON/table order matches the printed columns.
  const Backend backends[] = {Backend::kCsrGunrock, Backend::kCsrBaseline,
                              Backend::kCgrSimt};

  for (const auto& d : datasets) {
    auto prepared = bench::PreparedSession(d.graph, budget);
    if (!prepared.ok()) continue;
    GcgtSession& session = prepared.value();
    const simt::CostModel cost = session.options().gcgt.cost;
    NodeId bc_source = bench::BfsSources(d.graph, 1)[0];
    std::vector<NodeId> bc4_sources = bench::BfsSources(d.graph, 4);

    auto run_row = [&](const char* app, const Query& query, Backend backend) {
      const double t0 = bench::NowNs();
      auto r = session.Run(query, {.backend = backend});
      const double wall = bench::NowNs() - t0;
      // OOM rows carry no measurement: zero both metrics and mark the row
      // so check_trend.py skips it explicitly.
      std::vector<std::pair<std::string, std::string>> extra = {
          {"oom", r.ok() ? "0" : "1"}};
      if (backend == Backend::kCgrSimt && r.ok()) {
        extra.emplace_back(
            "decode_words",
            std::to_string(r.value().metrics().warp.decode_words));
      }
      json.Add(d.name + "/" + app + "/" + BackendName(backend),
               r.ok() ? wall : 0.0,
               r.ok() ? bench::ModelCycles(r.value().metrics().model_ms, cost)
                      : 0.0,
               extra);
      std::printf(" %12s",
                  r.ok() ? Cell(r.value().metrics().model_ms, 12, 3).c_str()
                         : Cell("OOM", 12).c_str());
    };
    auto run_app = [&](const char* app, const Query& query) {
      std::printf("%-10s %-4s", d.name.c_str(), app);
      for (Backend backend : backends) run_row(app, query, backend);
      std::printf("\n");
    };
    run_app("CC", CcQuery{});
    run_app("BC", BcQuery{{bc_source}});

    // Multi-source BC re-traverses the same reachable set once per source
    // and direction: the decode-bound GCGT-only row.
    std::printf("%-10s %-4s %12s %12s", d.name.c_str(), "BC4",
                Cell("-", 12).c_str(), Cell("-", 12).c_str());
    run_row("BC4", BcQuery{bc4_sources}, Backend::kCgrSimt);
    std::printf("\n\n");
  }
  return 0;
}
