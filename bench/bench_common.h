// Shared benchmark scaffolding: cached INEX fixtures (database + indices +
// engines) keyed by generator options, so parameter sweeps don't rebuild
// the corpus per measurement. Each bench binary reproduces one table or
// figure of the paper's §5; counters expose the per-module breakdown the
// paper plots (PDT / Evaluator / Post-processing).
#ifndef QUICKVIEW_BENCH_BENCH_COMMON_H_
#define QUICKVIEW_BENCH_BENCH_COMMON_H_

#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include <benchmark/benchmark.h>

#include "baseline/gtp_termjoin.h"
#include "baseline/naive_engine.h"
#include "engine/view_search_engine.h"
#include "index/index_builder.h"
#include "storage/document_store.h"
#include "workload/inex_generator.h"
#include "workload/view_factory.h"

namespace quickview::bench {

/// Data-size scale factor 1 maps to this many bytes of inex.xml. The
/// paper's x-axis is 100..500 MB; the reproduction target is the *shape*
/// (ratios and scaling), so the default keeps full sweeps CI-friendly.
inline constexpr uint64_t kBytesPerScaleUnit = 2 * 1024 * 1024;

struct Fixture {
  std::shared_ptr<xml::Database> db;
  std::unique_ptr<index::DatabaseIndexes> indexes;
  std::unique_ptr<storage::DocumentStore> store;
  std::unique_ptr<engine::ViewSearchEngine> efficient;
  std::unique_ptr<baseline::NaiveEngine> naive;
  std::unique_ptr<baseline::GtpTermJoinEngine> gtp;
};

/// Builds (or returns the cached) fixture for the generator options.
inline Fixture& GetFixture(const workload::InexOptions& opts) {
  using Key = std::tuple<uint64_t, uint64_t, int, int, int>;
  static auto* cache = new std::map<Key, std::unique_ptr<Fixture>>();
  Key key{opts.target_bytes, opts.seed, opts.element_size_factor,
          static_cast<int>(opts.join_selectivity * 1000), opts.num_authors};
  auto it = cache->find(key);
  if (it == cache->end()) {
    auto fixture = std::make_unique<Fixture>();
    fixture->db = workload::GenerateInexDatabase(opts);
    fixture->indexes = index::BuildDatabaseIndexes(*fixture->db);
    fixture->store =
        std::make_unique<storage::DocumentStore>(*fixture->db);
    fixture->efficient = std::make_unique<engine::ViewSearchEngine>(
        fixture->db.get(), fixture->indexes.get(), fixture->store.get());
    fixture->naive =
        std::make_unique<baseline::NaiveEngine>(fixture->db.get());
    fixture->gtp = std::make_unique<baseline::GtpTermJoinEngine>(
        fixture->db.get(), fixture->indexes.get(), fixture->store.get());
    it = cache->emplace(key, std::move(fixture)).first;
  }
  return *it->second;
}

/// View + keywords through the unified entry point.
inline Result<engine::SearchResponse> ExecuteView(
    const engine::ViewSearchEngine& engine, const std::string& view,
    const std::vector<std::string>& keywords,
    const engine::SearchOptions& options) {
  engine::SearchRequest request;
  request.view = view;
  request.keywords = keywords;
  request.options = options;
  return engine.Execute(request);
}

/// Attaches the paper's Fig 14 module breakdown to a benchmark state
/// (values from the last search of the run — each is already per-call).
inline void ReportTimings(benchmark::State& state,
                          const engine::SearchResponse& response) {
  state.counters["pdt_ms"] = benchmark::Counter(response.timings.pdt_ms);
  state.counters["eval_ms"] = benchmark::Counter(response.timings.eval_ms);
  state.counters["post_ms"] = benchmark::Counter(response.timings.post_ms);
  state.counters["results"] = benchmark::Counter(
      static_cast<double>(response.stats.matching_results));
}

/// Crashes loudly on setup/search errors — a benchmark that silently
/// measures a failed search is worse than one that aborts.
template <typename ResultT>
inline auto DieOnError(ResultT result, const char* what) {
  if (!result.ok()) {
    fprintf(stderr, "FATAL %s: %s\n", what, result.status().ToString().c_str());
    abort();
  }
  return std::move(result).value();
}

}  // namespace quickview::bench

#endif  // QUICKVIEW_BENCH_BENCH_COMMON_H_
