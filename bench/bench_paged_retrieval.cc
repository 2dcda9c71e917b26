// Paged retrieval through the cursor API: the cost of "show me the first
// 10" against a query matching ~1000 view results, cold (PDT build on
// the critical path) vs warm (cached PDTs; open + first page only), and
// the drain-everything upper bound. The page benchmarks materialize 10
// hits regardless of match count — store fetches stay proportional to
// the page, not to the result set, which is the lazy-materialization
// guarantee the cursor API exists for.
#include <memory>
#include <string>
#include <vector>

#include <benchmark/benchmark.h>

#include "bench/bench_common.h"
#include "engine/result_cursor.h"
#include "service/query_service.h"
#include "workload/bookrev_generator.h"

namespace quickview::bench {
namespace {

/// One in-memory shard, large enough that the disjunctive four-term
/// query below matches on the order of 1000 view results.
const storage::ShardSet& GetPagedCorpus() {
  static const auto* corpus = [] {
    workload::BookRevOptions opts;
    opts.num_books = 1800;
    opts.max_reviews_per_book = 4;
    return new storage::ShardSet(storage::ShardSet::FromDatabase(
        workload::GenerateBookRevDatabase(opts)));
  }();
  return *corpus;
}

std::unique_ptr<service::QueryService> MakeService() {
  service::QueryServiceOptions options;
  options.threads = 1;  // cursors run on the calling thread
  auto query_service = std::make_unique<service::QueryService>(
      &GetPagedCorpus(), options);
  Status registered =
      query_service->RegisterView("bookrev", workload::BookRevView());
  if (!registered.ok()) {
    fprintf(stderr, "FATAL RegisterView: %s\n",
            registered.ToString().c_str());
    abort();
  }
  return query_service;
}

engine::SearchRequest MakeQuery() {
  engine::SearchRequest query;
  query.view = "bookrev";
  query.keywords = {"xml", "search", "web", "database"};
  query.options.conjunctive = false;
  query.options.top_k = 1u << 20;  // the cursor streams every match
  return query;
}

constexpr size_t kPage = 10;

void ReportStats(benchmark::State& state,
                 const engine::SearchStats& stats) {
  state.counters["matches"] = benchmark::Counter(
      static_cast<double>(stats.matching_results));
  state.counters["store_fetches"] = benchmark::Counter(
      static_cast<double>(stats.store_fetches));
}

/// Cold: every iteration pays plan + PDT build + open + one page.
void BM_PagedFirst10Cold(benchmark::State& state) {
  auto query_service = MakeService();
  engine::SearchRequest query = MakeQuery();
  engine::SearchStats last;
  for (auto _ : state) {
    query_service->ClearCache();
    auto cursor = DieOnError(query_service->OpenSearch(query), "OpenSearch");
    auto page = DieOnError(cursor->FetchNext(kPage), "FetchNext");
    benchmark::DoNotOptimize(page);
    last = cursor->stats().search;
  }
  ReportStats(state, last);
}
BENCHMARK(BM_PagedFirst10Cold)->Unit(benchmark::kMillisecond);

/// Warm: cached PDTs; an iteration is open (evaluate + score + heap) +
/// one materialized page of 10.
void BM_PagedFirst10Warm(benchmark::State& state) {
  auto query_service = MakeService();
  engine::SearchRequest query = MakeQuery();
  // Two sightings: the cache admits a plan on its second.
  DieOnError(query_service->SearchOne(query), "warmup");
  DieOnError(query_service->SearchOne(query), "warmup");
  engine::SearchStats last;
  for (auto _ : state) {
    auto cursor = DieOnError(query_service->OpenSearch(query), "OpenSearch");
    auto page = DieOnError(cursor->FetchNext(kPage), "FetchNext");
    benchmark::DoNotOptimize(page);
    last = cursor->stats().search;
  }
  ReportStats(state, last);
}
BENCHMARK(BM_PagedFirst10Warm)->Unit(benchmark::kMillisecond);

/// Warm drain: what a batch caller pays to materialize every match —
/// the upper bound the paged path avoids.
void BM_PagedDrainAllWarm(benchmark::State& state) {
  auto query_service = MakeService();
  engine::SearchRequest query = MakeQuery();
  // Two sightings: the cache admits a plan on its second.
  DieOnError(query_service->SearchOne(query), "warmup");
  DieOnError(query_service->SearchOne(query), "warmup");
  engine::SearchStats last;
  for (auto _ : state) {
    auto cursor = DieOnError(query_service->OpenSearch(query), "OpenSearch");
    auto everything =
        DieOnError(cursor->FetchNext(cursor->pending()), "FetchNext");
    benchmark::DoNotOptimize(everything);
    last = cursor->stats().search;
  }
  ReportStats(state, last);
}
BENCHMARK(BM_PagedDrainAllWarm)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace quickview::bench

BENCHMARK_MAIN();
