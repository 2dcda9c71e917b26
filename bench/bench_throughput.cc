// QueryService throughput on the bookrev workload: queries/sec for a
// mixed batch at 1..16 worker threads, with a cold PDT cache (every plan
// rebuilds its PDTs) vs a warm one (every plan hits). The paper evaluates
// one query at a time; this is the serving-scale counterpart the ROADMAP
// targets — expected shape: near-linear thread scaling up to the core
// count, and a warm cache that removes the whole PDT-generation module
// from the critical path.
#include <memory>
#include <string>
#include <vector>

#include <benchmark/benchmark.h>

#include "bench/bench_common.h"
#include "service/query_service.h"
#include "workload/bookrev_generator.h"

namespace quickview::bench {
namespace {

/// A corpus large enough that PDT generation is the dominant per-query
/// cost (the component the cache removes), as in the paper's data-heavy
/// configurations; one in-memory shard.
const storage::ShardSet& GetBookrevCorpus() {
  static const auto* corpus = [] {
    workload::BookRevOptions opts;
    opts.num_books = 600;
    opts.max_reviews_per_book = 5;
    return new storage::ShardSet(storage::ShardSet::FromDatabase(
        workload::GenerateBookRevDatabase(opts)));
  }();
  return *corpus;
}

/// A batch of `batch_size` queries with pairwise-distinct plan
/// signatures (every ordered non-empty subset of the planted terms is a
/// distinct signature), so a cleared cache misses on EVERY query of the
/// batch and a warmed cache hits on every one — the two endpoints the
/// cold/warm comparison wants.
std::vector<engine::SearchRequest> MakeBatch(size_t batch_size) {
  static const std::vector<std::vector<std::string>>* kSets = [] {
    const std::vector<std::string> terms{"xml", "search", "web", "database"};
    auto* sets = new std::vector<std::vector<std::string>>();
    // All ordered arrangements of size 1..4 of the four planted terms:
    // 4 + 12 + 24 + 24 = 64 distinct keyword lists.
    for (size_t a = 0; a < terms.size(); ++a) {
      sets->push_back({terms[a]});
      for (size_t b = 0; b < terms.size(); ++b) {
        if (b == a) continue;
        sets->push_back({terms[a], terms[b]});
        for (size_t c = 0; c < terms.size(); ++c) {
          if (c == a || c == b) continue;
          sets->push_back({terms[a], terms[b], terms[c]});
          for (size_t d = 0; d < terms.size(); ++d) {
            if (d == a || d == b || d == c) continue;
            sets->push_back({terms[a], terms[b], terms[c], terms[d]});
          }
        }
      }
    }
    return sets;
  }();
  std::vector<engine::SearchRequest> batch;
  batch.reserve(batch_size);
  for (size_t i = 0; i < batch_size; ++i) {
    engine::SearchRequest query;
    query.view = "bookrev";
    query.keywords = (*kSets)[i % kSets->size()];
    // Disjunctive semantics so even rare term combinations return
    // results to rank and materialize.
    query.options.conjunctive = false;
    batch.push_back(std::move(query));
  }
  return batch;
}

std::unique_ptr<service::QueryService> MakeService(int threads) {
  service::QueryServiceOptions options;
  options.threads = threads;
  auto query_service = std::make_unique<service::QueryService>(
      &GetBookrevCorpus(), options);
  Status registered =
      query_service->RegisterView("bookrev", workload::BookRevView());
  if (!registered.ok()) {
    fprintf(stderr, "FATAL RegisterView: %s\n",
            registered.ToString().c_str());
    abort();
  }
  return query_service;
}

void CheckBatch(
    const std::vector<Result<engine::SearchResponse>>& responses) {
  for (const auto& response : responses) {
    DieOnError(response, "SearchBatch");
  }
}

constexpr size_t kBatchSize = 64;

void BM_ThroughputCold(benchmark::State& state) {
  auto query_service = MakeService(static_cast<int>(state.range(0)));
  std::vector<engine::SearchRequest> batch = MakeBatch(kBatchSize);
  for (auto _ : state) {
    query_service->ClearCache();
    CheckBatch(query_service->SearchBatch(batch));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(kBatchSize));
  auto stats = query_service->stats();
  state.counters["hit_rate"] = benchmark::Counter(
      stats.cache.hits + stats.cache.misses == 0
          ? 0.0
          : static_cast<double>(stats.cache.hits) /
                static_cast<double>(stats.cache.hits + stats.cache.misses));
}
BENCHMARK(BM_ThroughputCold)
    ->Arg(1)->Arg(2)->Arg(4)->Arg(8)->Arg(16)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime()
    ->ArgName("threads");

void BM_ThroughputWarm(benchmark::State& state) {
  auto query_service = MakeService(static_cast<int>(state.range(0)));
  std::vector<engine::SearchRequest> batch = MakeBatch(kBatchSize);
  // Warm every signature: the cache admits a plan on its second sighting.
  CheckBatch(query_service->SearchBatch(batch));
  CheckBatch(query_service->SearchBatch(batch));
  // Snapshot after the warm-up passes so hit_rate covers only the timed
  // iterations (the warm-up's misses are not part of the measurement).
  auto warmed = query_service->stats();
  for (auto _ : state) {
    CheckBatch(query_service->SearchBatch(batch));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(kBatchSize));
  auto stats = query_service->stats();
  uint64_t hits = stats.cache.hits - warmed.cache.hits;
  uint64_t misses = stats.cache.misses - warmed.cache.misses;
  state.counters["hit_rate"] = benchmark::Counter(
      hits + misses == 0
          ? 0.0
          : static_cast<double>(hits) / static_cast<double>(hits + misses));
}
BENCHMARK(BM_ThroughputWarm)
    ->Arg(1)->Arg(2)->Arg(4)->Arg(8)->Arg(16)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime()
    ->ArgName("threads");

}  // namespace
}  // namespace quickview::bench

BENCHMARK_MAIN();
