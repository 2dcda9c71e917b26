// Microbenchmarks for the two index probes PrepareLists issues: per-path
// rows for a path pattern and one term's inverted list.
#include <benchmark/benchmark.h>

#include "bench/bench_common.h"

namespace quickview::bench {
namespace {

void BM_PathIndexProbe(benchmark::State& state) {
  workload::InexOptions opts;
  Fixture& fixture = GetFixture(opts);
  const index::PathIndex& index =
      fixture.indexes->Get("inex.xml")->path_index;
  index::PathPattern pattern{index::PathStep{false, "books"},
                             index::PathStep{true, "article"},
                             index::PathStep{false, "year"}};
  for (auto _ : state) {
    auto rows = index.LookUpPerPath(pattern, /*with_values=*/true);
    benchmark::DoNotOptimize(rows);
  }
}
BENCHMARK(BM_PathIndexProbe)->Unit(benchmark::kMicrosecond);

void BM_InvertedListScan(benchmark::State& state) {
  workload::InexOptions opts;
  Fixture& fixture = GetFixture(opts);
  const index::InvertedIndex& index =
      fixture.indexes->Get("inex.xml")->inverted_index;
  // "ieee" is the low-selectivity (long-list) term.
  for (auto _ : state) {
    auto postings = index.Lookup("ieee");
    benchmark::DoNotOptimize(postings);
  }
}
BENCHMARK(BM_InvertedListScan)->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace quickview::bench

BENCHMARK_MAIN();
