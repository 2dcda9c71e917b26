// Figure 14: per-module cost breakdown (PDT generation / Evaluator /
// Post-processing) of the Efficient engine while varying data size.
// Expected shape: all modules scale gracefully; the evaluator dominates
// as data grows; post-processing is negligible.
#include "bench/bench_common.h"

namespace quickview::bench {
namespace {

void BM_Modules(benchmark::State& state) {
  workload::InexOptions opts;
  opts.target_bytes = kBytesPerScaleUnit * static_cast<uint64_t>(
                                                state.range(0));
  Fixture& fixture = GetFixture(opts);
  std::string view = workload::BuildInexView(workload::ViewSpec{});
  auto keywords = workload::KeywordsForTier(workload::KeywordTier::kMedium);
  engine::SearchResponse last;
  for (auto _ : state) {
    last = DieOnError(ExecuteView(*fixture.efficient,
                          view, keywords, engine::SearchOptions{}),
                      "efficient");
  }
  ReportTimings(state, last);
  state.counters["qpt_ms"] = benchmark::Counter(last.timings.qpt_ms);
}
BENCHMARK(BM_Modules)->DenseRange(1, 5)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace quickview::bench

BENCHMARK_MAIN();
