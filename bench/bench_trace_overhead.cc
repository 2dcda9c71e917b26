// Tracing overhead: the same warm sharded search with request.trace
// null (the default search path) versus attached-and-serialized (what
// the server pays for a kFlagTrace request or under --trace-all). The
// obs::Trace contract is "near-zero cost when off, cheap when on": the
// traced variant pays span creation, monotonic clock reads, counter
// attribution, and the full text serialization, and must still land
// within a few percent of the untraced search.
//
// The benchmark pair reports both sides for bench/baseline.json; with
// QV_BENCH_ASSERT_OVERHEAD=1 the binary then measures the two variants
// interleaved (to cancel frequency/cache drift) and fails if the traced
// p50 exceeds the untraced p50 by more than 3%. Samples are timed in
// nanoseconds: a warm search takes tens of microseconds, so whole
// microseconds would make one rounding step a third of the budget.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include <benchmark/benchmark.h>

#include "bench/bench_common.h"
#include "common/thread_pool.h"
#include "engine/result_cursor.h"
#include "obs/trace.h"
#include "storage/shard_set.h"
#include "workload/bookrev_generator.h"

namespace quickview::bench {
namespace {

constexpr int kShards = 2;
constexpr size_t kPage = 10;

struct TraceOverheadFixture {
  std::shared_ptr<xml::Database> db;
  std::unique_ptr<storage::ShardSet> shard_set;
  std::unique_ptr<ThreadPool> pool;
};

TraceOverheadFixture& GetTraceOverheadFixture() {
  static auto* fixture = [] {
    auto f = new TraceOverheadFixture();
    workload::BookRevOptions opts;
    opts.num_books = 900;
    opts.max_reviews_per_book = 4;
    f->db = workload::GenerateBookRevDatabase(opts);
    storage::ShardingSpec spec;
    spec.shards = kShards;
    spec.colocate_tag = "isbn";
    auto set = storage::ShardSet::Partition(*f->db, spec);
    if (!set.ok()) {
      fprintf(stderr, "FATAL Partition: %s\n",
              set.status().ToString().c_str());
      abort();
    }
    f->shard_set =
        std::make_unique<storage::ShardSet>(std::move(*set));
    f->pool = std::make_unique<ThreadPool>(kShards);
    return f;
  }();
  return *fixture;
}

std::vector<engine::ShardContext> Contexts() {
  return engine::ShardContexts(*GetTraceOverheadFixture().shard_set);
}

engine::SearchRequest MakeRequest() {
  engine::SearchRequest request;
  request.view = workload::BookRevView();
  request.keywords = {"xml", "search"};
  request.options.conjunctive = false;
  request.options.top_k = kPage;
  return request;
}

/// Warm prepared queries, shared by both variants: an iteration pays
/// evaluation + merge + first-page materialization, the server's cache
/// steady state — the path whose latency tracing must not move.
std::vector<std::shared_ptr<const engine::PreparedQuery>> Prepare(
    engine::ViewSearchEngine& engine, const engine::SearchRequest& request) {
  std::vector<std::shared_ptr<const engine::PreparedQuery>> prepared;
  for (int s = 0; s < kShards; ++s) {
    auto plan = DieOnError(
        engine.PlanQuery(engine::ComposeKeywordQuery(
            request.view, request.keywords, request.options.conjunctive)),
        "PlanQuery");
    prepared.push_back(
        DieOnError(engine.BuildPdts(std::move(plan), s), "BuildPdts"));
  }
  return prepared;
}

/// One warm search; with tracing, also serializes the span tree (the
/// server does both for every traced request). Returns the serialized
/// size so the bench can report it.
size_t RunOnce(
    engine::ViewSearchEngine& engine,
    const std::vector<std::shared_ptr<const engine::PreparedQuery>>& prepared,
    bool traced, uint64_t trace_id) {
  engine::SearchRequest request = MakeRequest();
  if (traced) request.trace = std::make_shared<obs::Trace>(trace_id);
  auto cursor = DieOnError(engine.Open(request, prepared), "Open");
  auto hits = DieOnError(cursor->FetchNext(kPage), "FetchNext");
  benchmark::DoNotOptimize(hits);
  if (!traced) return 0;
  std::string tree = request.trace->Serialize();
  benchmark::DoNotOptimize(tree);
  return tree.size();
}

void RunVariant(benchmark::State& state, bool traced) {
  engine::ViewSearchEngine engine(Contexts(),
                                  GetTraceOverheadFixture().pool.get());
  const auto prepared = Prepare(engine, MakeRequest());
  uint64_t trace_id = 0;
  size_t trace_bytes = 0;
  for (auto _ : state) {
    trace_bytes = RunOnce(engine, prepared, traced, ++trace_id);
  }
  if (traced) {
    state.counters["trace_bytes"] =
        benchmark::Counter(static_cast<double>(trace_bytes));
  }
}

void BM_SearchUntraced(benchmark::State& state) {
  RunVariant(state, /*traced=*/false);
}
BENCHMARK(BM_SearchUntraced)->Unit(benchmark::kMillisecond);

void BM_SearchTraced(benchmark::State& state) {
  RunVariant(state, /*traced=*/true);
}
BENCHMARK(BM_SearchTraced)->Unit(benchmark::kMillisecond);

uint64_t PercentileNs(std::vector<uint64_t>& samples, double q) {
  std::sort(samples.begin(), samples.end());
  const size_t rank = std::min(
      samples.size() - 1, static_cast<size_t>(q * samples.size()));
  return samples[rank];
}

/// Interleaved A/B measurement: alternating the variants inside one loop
/// makes both sides see the same thermal / frequency / cache conditions,
/// so the p50 delta isolates the tracing cost itself.
int AssertOverhead() {
  engine::ViewSearchEngine engine(Contexts(),
                                  GetTraceOverheadFixture().pool.get());
  const auto prepared = Prepare(engine, MakeRequest());

  constexpr int kWarmup = 20;
  constexpr int kSamples = 300;
  for (int i = 0; i < kWarmup; ++i) {
    RunOnce(engine, prepared, /*traced=*/(i % 2) != 0, i + 1);
  }

  std::vector<uint64_t> untraced_ns, traced_ns;
  untraced_ns.reserve(kSamples);
  traced_ns.reserve(kSamples);
  for (int i = 0; i < 2 * kSamples; ++i) {
    const bool traced = (i % 2) != 0;
    const auto start = std::chrono::steady_clock::now();
    RunOnce(engine, prepared, traced, i + 1);
    const auto elapsed = std::chrono::duration_cast<std::chrono::nanoseconds>(
        std::chrono::steady_clock::now() - start);
    (traced ? traced_ns : untraced_ns)
        .push_back(static_cast<uint64_t>(elapsed.count()));
  }

  const uint64_t untraced_p50 = PercentileNs(untraced_ns, 0.50);
  const uint64_t traced_p50 = PercentileNs(traced_ns, 0.50);
  const double delta =
      untraced_p50 == 0
          ? 0.0
          : (static_cast<double>(traced_p50) - static_cast<double>(untraced_p50)) /
                static_cast<double>(untraced_p50);
  std::printf(
      "trace overhead: untraced p50 %.3fus, traced p50 %.3fus, delta "
      "%+.2f%% (budget +3%%)\n",
      static_cast<double>(untraced_p50) / 1e3,
      static_cast<double>(traced_p50) / 1e3, delta * 100.0);
  if (delta > 0.03) {
    std::fprintf(stderr,
                 "FAIL: tracing moved warm-search p50 by more than 3%%\n");
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace quickview::bench

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  const char* gate = std::getenv("QV_BENCH_ASSERT_OVERHEAD");
  if (gate != nullptr && gate[0] == '1') {
    return quickview::bench::AssertOverhead();
  }
  return 0;
}
