// Live-ingest benchmarks for the update write path:
//   BM_InsertThroughput         documents/sec through LiveDatabase's
//                               CommitInsert without a WAL (parse +
//                               per-document bulk index build + the next
//                               corpus version), at several document sizes,
//                               steady-state (a bounded window of
//                               documents is kept live via removals);
//   BM_ReplaceThroughput        same-name replacement — the same path,
//                               plus dropping the old version's document
//                               and indexes;
//   BM_QueryLatencyDuringIngest per-query latency through a live
//                               QueryService while a background mutator
//                               sustains document ingest. `unrelated`
//                               mutates documents the view never reads
//                               (cached PDTs stay warm); `replacing`
//                               rewrites reviews.xml on every insert, so
//                               every mutation invalidates the view's
//                               PDTs (cold-path upper bound).
#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <benchmark/benchmark.h>

#include "bench/bench_common.h"
#include "common/sync.h"
#include "service/query_service.h"
#include "storage/live_database.h"
#include "workload/bookrev_generator.h"
#include "xml/serializer.h"

namespace quickview::bench {
namespace {

/// A synthetic ingest document: `books` book elements with planted terms.
std::string IngestDocXml(int generation, int books) {
  std::string out = "<books>";
  for (int i = 0; i < books; ++i) {
    out += "<book><isbn>isbn-" + std::to_string(generation) + "-" +
           std::to_string(i) +
           "</isbn><title>xml search in practice</title><publisher>Morgan "
           "Kaufmann</publisher><year>2001</year></book>";
  }
  out += "</books>";
  return out;
}

void BM_InsertThroughput(benchmark::State& state) {
  const int books_per_doc = static_cast<int>(state.range(0));
  // Every iteration inserts a FRESH name (reusing a name would measure
  // a replacement instead, see BM_ReplaceThroughput) and removes the
  // name that fell out of a bounded window, so the corpus stays at
  // `kWindow` documents: steady-state insert+remove, not an
  // ever-growing snapshot.
  constexpr int kWindow = 64;
  storage::LiveDatabase live;
  int generation = 0;
  for (auto _ : state) {
    Status inserted = live.CommitInsert(
        "ingest" + std::to_string(generation) + ".xml",
        IngestDocXml(generation, books_per_doc));
    if (!inserted.ok()) {
      fprintf(stderr, "FATAL insert: %s\n", inserted.ToString().c_str());
      abort();
    }
    if (generation >= kWindow) {
      Status removed = live.CommitRemove(
          "ingest" + std::to_string(generation - kWindow) + ".xml");
      if (!removed.ok()) {
        fprintf(stderr, "FATAL remove: %s\n", removed.ToString().c_str());
        abort();
      }
    }
    ++generation;
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["docs_per_sec"] = benchmark::Counter(
      static_cast<double>(state.iterations()), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_InsertThroughput)
    ->Arg(1)->Arg(16)->Arg(128)
    ->Unit(benchmark::kMicrosecond)
    ->ArgName("books_per_doc");

void BM_ReplaceThroughput(benchmark::State& state) {
  const int books_per_doc = static_cast<int>(state.range(0));
  storage::LiveDatabase live;
  Status seeded = live.CommitInsert("hot.xml", IngestDocXml(0, books_per_doc));
  if (!seeded.ok()) abort();
  int generation = 1;
  for (auto _ : state) {
    Status replaced = live.CommitInsert(
        "hot.xml", IngestDocXml(generation++, books_per_doc));
    if (!replaced.ok()) {
      fprintf(stderr, "FATAL replace: %s\n", replaced.ToString().c_str());
      abort();
    }
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["docs_per_sec"] = benchmark::Counter(
      static_cast<double>(state.iterations()), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_ReplaceThroughput)
    ->Arg(16)->Arg(128)
    ->Unit(benchmark::kMicrosecond)
    ->ArgName("books_per_doc");

/// range(0) == 0: mutator writes documents the view never reads.
/// range(0) == 1: mutator replaces reviews.xml (view-invalidating).
void BM_QueryLatencyDuringIngest(benchmark::State& state) {
  const bool replacing = state.range(0) == 1;
  workload::BookRevOptions opts;
  opts.num_books = 120;
  opts.max_reviews_per_book = 4;
  storage::LiveDatabase live(workload::GenerateBookRevDatabase(opts));
  service::QueryServiceOptions options;
  options.threads = 2;
  service::QueryService service(&live, options);
  Status registered =
      service.RegisterView("bookrev", workload::BookRevView());
  if (!registered.ok()) abort();
  service::BatchQuery query{"bookrev", {"xml", "search"},
                            engine::SearchOptions{}};

  std::string reviews_text;
  if (replacing) {
    reviews_text =
        xml::Serialize(*live.Pin()->database.GetDocument("reviews.xml"));
  }
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> ingested{0};
  std::thread mutator([&] {
    int generation = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      Status mutated =
          replacing
              ? service.InsertDocument("reviews.xml", reviews_text)
              : service.InsertDocument(
                    "ingest" + std::to_string(generation % 32) + ".xml",
                    IngestDocXml(generation, 8));
      if (!mutated.ok()) abort();
      ++generation;
      ingested.fetch_add(1, std::memory_order_relaxed);
    }
  });

  for (auto _ : state) {
    DieOnError(service.SearchOne(query), "SearchOne");
  }
  stop.store(true, std::memory_order_relaxed);
  mutator.join();

  state.SetItemsProcessed(state.iterations());
  auto stats = service.stats();
  state.counters["ingested_docs"] =
      benchmark::Counter(static_cast<double>(ingested.load()));
  state.counters["cache_hit_rate"] = benchmark::Counter(
      stats.cache.hits + stats.cache.misses == 0
          ? 0.0
          : static_cast<double>(stats.cache.hits) /
                static_cast<double>(stats.cache.hits + stats.cache.misses));
}
BENCHMARK(BM_QueryLatencyDuringIngest)
    ->Arg(0)->Arg(1)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime()
    ->ArgName("replacing");

}  // namespace
}  // namespace quickview::bench

BENCHMARK_MAIN();
