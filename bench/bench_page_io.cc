// Page I/O through the packed storage engine: what "show me the first
// 10" costs against a cold buffer pool over a .qvpack database, versus
// the drain-everything upper bound, versus fully in-memory execution —
// at several buffer-pool budgets. The point the numbers make: with lazy
// materialization the first page touches a small, bounded set of
// node-record pages, while a drain pages in base data proportional to
// the ~1000-match result set; the frame budget moves the hit/miss mix
// but not the answer bytes. "Cold" means a fresh pool per iteration (OS
// page cache effects are not controlled here — the counters, not the
// milliseconds, carry the I/O story on a warm filesystem).
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include <benchmark/benchmark.h>

#include "bench/bench_common.h"
#include "engine/result_cursor.h"
#include "pagestore/pack.h"
#include "pagestore/packed_db.h"
#include "workload/bookrev_generator.h"

namespace quickview::bench {
namespace {

struct PageIoFixture {
  std::shared_ptr<xml::Database> db;
  std::unique_ptr<index::DatabaseIndexes> indexes;
  std::unique_ptr<storage::DocumentStore> mem_store;
  std::string pack_path;
};

PageIoFixture& GetPageIoFixture() {
  static auto* fixture = [] {
    auto f = new PageIoFixture();
    // Same corpus as bench_paged_retrieval: the disjunctive four-term
    // query matches on the order of 1000 view results.
    workload::BookRevOptions opts;
    opts.num_books = 1800;
    opts.max_reviews_per_book = 4;
    f->db = workload::GenerateBookRevDatabase(opts);
    f->indexes = index::BuildDatabaseIndexes(*f->db);
    f->mem_store = std::make_unique<storage::DocumentStore>(*f->db);
    f->pack_path = (std::filesystem::temp_directory_path() /
                    "quickview_bench_page_io.qvpack")
                       .string();
    Status packed =
        pagestore::PackDatabase(*f->db, *f->indexes, f->pack_path);
    if (!packed.ok()) {
      fprintf(stderr, "FATAL PackDatabase: %s\n",
              packed.ToString().c_str());
      abort();
    }
    return f;
  }();
  return *fixture;
}

engine::SearchOptions MakeOptions() {
  engine::SearchOptions options;
  options.conjunctive = false;
  options.top_k = 1u << 20;  // the cursor streams every match
  return options;
}

engine::SearchRequest MakeRequest() {
  engine::SearchRequest request;
  request.view = workload::BookRevView();
  request.keywords = {"xml", "search", "web", "database"};
  request.options = MakeOptions();
  return request;
}

std::string MakeQueryText() {
  const engine::SearchRequest request = MakeRequest();
  return engine::ComposeKeywordQuery(request.view, request.keywords,
                                     request.options.conjunctive);
}

constexpr size_t kPage = 10;

void ReportPageIo(benchmark::State& state, const engine::SearchStats& stats,
                  const pagestore::BufferPoolStats& pool) {
  state.counters["matches"] =
      benchmark::Counter(static_cast<double>(stats.matching_results));
  state.counters["store_pages_read"] =
      benchmark::Counter(static_cast<double>(stats.pages_read));
  state.counters["store_buffer_hits"] =
      benchmark::Counter(static_cast<double>(stats.buffer_hits));
  state.counters["pool_misses"] =
      benchmark::Counter(static_cast<double>(pool.misses));
  state.counters["pool_evictions"] =
      benchmark::Counter(static_cast<double>(pool.evictions));
}

/// Cold packed run: open the db (empty pool), plan, build PDTs from
/// index pages, open a cursor and fetch either one page or everything.
void RunPackedCold(benchmark::State& state, size_t fetch_all) {
  PageIoFixture& fixture = GetPageIoFixture();
  const std::string query = MakeQueryText();
  const engine::SearchRequest request = MakeRequest();
  pagestore::BufferPoolOptions pool;
  pool.frames = static_cast<size_t>(state.range(0));
  engine::SearchStats last;
  pagestore::BufferPoolStats last_pool;
  for (auto _ : state) {
    auto packed =
        DieOnError(pagestore::PackedDb::Open(fixture.pack_path, pool),
                   "PackedDb::Open");
    storage::DocumentStore store(packed);
    engine::ViewSearchEngine engine(nullptr, packed.get(), &store);
    auto plan = DieOnError(engine.PlanQuery(query), "PlanQuery");
    auto prepared = DieOnError(engine.BuildPdts(std::move(plan)),
                               "BuildPdts");
    auto cursor = DieOnError(engine.Open(request, {prepared}), "Open");
    auto hits = DieOnError(
        cursor->FetchNext(fetch_all ? cursor->pending() : kPage),
        "FetchNext");
    benchmark::DoNotOptimize(hits);
    last = cursor->stats().search;
    last_pool = packed->pool().stats();
  }
  ReportPageIo(state, last, last_pool);
}

void BM_PageIoFirst10Cold(benchmark::State& state) {
  RunPackedCold(state, /*fetch_all=*/0);
}
BENCHMARK(BM_PageIoFirst10Cold)
    ->Arg(16)
    ->Arg(128)
    ->Arg(1024)
    ->Unit(benchmark::kMillisecond);

void BM_PageIoDrainAllCold(benchmark::State& state) {
  RunPackedCold(state, /*fetch_all=*/1);
}
BENCHMARK(BM_PageIoDrainAllCold)
    ->Arg(128)
    ->Arg(1024)
    ->Unit(benchmark::kMillisecond);

/// The in-memory reference: identical pipeline, zero page I/O.
void BM_PageIoInMemoryFirst10(benchmark::State& state) {
  PageIoFixture& fixture = GetPageIoFixture();
  const std::string query = MakeQueryText();
  const engine::SearchRequest request = MakeRequest();
  engine::ViewSearchEngine engine(fixture.db.get(), fixture.indexes.get(),
                                  fixture.mem_store.get());
  engine::SearchStats last;
  for (auto _ : state) {
    auto plan = DieOnError(engine.PlanQuery(query), "PlanQuery");
    auto prepared = DieOnError(engine.BuildPdts(std::move(plan)),
                               "BuildPdts");
    auto cursor = DieOnError(engine.Open(request, {prepared}), "Open");
    auto hits = DieOnError(cursor->FetchNext(kPage), "FetchNext");
    benchmark::DoNotOptimize(hits);
    last = cursor->stats().search;
  }
  state.counters["matches"] =
      benchmark::Counter(static_cast<double>(last.matching_results));
  state.counters["store_pages_read"] =
      benchmark::Counter(static_cast<double>(last.pages_read));
}
BENCHMARK(BM_PageIoInMemoryFirst10)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace quickview::bench

BENCHMARK_MAIN();
