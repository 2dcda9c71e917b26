// Trace-correctness acceptance: a traced 4-shard search yields exactly
// one "shard" span per shard with the full per-shard pipeline
// underneath (plan -> build_pdts -> evaluate), a merge span and a
// materialize span; every child's duration fits inside its parent; and
// the counters absorbed into the shard spans sum to exactly the
// cursor's EngineStats — the traced numbers ARE the stats, not a
// parallel bookkeeping that can drift. Serialization is byte-stable
// across runs modulo the timing fields.
#include <map>
#include <memory>
#include <regex>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/thread_pool.h"
#include "engine/result_cursor.h"
#include "engine/view_search_engine.h"
#include "index/index_builder.h"
#include "obs/trace.h"
#include "storage/document_store.h"
#include "storage/shard_set.h"
#include "workload/bookrev_generator.h"

namespace quickview::engine {
namespace {

struct TracedRun {
  std::shared_ptr<obs::Trace> trace;
  EngineStats stats;
  std::string serialized;
};

/// One traced search over a fresh 4-shard bookrev corpus, drained
/// completely; returns the quiescent trace plus the cursor's stats.
TracedRun RunTracedSearch(uint64_t trace_id) {
  workload::BookRevOptions opts;
  opts.num_books = 60;
  auto db = workload::GenerateBookRevDatabase(opts);
  storage::ShardingSpec spec;
  spec.shards = 4;
  spec.colocate_tag = "isbn";
  auto set = storage::ShardSet::Partition(*db, spec);
  EXPECT_TRUE(set.ok()) << set.status();
  ThreadPool pool(4);
  ViewSearchEngine engine(ShardContexts(*set), &pool);

  SearchRequest request;
  request.view = workload::BookRevView();
  request.keywords = {"xml", "search"};
  request.options.conjunctive = false;
  request.options.top_k = 10;
  request.trace = std::make_shared<obs::Trace>(trace_id);

  TracedRun run;
  run.trace = request.trace;
  auto cursor = engine.Open(request);
  EXPECT_TRUE(cursor.ok()) << cursor.status();
  auto hits = (*cursor)->FetchNext((*cursor)->pending());
  EXPECT_TRUE(hits.ok()) << hits.status();
  EXPECT_FALSE(hits->empty());
  run.stats = (*cursor)->stats();
  // The cursor co-owns the trace; drop it before serializing so the
  // trace is provably quiescent.
  (*cursor).reset();
  run.serialized = run.trace->Serialize();
  return run;
}

/// Strips the two timing fields — the only run-dependent bytes.
std::string StripTimings(const std::string& serialized) {
  static const std::regex kTiming(" start=[0-9]+us dur=[0-9]+us");
  return std::regex_replace(serialized, kTiming, "");
}

TEST(TraceTest, FourShardSearchYieldsOneSpanPerShardTask) {
  TracedRun run = RunTracedSearch(/*trace_id=*/42);
  std::vector<const obs::TraceSpan*> spans = run.trace->spans();
  ASSERT_FALSE(spans.empty());
  const obs::TraceSpan* root = spans[0];
  EXPECT_EQ(root->name(), "request");
  EXPECT_EQ(root->parent(), nullptr);

  // Exactly one shard span per shard id 0..3, each parented to the root,
  // each with the full pipeline underneath.
  std::map<int, const obs::TraceSpan*> shard_spans;
  std::map<int, std::vector<std::string>> children;
  int merge_spans = 0;
  int materialize_spans = 0;
  for (const obs::TraceSpan* span : spans) {
    if (span->name() == "shard") {
      EXPECT_EQ(span->parent(), root);
      EXPECT_TRUE(shard_spans.emplace(span->shard(), span).second)
          << "duplicate shard span for shard " << span->shard();
    } else if (span->parent() != nullptr &&
               span->parent()->name() == "shard") {
      EXPECT_EQ(span->shard(), span->parent()->shard())
          << "child span must carry its shard task's id";
      children[span->shard()].emplace_back(span->name());
    } else if (span->name() == "merge") {
      ++merge_spans;
      EXPECT_EQ(span->parent(), root);
    } else if (span->name() == "materialize") {
      ++materialize_spans;
      EXPECT_EQ(span->parent(), root);
    }
  }
  ASSERT_EQ(shard_spans.size(), 4u);
  for (int s = 0; s < 4; ++s) {
    ASSERT_TRUE(shard_spans.count(s)) << "missing span for shard " << s;
    ASSERT_EQ(children[s].size(), 3u) << "shard " << s;
    EXPECT_EQ(children[s][0], "plan");
    EXPECT_EQ(children[s][1], "build_pdts");
    EXPECT_EQ(children[s][2], "evaluate");
  }
  EXPECT_EQ(merge_spans, 1);
  EXPECT_EQ(materialize_spans, 1);

  // Every span is closed, and every child fits inside its parent.
  for (const obs::TraceSpan* span : spans) {
    EXPECT_TRUE(span->closed()) << span->name();
    if (span->parent() == nullptr) continue;
    const obs::TraceSpan* parent = span->parent();
    EXPECT_GE(span->start_ns(), parent->start_ns()) << span->name();
    EXPECT_LE(span->start_ns() + span->duration_ns(),
              parent->start_ns() + parent->duration_ns())
        << span->name() << " must end within " << parent->name();
  }
}

TEST(TraceTest, ShardSpanCountersSumToEngineStats) {
  TracedRun run = RunTracedSearch(/*trace_id=*/7);
  std::map<int, const obs::TraceSpan*> shard_spans;
  for (const obs::TraceSpan* span : run.trace->spans()) {
    if (span->name() == "shard") shard_spans[span->shard()] = span;
  }
  ASSERT_EQ(shard_spans.size(), 4u);

  // Per shard, the span's absorbed counters equal that shard's stats.
  ASSERT_EQ(run.stats.shards.size(), 4u);
  uint64_t view_results = 0, matching = 0, fetches = 0, store_bytes = 0;
  uint64_t pages = 0, buffer_hits = 0, pdt_bytes = 0, view_bytes = 0;
  for (size_t i = 0; i < run.stats.shards.size(); ++i) {
    const ShardStats& shard = run.stats.shards[i];
    const obs::TraceSpan* span = shard_spans.at(static_cast<int>(i));
    EXPECT_EQ(span->counter("view_results"), shard.view_results);
    EXPECT_EQ(span->counter("matching_results"), shard.matching_results);
    EXPECT_EQ(span->counter("store_fetches"), shard.store_fetches);
    EXPECT_EQ(span->counter("store_bytes"), shard.store_bytes);
    EXPECT_EQ(span->counter("pages_read"), shard.pages_read);
    EXPECT_EQ(span->counter("buffer_hits"), shard.buffer_hits);
    view_results += span->counter("view_results");
    matching += span->counter("matching_results");
    fetches += span->counter("store_fetches");
    store_bytes += span->counter("store_bytes");
    pages += span->counter("pages_read");
    buffer_hits += span->counter("buffer_hits");
    pdt_bytes += span->counter("pdt_bytes");
    view_bytes += span->counter("view_bytes");
  }
  // And summed over the shard spans, they equal the global totals — the
  // invariant that makes a trace a faithful decomposition of the stats.
  EXPECT_EQ(view_results, run.stats.search.view_results);
  EXPECT_EQ(matching, run.stats.search.matching_results);
  EXPECT_EQ(fetches, run.stats.search.store_fetches);
  EXPECT_EQ(store_bytes, run.stats.search.store_bytes);
  EXPECT_EQ(pages, run.stats.search.pages_read);
  EXPECT_EQ(buffer_hits, run.stats.search.buffer_hits);
  EXPECT_EQ(pdt_bytes, run.stats.search.pdt.pdt_bytes);
  EXPECT_EQ(view_bytes, run.stats.search.view_bytes);
  EXPECT_GT(view_results, 0u);
  EXPECT_GT(fetches, 0u);
}

TEST(TraceTest, SerializationIsByteStableModuloTiming) {
  // Two identical searches (racing shard tasks and all) must serialize
  // to identical trees once the timing fields are stripped: shard spans
  // are pre-created in shard order, so scheduler interleaving is
  // invisible in the rendered tree.
  TracedRun a = RunTracedSearch(/*trace_id=*/99);
  TracedRun b = RunTracedSearch(/*trace_id=*/99);
  EXPECT_EQ(StripTimings(a.serialized), StripTimings(b.serialized));

  // The rendered tree contains the full pipeline in flame order.
  const std::string stripped = StripTimings(a.serialized);
  EXPECT_NE(stripped.find("trace 99\n"), std::string::npos);
  EXPECT_NE(stripped.find("\n  shard shard=0"), std::string::npos);
  EXPECT_NE(stripped.find("\n    plan"), std::string::npos);
  EXPECT_NE(stripped.find("\n    build_pdts"), std::string::npos);
  EXPECT_NE(stripped.find("\n    evaluate"), std::string::npos);
  EXPECT_NE(stripped.find("\n  merge"), std::string::npos);
  EXPECT_NE(stripped.find("\n  materialize"), std::string::npos);
}

TEST(TraceTest, UntracedRequestRecordsNothing) {
  workload::BookRevOptions opts;
  opts.num_books = 20;
  auto db = workload::GenerateBookRevDatabase(opts);
  auto indexes = index::BuildDatabaseIndexes(*db);
  storage::DocumentStore store(*db);
  ViewSearchEngine engine(db.get(), indexes.get(), &store);

  SearchRequest request;
  request.view = workload::BookRevView();
  request.keywords = {"xml"};
  auto cursor = engine.Open(request);  // request.trace left null
  ASSERT_TRUE(cursor.ok()) << cursor.status();
  auto hits = (*cursor)->FetchNext(5);
  ASSERT_TRUE(hits.ok()) << hits.status();
}

}  // namespace
}  // namespace quickview::engine
