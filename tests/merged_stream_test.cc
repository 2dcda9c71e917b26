// The sharded cursor: every shard's scored candidates pop from one
// ranked stream, so cross-shard ties must break by shard, then by view
// position (global view order under the contiguous partition) and match
// the unsharded engine hit for hit, with a shard that matches nothing
// left out; the one-shard sharded engine must be byte-identical to the
// unsharded engine; and cancellation after a satisfied FetchNext(k) must
// leave no shard task running. Runs under the Sanitize and TSan CI legs
// (the cancellation test exercises pool workers against cursor
// teardown).
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/cancellation.h"
#include "common/thread_pool.h"
#include "engine/result_cursor.h"
#include "engine/view_search_engine.h"
#include "index/index_builder.h"
#include "storage/document_store.h"
#include "storage/shard_set.h"
#include "workload/bookrev_generator.h"
#include "xml/parser.h"

namespace quickview::engine {
namespace {

class ShardedCursorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    workload::BookRevOptions opts;
    opts.num_books = 120;
    db_ = workload::GenerateBookRevDatabase(opts);
    storage::ShardingSpec spec;
    spec.shards = 4;
    spec.colocate_tag = "isbn";
    auto shards = storage::ShardSet::Partition(*db_, spec);
    ASSERT_TRUE(shards.ok()) << shards.status();
    shards_ = std::make_unique<storage::ShardSet>(std::move(*shards));
  }

  static SearchRequest MakeRequest(size_t top_k = 10) {
    SearchRequest request;
    request.view = workload::BookRevView();
    request.keywords = {"xml", "search"};
    request.options.top_k = top_k;
    request.options.conjunctive = false;
    return request;
  }

  std::shared_ptr<xml::Database> db_;
  std::unique_ptr<storage::ShardSet> shards_;
};

TEST_F(ShardedCursorTest, CancellationAfterSatisfiedFetchLeavesNoTask) {
  ThreadPool pool(4);
  ViewSearchEngine engine(ShardContexts(*shards_), &pool);

  auto token = std::make_shared<CancellationToken>();
  SearchRequest request = MakeRequest(/*top_k=*/5);
  request.cancel = token;

  auto cursor = engine.Open(request);
  ASSERT_TRUE(cursor.ok()) << cursor.status();
  // Open is a barrier: no shard task survives it, whatever happens next.
  EXPECT_FALSE(token->Fired());

  auto hits = (*cursor)->FetchNext(5);
  ASSERT_TRUE(hits.ok()) << hits.status();
  ASSERT_EQ(hits->size(), 5u);
  EXPECT_TRUE((*cursor)->Done());
  // The satisfied top-k budget fires the caller's token...
  EXPECT_TRUE(token->cancel_requested());
  // ...and the pool is quiescent: Drain() returns because nothing holds
  // a queued or running shard task (TSan would flag a racing leftover).
  pool.Drain();
  cursor->reset();
  pool.Drain();
}

TEST_F(ShardedCursorTest, CursorDestructionFiresToken) {
  ThreadPool pool(2);
  ViewSearchEngine engine(ShardContexts(*shards_), &pool);
  auto token = std::make_shared<CancellationToken>();
  SearchRequest request = MakeRequest(/*top_k=*/50);
  request.cancel = token;
  {
    auto cursor = engine.Open(request);
    ASSERT_TRUE(cursor.ok()) << cursor.status();
    auto two = (*cursor)->FetchNext(2);
    ASSERT_TRUE(two.ok());
    EXPECT_FALSE(token->cancel_requested()) << "budget not yet satisfied";
  }  // abandoned half-drained: the destructor must fire the token
  EXPECT_TRUE(token->cancel_requested());
  pool.Drain();
}

TEST_F(ShardedCursorTest, PreCancelledRequestIsRejectedTyped) {
  ThreadPool pool(2);
  ViewSearchEngine engine(ShardContexts(*shards_), &pool);
  auto token = std::make_shared<CancellationToken>();
  token->Cancel();
  SearchRequest request = MakeRequest();
  request.cancel = token;
  auto cursor = engine.Open(request);
  ASSERT_FALSE(cursor.ok());
  EXPECT_EQ(cursor.status().code(), StatusCode::kCancelled);
  pool.Drain();
}

TEST_F(ShardedCursorTest, OneShardShardedEngineByteIdenticalToUnsharded) {
  // The degenerate sharded engine (N=1 partition of the same corpus)
  // must reproduce the plain triple-constructed engine byte for byte.
  storage::ShardingSpec one;
  one.shards = 1;
  auto single = storage::ShardSet::Partition(*db_, one);
  ASSERT_TRUE(single.ok()) << single.status();
  ThreadPool pool(2);
  ViewSearchEngine sharded(ShardContexts(*single), &pool);

  auto indexes = index::BuildDatabaseIndexes(*db_);
  storage::DocumentStore store(*db_);
  ViewSearchEngine unsharded(db_.get(), indexes.get(), &store);

  SearchRequest request = MakeRequest(/*top_k=*/25);
  auto a = sharded.Execute(request);
  auto b = unsharded.Execute(request);
  ASSERT_TRUE(a.ok()) << a.status();
  ASSERT_TRUE(b.ok()) << b.status();
  ASSERT_EQ(a->hits.size(), b->hits.size());
  ASSERT_FALSE(a->hits.empty());
  EXPECT_EQ(a->stats.view_results, b->stats.view_results);
  EXPECT_EQ(a->stats.matching_results, b->stats.matching_results);
  for (size_t i = 0; i < a->hits.size(); ++i) {
    SCOPED_TRACE("hit " + std::to_string(i));
    EXPECT_EQ(a->hits[i].xml, b->hits[i].xml);
    EXPECT_EQ(a->hits[i].tf, b->hits[i].tf);
    EXPECT_EQ(a->hits[i].byte_length, b->hits[i].byte_length);
    EXPECT_DOUBLE_EQ(a->hits[i].score, b->hits[i].score);
  }
}

TEST_F(ShardedCursorTest, CrossShardTiesPopInUnshardedOrder) {
  // Eight books, two per shard, each with the same review. The titles
  // of books 0, 2 and 6 (shards 0, 1 and 3) differ but have one 'xml'
  // and one length, so they score equally; nothing on shard 2 mentions
  // 'xml'.
  const std::vector<std::string> titles{
      "xml tips in print", "web notes",         // shard 0
      "xml tips on print", "xml guide to xml",  // shard 1
      "database systems",  "web services",      // shard 2
      "xml tips at print", "search index"};     // shard 3
  std::string books = "<books>";
  std::string reviews = "<reviews>";
  for (size_t i = 0; i < titles.size(); ++i) {
    const std::string isbn = "<isbn>" + std::to_string(100 + i) + "</isbn>";
    books += "<book>" + isbn + "<title>" + titles[i] +
             "</title><year>2000</year></book>";
    reviews += "<review>" + isbn + "<content>easy to read</content></review>";
  }
  auto books_doc = xml::ParseXml(books + "</books>", 1);
  auto reviews_doc = xml::ParseXml(reviews + "</reviews>", 2);
  ASSERT_TRUE(books_doc.ok()) << books_doc.status();
  ASSERT_TRUE(reviews_doc.ok()) << reviews_doc.status();
  xml::Database db;
  db.AddDocument("books.xml", *books_doc);
  db.AddDocument("reviews.xml", *reviews_doc);
  storage::ShardingSpec spec;
  spec.shards = 4;
  spec.colocate_tag = "isbn";
  auto shards = storage::ShardSet::Partition(db, spec);
  ASSERT_TRUE(shards.ok()) << shards.status();

  SearchRequest request;
  request.view = workload::BookRevView();
  request.keywords = {"xml"};
  request.options.top_k = 100;

  ThreadPool pool(2);
  ViewSearchEngine sharded(ShardContexts(*shards), &pool);
  auto cursor = sharded.Open(request);
  ASSERT_TRUE(cursor.ok()) << cursor.status();
  const std::vector<ShardStats>& shard_stats = (*cursor)->stats().shards;
  ASSERT_EQ(shard_stats.size(), 4u);
  EXPECT_GT(shard_stats[2].view_results, 0u);
  EXPECT_EQ(shard_stats[2].matching_results, 0u);

  // Drain hit by hit; a hit's shard is the one whose fetch counter moved.
  std::vector<SearchHit> hits;
  std::vector<size_t> hit_shards;
  std::vector<uint64_t> fetches(4, 0);
  while (!(*cursor)->Done()) {
    auto page = (*cursor)->FetchNext(1);
    ASSERT_TRUE(page.ok()) << page.status();
    ASSERT_EQ(page->size(), 1u);
    hits.push_back(std::move(page->front()));
    std::vector<size_t> moved;
    for (size_t s = 0; s < fetches.size(); ++s) {
      if (shard_stats[s].store_fetches == fetches[s]) continue;
      fetches[s] = shard_stats[s].store_fetches;
      moved.push_back(s);
    }
    ASSERT_EQ(moved.size(), 1u) << "hit " << hits.size() - 1;
    hit_shards.push_back(moved[0]);
  }
  bool cross_shard_tie = false;
  for (size_t i = 0; i < hits.size(); ++i) {
    for (size_t j = i + 1; j < hits.size(); ++j) {
      cross_shard_tie |= hits[i].score == hits[j].score &&
                         hit_shards[i] != hit_shards[j];
    }
  }
  EXPECT_TRUE(cross_shard_tie) << "the corpus must tie scores across shards";

  auto indexes = index::BuildDatabaseIndexes(db);
  storage::DocumentStore store(db);
  ViewSearchEngine unsharded(&db, indexes.get(), &store);
  auto expected = unsharded.Execute(request);
  ASSERT_TRUE(expected.ok()) << expected.status();
  ASSERT_EQ(hits.size(), expected->hits.size());
  ASSERT_EQ(hits.size(), 4u);
  for (size_t i = 0; i < hits.size(); ++i) {
    SCOPED_TRACE("hit " + std::to_string(i));
    EXPECT_EQ(hits[i].xml, expected->hits[i].xml);
    EXPECT_EQ(hits[i].score, expected->hits[i].score);
    EXPECT_EQ(hits[i].tf, expected->hits[i].tf);
    EXPECT_EQ(hits[i].byte_length, expected->hits[i].byte_length);
  }
}

}  // namespace
}  // namespace quickview::engine
