// QueryService: concurrent batches must produce results byte-identical to
// serial ViewSearchEngine runs, with the PDT cache counting hits and
// misses deterministically once warmed. Runs under the TSan CI leg.
#include "service/query_service.h"

#include <atomic>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "baseline/naive_engine.h"
#include "engine/view_search_engine.h"
#include "index/index_builder.h"
#include "common/thread_pool.h"
#include "storage/document_store.h"
#include "storage/shard_set.h"
#include "workload/bookrev_generator.h"
#include "xml/serializer.h"

namespace quickview::service {
namespace {

class QueryServiceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db_ = workload::GenerateBookRevDatabase(workload::BookRevOptions{});
    indexes_ = index::BuildDatabaseIndexes(*db_);
    store_ = std::make_unique<storage::DocumentStore>(*db_);
    engine_ = std::make_unique<engine::ViewSearchEngine>(
        db_.get(), indexes_.get(), store_.get());
    corpus_ = std::make_unique<storage::ShardSet>(
        storage::ShardSet::FromDatabase(db_));
  }

  std::unique_ptr<QueryService> MakeService(int threads,
                                            size_t cache_capacity = 128,
                                            size_t cache_shards = 8) {
    QueryServiceOptions options;
    options.threads = threads;
    options.cache.capacity = cache_capacity;
    options.cache.shards = cache_shards;
    auto service = std::make_unique<QueryService>(corpus_.get(), options);
    EXPECT_TRUE(
        service->RegisterView("bookrev", workload::BookRevView()).ok());
    return service;
  }

  static void ExpectSameResponse(const engine::SearchResponse& expected,
                                 const engine::SearchResponse& actual) {
    ASSERT_EQ(expected.hits.size(), actual.hits.size());
    for (size_t i = 0; i < expected.hits.size(); ++i) {
      EXPECT_EQ(expected.hits[i].xml, actual.hits[i].xml) << "hit " << i;
      EXPECT_EQ(expected.hits[i].score, actual.hits[i].score) << "hit " << i;
      EXPECT_EQ(expected.hits[i].tf, actual.hits[i].tf) << "hit " << i;
      EXPECT_EQ(expected.hits[i].byte_length, actual.hits[i].byte_length);
    }
    EXPECT_EQ(expected.stats.view_results, actual.stats.view_results);
    EXPECT_EQ(expected.stats.matching_results, actual.stats.matching_results);
    EXPECT_EQ(expected.stats.view_bytes, actual.stats.view_bytes);
    EXPECT_EQ(expected.stats.store_fetches, actual.stats.store_fetches);
    EXPECT_EQ(expected.stats.store_bytes, actual.stats.store_bytes);
    EXPECT_EQ(expected.stats.pdt.nodes_emitted, actual.stats.pdt.nodes_emitted);
    EXPECT_EQ(expected.stats.pdt.pdt_bytes, actual.stats.pdt.pdt_bytes);
  }

  std::shared_ptr<xml::Database> db_;
  std::unique_ptr<index::DatabaseIndexes> indexes_;
  std::unique_ptr<storage::DocumentStore> store_;
  std::unique_ptr<engine::ViewSearchEngine> engine_;
  std::unique_ptr<storage::ShardSet> corpus_;  // the service's one shard
};

// Serial oracle: the same view + keywords through the engine's unified
// entry point (view TEXT at the engine boundary).
Result<engine::SearchResponse> ExecView(
    const engine::ViewSearchEngine& engine, const std::string& view,
    const std::vector<std::string>& keywords,
    engine::SearchOptions options = {}) {
  engine::SearchRequest request;
  request.view = view;
  request.keywords = keywords;
  request.options = options;
  return engine.Execute(request);
}

const std::vector<std::vector<std::string>>& KeywordSets() {
  static const auto* kSets = new std::vector<std::vector<std::string>>{
      {"xml", "search"}, {"database"}, {"web", "xml"},
      {"search"},        {"xml"},      {"database", "web"}};
  return *kSets;
}

TEST_F(QueryServiceTest, ConcurrentIdenticalBatchMatchesSerial) {
  auto service = MakeService(/*threads=*/4);
  BatchQuery query{"bookrev", {"xml", "search"}, engine::SearchOptions{}};
  auto expected = ExecView(*engine_, workload::BookRevView(),
                           query.keywords, query.options);
  ASSERT_TRUE(expected.ok());
  ASSERT_FALSE(expected->hits.empty());

  // Warm the cache with serial calls so the batch counters below are
  // deterministic (no warm-up race between workers); the cache admits a
  // plan on its second sighting.
  ASSERT_TRUE(service->SearchOne(query).ok());
  ASSERT_TRUE(service->SearchOne(query).ok());
  EXPECT_EQ(service->stats().cache.misses, 2u);

  constexpr size_t kBatch = 32;
  std::vector<BatchQuery> batch(kBatch, query);
  auto responses = service->SearchBatch(batch);
  ASSERT_EQ(responses.size(), kBatch);
  for (const auto& response : responses) {
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    ExpectSameResponse(*expected, *response);
  }
  EXPECT_EQ(service->stats().cache.hits, kBatch);
  EXPECT_EQ(service->stats().cache.misses, 2u);
  EXPECT_EQ(service->stats().queries, kBatch + 2);
}

TEST_F(QueryServiceTest, ConcurrentDistinctBatchMatchesSerial) {
  auto service = MakeService(/*threads=*/8);
  std::vector<BatchQuery> batch;
  std::vector<engine::SearchResponse> expected;
  for (int repeat = 0; repeat < 3; ++repeat) {
    for (const auto& keywords : KeywordSets()) {
      BatchQuery query{"bookrev", keywords, engine::SearchOptions{}};
      query.options.conjunctive = keywords.size() % 2 == 1;
      auto serial = ExecView(*engine_, workload::BookRevView(), keywords,
                             query.options);
      ASSERT_TRUE(serial.ok());
      expected.push_back(std::move(*serial));
      batch.push_back(std::move(query));
    }
  }
  auto responses = service->SearchBatch(batch);
  ASSERT_EQ(responses.size(), batch.size());
  for (size_t i = 0; i < responses.size(); ++i) {
    ASSERT_TRUE(responses[i].ok()) << responses[i].status().ToString();
    ExpectSameResponse(expected[i], *responses[i]);
  }
  // Every distinct plan was built at least once; the second service pass
  // over the same batch is all hits.
  auto stats_after_first = service->stats().cache;
  EXPECT_GE(stats_after_first.misses, KeywordSets().size());
  auto second = service->SearchBatch(batch);
  for (const auto& response : second) ASSERT_TRUE(response.ok());
  auto stats_after_second = service->stats().cache;
  EXPECT_EQ(stats_after_second.misses, stats_after_first.misses);
  EXPECT_EQ(stats_after_second.hits, stats_after_first.hits + batch.size());
}

TEST_F(QueryServiceTest, CacheEvictsLruAtCapacity) {
  auto service = MakeService(/*threads=*/2, /*cache_capacity=*/2,
                             /*cache_shards=*/1);
  // Warm-up sightings: the cache admits a plan on its second sighting.
  for (const auto& keywords : KeywordSets()) {
    BatchQuery query{"bookrev", keywords, engine::SearchOptions{}};
    ASSERT_TRUE(service->SearchOne(query).ok());
  }
  for (const auto& keywords : KeywordSets()) {
    BatchQuery query{"bookrev", keywords, engine::SearchOptions{}};
    ASSERT_TRUE(service->SearchOne(query).ok());
  }
  EXPECT_GE(service->stats().cache.evictions,
            KeywordSets().size() - 2);
  EXPECT_EQ(service->stats().cache.hits, 0u);
}

TEST_F(QueryServiceTest, ReplacingViewInvalidatesCachedPdts) {
  auto service = MakeService(/*threads=*/2);
  BatchQuery query{"bookrev", {"xml"}, engine::SearchOptions{}};
  auto before = service->SearchOne(query);
  ASSERT_TRUE(before.ok());

  // Re-register the same name with a selection-only view; cached PDTs for
  // the old text must not answer for the new one.
  const std::string new_view =
      "for $b in fn:doc(books.xml)/books//book return $b";
  ASSERT_TRUE(service->RegisterView("bookrev", new_view).ok());
  auto after = service->SearchOne(query);
  ASSERT_TRUE(after.ok());
  auto expected = ExecView(*engine_, new_view, query.keywords,
                           query.options);
  ASSERT_TRUE(expected.ok());
  ExpectSameResponse(*expected, *after);
  EXPECT_NE(before->stats.view_results, after->stats.view_results);
}

TEST_F(QueryServiceTest, SameSignatureViewsNeverCrossHit) {
  // Two views with IDENTICAL text produce identical plan signatures;
  // only the view-name half of the cache key separates their entries.
  // Updating one must invalidate its entries alone — the sibling keeps
  // hitting its own (still correct) PDTs, and neither ever serves the
  // other's.
  auto service = MakeService(/*threads=*/1);
  ASSERT_TRUE(service->RegisterView("alpha", workload::BookRevView()).ok());
  ASSERT_TRUE(service->RegisterView("beta", workload::BookRevView()).ok());
  BatchQuery alpha{"alpha", {"xml"}, engine::SearchOptions{}};
  BatchQuery beta{"beta", {"xml"}, engine::SearchOptions{}};

  // Warm-up sightings: the cache admits a plan on its second sighting.
  ASSERT_TRUE(service->SearchOne(alpha).ok());
  ASSERT_TRUE(service->SearchOne(beta).ok());
  auto alpha_before = service->SearchOne(alpha);
  ASSERT_TRUE(alpha_before.ok());
  auto beta_before = service->SearchOne(beta);
  ASSERT_TRUE(beta_before.ok());
  // Same text, same plan — but distinct cache entries (2 misses each).
  EXPECT_EQ(service->stats().cache.misses, 4u);
  ExpectSameResponse(*alpha_before, *beta_before);

  // Update beta to a different view; alpha's cached entry must survive
  // AND keep answering with the old (still registered) text.
  const std::string new_view =
      "for $b in fn:doc(books.xml)/books//book return $b";
  ASSERT_TRUE(service->RegisterView("beta", new_view).ok());
  auto alpha_after = service->SearchOne(alpha);
  ASSERT_TRUE(alpha_after.ok());
  EXPECT_EQ(service->stats().cache.misses, 4u);  // alpha: cache hit
  ExpectSameResponse(*alpha_before, *alpha_after);

  auto beta_after = service->SearchOne(beta);
  ASSERT_TRUE(beta_after.ok());
  EXPECT_EQ(service->stats().cache.misses, 5u);  // beta: rebuilt
  auto expected = ExecView(*engine_, new_view, beta.keywords, beta.options);
  ASSERT_TRUE(expected.ok());
  ExpectSameResponse(*expected, *beta_after);
  EXPECT_NE(beta_after->stats.view_results, alpha_after->stats.view_results);
}

TEST_F(QueryServiceTest, UnknownViewIsPerSlotError) {
  auto service = MakeService(/*threads=*/2);
  std::vector<BatchQuery> batch{
      BatchQuery{"bookrev", {"xml"}, engine::SearchOptions{}},
      BatchQuery{"nope", {"xml"}, engine::SearchOptions{}}};
  auto responses = service->SearchBatch(batch);
  ASSERT_EQ(responses.size(), 2u);
  EXPECT_TRUE(responses[0].ok());
  EXPECT_FALSE(responses[1].ok());
  EXPECT_EQ(responses[1].status().code(), StatusCode::kNotFound);
}

TEST_F(QueryServiceTest, RegisterRejectsUnparsableView) {
  auto service = MakeService(/*threads=*/1);
  EXPECT_FALSE(service->RegisterView("bad", "for $x in ((((").ok());
}

TEST_F(QueryServiceTest, OpenCursorSurvivesCacheEviction) {
  // A 2-entry single-shard cache: the queries issued while the cursor is
  // half-drained are guaranteed to evict its PreparedQuery entry. The
  // cursor co-owns the bundle, so its remaining pages must still match a
  // serial engine run.
  auto service = MakeService(/*threads=*/2, /*cache_capacity=*/2,
                             /*cache_shards=*/1);
  BatchQuery query{"bookrev", {"xml", "search"}, engine::SearchOptions{}};
  query.options.conjunctive = false;
  auto expected = ExecView(*engine_, workload::BookRevView(),
                           query.keywords, query.options);
  ASSERT_TRUE(expected.ok());
  ASSERT_GE(expected->hits.size(), 4u);

  // Warm-up sightings: the cache admits a plan on its second sighting.
  ASSERT_TRUE(service->SearchOne(query).ok());
  for (const auto& keywords : KeywordSets()) {
    ASSERT_TRUE(
        service->SearchOne(BatchQuery{"bookrev", keywords,
                                      engine::SearchOptions{}})
            .ok());
  }

  auto cursor = service->OpenSearch(query);
  ASSERT_TRUE(cursor.ok()) << cursor.status().ToString();
  auto first = (*cursor)->FetchNext(2);
  ASSERT_TRUE(first.ok()) << first.status().ToString();

  uint64_t evictions_before = service->stats().cache.evictions;
  for (const auto& keywords : KeywordSets()) {
    ASSERT_TRUE(
        service->SearchOne(BatchQuery{"bookrev", keywords,
                                      engine::SearchOptions{}})
            .ok());
  }
  EXPECT_GT(service->stats().cache.evictions, evictions_before);

  auto rest = (*cursor)->FetchNext((*cursor)->pending());
  ASSERT_TRUE(rest.ok()) << rest.status().ToString();
  std::vector<engine::SearchHit> collected = std::move(*first);
  for (engine::SearchHit& hit : *rest) collected.push_back(std::move(hit));
  ASSERT_EQ(collected.size(), expected->hits.size());
  for (size_t i = 0; i < collected.size(); ++i) {
    EXPECT_EQ(collected[i].xml, expected->hits[i].xml) << "hit " << i;
    EXPECT_EQ(collected[i].score, expected->hits[i].score) << "hit " << i;
  }
}

TEST_F(QueryServiceTest, OpenCursorSurvivesViewReplacement) {
  auto service = MakeService(/*threads=*/2);
  BatchQuery query{"bookrev", {"xml"}, engine::SearchOptions{}};
  auto expected = ExecView(*engine_, workload::BookRevView(),
                           query.keywords, query.options);
  ASSERT_TRUE(expected.ok());

  auto cursor = service->OpenSearch(query);
  ASSERT_TRUE(cursor.ok()) << cursor.status().ToString();
  // Replace the view mid-cursor: the version bump orphans the cached
  // entry, but the open cursor keeps answering for the text it was
  // opened against.
  ASSERT_TRUE(service
                  ->RegisterView(
                      "bookrev",
                      "for $b in fn:doc(books.xml)/books//book return $b")
                  .ok());
  auto hits = (*cursor)->FetchNext((*cursor)->pending());
  ASSERT_TRUE(hits.ok()) << hits.status().ToString();
  ASSERT_EQ(hits->size(), expected->hits.size());
  for (size_t i = 0; i < hits->size(); ++i) {
    EXPECT_EQ((*hits)[i].xml, expected->hits[i].xml) << "hit " << i;
  }
}

TEST_F(QueryServiceTest, OpenSearchValidatesAtTheBoundary) {
  auto service = MakeService(/*threads=*/1);
  BatchQuery no_keywords{"bookrev", {}, engine::SearchOptions{}};
  auto cursor = service->OpenSearch(no_keywords);
  ASSERT_FALSE(cursor.ok());
  EXPECT_EQ(cursor.status().code(), StatusCode::kInvalidArgument);

  BatchQuery zero_k{"bookrev", {"xml"}, engine::SearchOptions{}};
  zero_k.options.top_k = 0;
  auto response = service->SearchOne(zero_k);
  ASSERT_FALSE(response.ok());
  EXPECT_EQ(response.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(QueryServiceTest, RejectsQuoteBearingKeyword) {
  // A quote would escape the single-quoted ftcontains literal and
  // rewrite the composed query; the service must refuse it up front.
  auto service = MakeService(/*threads=*/1);
  BatchQuery query{"bookrev",
                   {"x') return $qv"},
                   engine::SearchOptions{}};
  auto response = service->SearchOne(query);
  ASSERT_FALSE(response.ok());
  EXPECT_EQ(response.status().code(), StatusCode::kInvalidArgument);
}

// Second-sighting admission: a plan's PDTs enter the cache only once the
// plan has been built before.
TEST_F(QueryServiceTest, OneShotPlansNeverEnterTheCache) {
  auto service = MakeService(/*threads=*/2);
  constexpr size_t kPlans = 40;
  for (size_t i = 0; i < kPlans; ++i) {
    BatchQuery query{"bookrev", {"xml", "w" + std::to_string(i)},
                     engine::SearchOptions{}};
    query.options.conjunctive = false;
    ASSERT_TRUE(service->SearchOne(query).ok());
  }
  PreparedQueryCache::Stats cache = service->stats().cache;
  EXPECT_EQ(cache.misses, kPlans);
  EXPECT_EQ(cache.declined, kPlans);
  EXPECT_EQ(cache.insertions, 0u);
  EXPECT_EQ(cache.evictions, 0u);
}

TEST_F(QueryServiceTest, SecondSightingAdmits) {
  auto service = MakeService(/*threads=*/2);
  BatchQuery query{"bookrev", {"xml", "search"}, engine::SearchOptions{}};
  auto expected = ExecView(*engine_, workload::BookRevView(), query.keywords,
                           query.options);
  ASSERT_TRUE(expected.ok());
  for (int sighting = 1; sighting <= 3; ++sighting) {
    auto response = service->SearchOne(query);
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    ExpectSameResponse(*expected, *response);
  }
  PreparedQueryCache::Stats cache = service->stats().cache;
  EXPECT_EQ(cache.declined, 1u);    // first sighting
  EXPECT_EQ(cache.insertions, 1u);  // second sighting
  EXPECT_EQ(cache.misses, 2u);
  EXPECT_EQ(cache.hits, 1u);        // third
}

TEST_F(QueryServiceTest, PlanSeenBeforeReRegistrationIsAdmittedOnFirstMiss) {
  auto service = MakeService(/*threads=*/1);
  BatchQuery query{"bookrev", {"xml"}, engine::SearchOptions{}};
  ASSERT_TRUE(service->SearchOne(query).ok());
  EXPECT_EQ(service->stats().cache.declined, 1u);
  // Same text again: the version bump changes every cache key of the
  // view, but not the plan's admission key.
  ASSERT_TRUE(service->RegisterView("bookrev", workload::BookRevView()).ok());
  ASSERT_TRUE(service->SearchOne(query).ok());
  PreparedQueryCache::Stats cache = service->stats().cache;
  EXPECT_EQ(cache.misses, 2u);
  EXPECT_EQ(cache.declined, 1u);
  EXPECT_EQ(cache.insertions, 1u);
  ASSERT_TRUE(service->SearchOne(query).ok());
  EXPECT_EQ(service->stats().cache.hits, 1u);
}

TEST_F(QueryServiceTest, PlanSeenBeforeAWriteIsAdmittedOnFirstMiss) {
  storage::LiveDatabase live;
  QueryServiceOptions options;
  options.threads = 1;
  QueryService service(&live, options);
  for (const auto& [name, doc] : db_->documents()) {
    ASSERT_TRUE(service.InsertDocument(name, xml::Serialize(*doc)).ok());
  }
  ASSERT_TRUE(service.RegisterView("bookrev", workload::BookRevView()).ok());
  BatchQuery query{"bookrev", {"xml"}, engine::SearchOptions{}};
  ASSERT_TRUE(service.SearchOne(query).ok());
  EXPECT_EQ(service.stats().cache.declined, 1u);
  // Rewriting a document the view reads bumps the view's data epoch.
  ASSERT_TRUE(service
                  .InsertDocument("reviews.xml",
                                  xml::Serialize(
                                      *db_->GetDocument("reviews.xml")))
                  .ok());
  auto after = service.SearchOne(query);
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  PreparedQueryCache::Stats cache = service.stats().cache;
  EXPECT_EQ(cache.misses, 2u);
  EXPECT_EQ(cache.declined, 1u);
  EXPECT_EQ(cache.insertions, 1u);
  auto hit = service.SearchOne(query);
  ASSERT_TRUE(hit.ok()) << hit.status().ToString();
  EXPECT_EQ(service.stats().cache.hits, 1u);
  ExpectSameResponse(*after, *hit);
}

// A view's PDTs are built once per shard, not once per keyword set: a
// keyword set the cache has not seen annotates the view's cached
// keyword-free skeleton. On a 1-shard and a 4-shard corpus.
class SkeletonReuseTest : public QueryServiceTest,
                          public ::testing::WithParamInterface<int> {
 protected:
  void SetUp() override {
    QueryServiceTest::SetUp();
    storage::ShardingSpec spec;
    spec.shards = GetParam();
    spec.colocate_tag = "isbn";  // the BookRev view joins on isbn
    auto set = storage::ShardSet::Partition(*db_, spec);
    ASSERT_TRUE(set.ok()) << set.status();
    shards_ = std::make_unique<storage::ShardSet>(std::move(*set));
    QueryServiceOptions options;
    options.threads = 2;
    service_ = std::make_unique<QueryService>(shards_.get(), options);
    ASSERT_TRUE(
        service_->RegisterView("bookrev", workload::BookRevView()).ok());
    uncached_ = std::make_unique<engine::ViewSearchEngine>(
        engine::ShardContexts(*shards_), &pool_);
  }

  /// One query through the service; its answer must equal an uncached
  /// engine's over the same shards and the naive engine's.
  void Check(const std::string& view_name, const std::string& view_text,
             const std::vector<std::string>& keywords, bool conjunctive) {
    SCOPED_TRACE(view_name + " keywords " + std::to_string(keywords.size()) +
                 (conjunctive ? " and" : " or"));
    BatchQuery query{view_name, keywords, engine::SearchOptions{}};
    query.options.conjunctive = conjunctive;
    auto actual = service_->SearchOne(query);
    ASSERT_TRUE(actual.ok()) << actual.status();
    auto expected = ExecView(*uncached_, view_text, keywords, query.options);
    ASSERT_TRUE(expected.ok()) << expected.status();
    ExpectSameResponse(*expected, *actual);
    baseline::NaiveEngine naive(db_.get());
    auto oracle = naive.SearchView(view_text, keywords, query.options);
    ASSERT_TRUE(oracle.ok()) << oracle.status();
    ASSERT_EQ(oracle->hits.size(), actual->hits.size());
    for (size_t i = 0; i < oracle->hits.size(); ++i) {
      EXPECT_EQ(oracle->hits[i].xml, actual->hits[i].xml) << "hit " << i;
      EXPECT_EQ(oracle->hits[i].tf, actual->hits[i].tf) << "hit " << i;
      EXPECT_DOUBLE_EQ(oracle->hits[i].score, actual->hits[i].score);
    }
  }

  ThreadPool pool_{2};
  std::unique_ptr<storage::ShardSet> shards_;
  std::unique_ptr<QueryService> service_;
  std::unique_ptr<engine::ViewSearchEngine> uncached_;
};

TEST_P(SkeletonReuseTest, NewKeywordSetsAnnotateOneSkeletonPerShard) {
  const uint64_t shards = static_cast<uint64_t>(GetParam());
  // Two sightings admit the skeleton; each builds it on every shard.
  Check("bookrev", workload::BookRevView(), {"xml"}, true);
  Check("bookrev", workload::BookRevView(), {"search"}, true);
  const PreparedQueryCache::Stats admitted = service_->stats().cache;
  EXPECT_EQ(admitted.skeleton_misses, 2 * shards);
  EXPECT_EQ(admitted.skeleton_insertions, shards);
  EXPECT_EQ(admitted.skeleton_hits, 0u);

  const std::vector<std::vector<std::string>> sets = {
      {"web"},           {"database", "xml"}, {"xml", "search"},
      {"web", "database"}, {"systems"},       {"xml", "web", "search"}};
  for (size_t i = 0; i < sets.size(); ++i) {
    Check("bookrev", workload::BookRevView(), sets[i], i % 2 == 0);
  }
  const PreparedQueryCache::Stats after = service_->stats().cache;
  // Every set was new to the bundle level, and none rebuilt the PDTs.
  EXPECT_EQ(after.misses, admitted.misses + sets.size() * shards);
  EXPECT_EQ(after.skeleton_hits, sets.size() * shards);
  EXPECT_EQ(after.skeleton_misses, admitted.skeleton_misses);
  EXPECT_EQ(after.skeleton_insertions, shards);
}

TEST_P(SkeletonReuseTest, AnotherViewNeverHitsTheFirstViewsSkeleton) {
  const uint64_t shards = static_cast<uint64_t>(GetParam());
  // A selection-only view: another QPT shape over the same documents.
  const std::string books_view =
      "for $b in fn:doc(books.xml)/books//book return $b";
  ASSERT_TRUE(service_->RegisterView("books", books_view).ok());
  Check("bookrev", workload::BookRevView(), {"xml"}, true);
  Check("bookrev", workload::BookRevView(), {"search"}, true);
  ASSERT_EQ(service_->stats().cache.skeleton_insertions, shards);

  // The books view builds (and later admits) a skeleton of its own.
  const std::vector<std::vector<std::string>> sets = {
      {"web"}, {"database", "xml"}, {"systems"}, {"xml", "search"}};
  for (size_t i = 0; i < sets.size(); ++i) {
    Check("books", books_view, sets[i], i % 2 == 0);
  }
  PreparedQueryCache::Stats cache = service_->stats().cache;
  EXPECT_EQ(cache.skeleton_misses, 4 * shards);
  EXPECT_EQ(cache.skeleton_insertions, 2 * shards);
  EXPECT_EQ(cache.skeleton_hits, 2 * shards);  // its own, sets 3 and 4

  // And bookrev still answers from its own skeleton.
  Check("bookrev", workload::BookRevView(), {"web", "database"}, false);
  cache = service_->stats().cache;
  EXPECT_EQ(cache.skeleton_hits, 3 * shards);
  EXPECT_EQ(cache.skeleton_misses, 4 * shards);
}

INSTANTIATE_TEST_SUITE_P(Shards, SkeletonReuseTest, ::testing::Values(1, 4));

TEST(PreparedQueryCacheTest, DoorkeeperMemoryDoesNotGrowWithDistinctPlans) {
  PreparedQueryCache::Options options;
  options.capacity = 4;
  options.shards = 1;
  PreparedQueryCache cache(options);
  const size_t slots = cache.doorkeeper_slots();
  EXPECT_GT(slots, 0u);
  auto prepared = std::make_shared<const engine::PreparedQuery>();
  constexpr uint64_t kPlans = 100000;
  for (uint64_t plan = 0; plan < kPlans; ++plan) {
    const uint64_t sighting = std::hash<std::string>{}(std::to_string(plan));
    EXPECT_FALSE(cache.Offer("p" + std::to_string(plan), sighting, prepared));
  }
  EXPECT_EQ(cache.doorkeeper_slots(), slots);
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.stats().declined, kPlans);
  // The newest sighting is still remembered.
  const uint64_t last = std::hash<std::string>{}(std::to_string(kPlans - 1));
  EXPECT_TRUE(cache.Offer("last", last, prepared));
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.stats().insertions, 1u);

  PreparedQueryCache disabled(PreparedQueryCache::Options{0, 1, 0});
  EXPECT_EQ(disabled.doorkeeper_slots(), 0u);
  EXPECT_FALSE(disabled.Offer("k", 1, prepared));
  EXPECT_FALSE(disabled.Offer("k", 1, prepared));
}

TEST(ThreadPoolTest, RunsEverySubmittedTask) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 1000; ++i) {
    pool.Submit([&counter] { counter.fetch_add(1); });
  }
  pool.Drain();
  EXPECT_EQ(counter.load(), 1000);
}

TEST(ThreadPoolTest, DrainFromEmptyPoolReturns) {
  ThreadPool pool(2);
  pool.Drain();
  ThreadPool clamped(0);
  EXPECT_EQ(clamped.thread_count(), 1);
}

}  // namespace
}  // namespace quickview::service
