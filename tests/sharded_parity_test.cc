// The tentpole acceptance suite: sharding is an execution strategy,
// never a semantic. Differential parity over >= 64 distinct query plan
// signatures at shard counts {1, 2, 4} — every response byte-identical
// to the unsharded engine — plus the lazy-materialization guarantee on
// a packed shard set (first-10 reads strictly fewer pages than a drain,
// per shard) and the shard-hint routing contract.
#include <filesystem>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/thread_pool.h"
#include "engine/result_cursor.h"
#include "engine/view_search_engine.h"
#include "index/index_builder.h"
#include "pagestore/shard_pack.h"
#include "storage/document_store.h"
#include "storage/shard_set.h"
#include "workload/bookrev_generator.h"

namespace quickview::engine {
namespace {

struct QuerySpec {
  std::vector<std::string> keywords;
  bool conjunctive = true;
};

/// Singles (conjunctive) plus every pair in both connectives over the
/// bookrev vocabulary: 9 + 36*2 = 81 candidate specs, comfortably over
/// the 64-signature floor the acceptance demands.
std::vector<QuerySpec> MakeQuerySpecs() {
  const std::vector<std::string> terms{
      "xml",     "search",  "web",   "database", "services",
      "systems", "queries", "index", "practice"};
  std::vector<QuerySpec> specs;
  for (const std::string& t : terms) specs.push_back({{t}, true});
  for (size_t i = 0; i < terms.size(); ++i) {
    for (size_t j = i + 1; j < terms.size(); ++j) {
      specs.push_back({{terms[i], terms[j]}, true});
      specs.push_back({{terms[i], terms[j]}, false});
    }
  }
  return specs;
}

SearchRequest MakeRequest(const QuerySpec& spec, size_t top_k = 10) {
  SearchRequest request;
  request.view = workload::BookRevView();
  request.keywords = spec.keywords;
  request.options.conjunctive = spec.conjunctive;
  request.options.top_k = top_k;
  return request;
}

void ExpectIdentical(const SearchResponse& expected,
                     const SearchResponse& actual,
                     const std::string& label) {
  EXPECT_EQ(expected.stats.view_results, actual.stats.view_results)
      << label;
  EXPECT_EQ(expected.stats.matching_results, actual.stats.matching_results)
      << label;
  EXPECT_EQ(expected.stats.view_bytes, actual.stats.view_bytes) << label;
  ASSERT_EQ(expected.hits.size(), actual.hits.size()) << label;
  for (size_t i = 0; i < expected.hits.size(); ++i) {
    SCOPED_TRACE(label + " hit " + std::to_string(i));
    // The materializer reserves byte_length and writes the XML once.
    EXPECT_EQ(expected.hits[i].xml.size(), expected.hits[i].byte_length);
    EXPECT_EQ(actual.hits[i].xml.size(), actual.hits[i].byte_length);
    EXPECT_EQ(expected.hits[i].xml, actual.hits[i].xml);
    EXPECT_EQ(expected.hits[i].tf, actual.hits[i].tf);
    EXPECT_EQ(expected.hits[i].byte_length, actual.hits[i].byte_length);
    EXPECT_DOUBLE_EQ(expected.hits[i].score, actual.hits[i].score);
  }
}

TEST(ShardedParityTest, SixtyFourSignaturesAtOneTwoFourShards) {
  workload::BookRevOptions opts;
  opts.num_books = 80;
  auto db = workload::GenerateBookRevDatabase(opts);
  auto indexes = index::BuildDatabaseIndexes(*db);
  storage::DocumentStore store(*db);
  ViewSearchEngine unsharded(db.get(), indexes.get(), &store);

  ThreadPool pool(4);
  std::vector<storage::ShardSet> shard_sets;
  std::vector<std::unique_ptr<ViewSearchEngine>> sharded;
  for (int n : {1, 2, 4}) {
    storage::ShardingSpec spec;
    spec.shards = n;
    spec.colocate_tag = "isbn";  // the BookRev view joins on isbn
    auto set = storage::ShardSet::Partition(*db, spec);
    ASSERT_TRUE(set.ok()) << set.status();
    shard_sets.push_back(std::move(*set));
    sharded.push_back(std::make_unique<ViewSearchEngine>(
        ShardContexts(shard_sets.back()), &pool));
  }

  std::set<std::string> signatures;
  for (const QuerySpec& spec : MakeQuerySpecs()) {
    SearchRequest request = MakeRequest(spec);
    auto plan = unsharded.PlanQuery(ComposeKeywordQuery(
        request.view, request.keywords, request.options.conjunctive));
    ASSERT_TRUE(plan.ok()) << plan.status();
    signatures.insert(plan->signature);

    auto expected = unsharded.Execute(request);
    ASSERT_TRUE(expected.ok()) << expected.status();
    for (size_t e = 0; e < sharded.size(); ++e) {
      auto actual = sharded[e]->Execute(request);
      ASSERT_TRUE(actual.ok()) << actual.status();
      std::string label;
      for (const std::string& k : spec.keywords) label += k + ",";
      label += spec.conjunctive ? "conj" : "disj";
      label += " @" + std::to_string(sharded[e]->shard_count()) + "sh";
      ExpectIdentical(*expected, *actual, label);
    }
  }
  EXPECT_GE(signatures.size(), 64u)
      << "differential must cover >= 64 distinct plan signatures";
}

TEST(ShardedParityTest, ShardHintExecutesOnlyThatShard) {
  workload::BookRevOptions opts;
  opts.num_books = 60;
  auto db = workload::GenerateBookRevDatabase(opts);
  storage::ShardingSpec spec;
  spec.shards = 4;
  spec.colocate_tag = "isbn";
  auto set = storage::ShardSet::Partition(*db, spec);
  ASSERT_TRUE(set.ok()) << set.status();
  ThreadPool pool(2);
  ViewSearchEngine engine(ShardContexts(*set), &pool);

  SearchRequest request;
  request.view = workload::BookRevView();
  request.keywords = {"xml"};
  request.shard = 2;
  auto cursor = engine.Open(request);
  ASSERT_TRUE(cursor.ok()) << cursor.status();
  ASSERT_EQ((*cursor)->stats().shards.size(), 1u);
  EXPECT_EQ((*cursor)->stats().shards[0].shard, 2);

  // A hinted search ranks against that shard's view alone: fewer view
  // results than the whole corpus.
  SearchRequest all = request;
  all.shard = -1;
  auto global = engine.Execute(all);
  ASSERT_TRUE(global.ok());
  EXPECT_LT((*cursor)->stats().search.view_results,
            global->stats.view_results);

  // Out-of-range hints are typed errors, not empty answers.
  SearchRequest beyond = request;
  beyond.shard = 4;
  auto bad = engine.Open(beyond);
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
}

TEST(ShardedParityTest, PackedShardFirstTenReadsFewerPagesPerShard) {
  // A ~1000-match disjunctive query over a 4-shard packed corpus:
  // fetching the global top 10 must read strictly fewer node-record
  // pages than draining everything — on EVERY shard, because unfetched
  // hits pin no pages anywhere.
  workload::BookRevOptions opts;
  opts.num_books = 1850;
  auto db = workload::GenerateBookRevDatabase(opts);
  storage::ShardingSpec spec;
  spec.shards = 4;
  spec.colocate_tag = "isbn";
  const std::string base =
      (std::filesystem::path(::testing::TempDir()) / "sharded_parity")
          .string();
  ASSERT_TRUE(pagestore::PackShardedDb(*db, spec, base).ok());

  SearchRequest request;
  request.view = workload::BookRevView();
  request.keywords = {"xml", "search", "web", "database"};
  request.options.conjunctive = false;
  request.options.top_k = 1u << 20;

  auto run = [&](size_t fetch) -> std::vector<ShardStats> {
    auto shards = storage::ShardSet::OpenPacked(base, /*total_frames=*/512);
    EXPECT_TRUE(shards.ok()) << shards.status();
    ViewSearchEngine engine(ShardContexts(*shards), nullptr);
    auto cursor = engine.Open(request);
    EXPECT_TRUE(cursor.ok()) << cursor.status();
    EXPECT_GT((*cursor)->stats().search.matching_results, 1000u)
        << "acceptance query must match on the order of 1000 results";
    auto hits = (*cursor)->FetchNext(
        fetch == 0 ? (*cursor)->pending() : fetch);
    EXPECT_TRUE(hits.ok()) << hits.status();
    if (hits.ok()) {
      for (const SearchHit& hit : *hits) {
        EXPECT_EQ(hit.xml.size(), hit.byte_length);
      }
    }
    return (*cursor)->stats().shards;
  };

  std::vector<ShardStats> first10 = run(10);
  std::vector<ShardStats> drain = run(0);
  ASSERT_EQ(first10.size(), 4u);
  ASSERT_EQ(drain.size(), 4u);
  for (size_t i = 0; i < 4; ++i) {
    SCOPED_TRACE("shard " + std::to_string(i));
    EXPECT_GT(drain[i].pages_read, 0u)
        << "a full drain materializes from every shard";
    EXPECT_LT(first10[i].pages_read, drain[i].pages_read)
        << "first-10 must read strictly fewer pages than a drain";
  }
}

}  // namespace
}  // namespace quickview::engine
