#include "engine/view_search_engine.h"

#include <gtest/gtest.h>

#include "index/index_builder.h"
#include "storage/document_store.h"
#include "workload/bookrev_generator.h"

namespace quickview::engine {
namespace {

class EngineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db_ = workload::GenerateBookRevDatabase(workload::BookRevOptions{});
    indexes_ = index::BuildDatabaseIndexes(*db_);
    store_ = std::make_unique<storage::DocumentStore>(*db_);
    engine_ = std::make_unique<ViewSearchEngine>(db_.get(), indexes_.get(),
                                                 store_.get());
  }

  // The unified entry point: a view and its keywords.
  Result<SearchResponse> ExecView(const std::string& view,
                                  std::vector<std::string> keywords,
                                  SearchOptions options = {}) {
    SearchRequest request;
    request.view = view;
    request.keywords = std::move(keywords);
    request.options = options;
    return engine_->Execute(request);
  }

  std::shared_ptr<xml::Database> db_;
  std::unique_ptr<index::DatabaseIndexes> indexes_;
  std::unique_ptr<storage::DocumentStore> store_;
  std::unique_ptr<ViewSearchEngine> engine_;
};

TEST_F(EngineTest, Fig2QueryEndToEnd) {
  auto response = ExecView(workload::BookRevView(), {"xml", "search"});
  ASSERT_TRUE(response.ok()) << response.status();
  ASSERT_FALSE(response->hits.empty());
  for (const SearchHit& hit : response->hits) {
    // Conjunctive semantics: every hit contains both keywords.
    ASSERT_EQ(hit.tf.size(), 2u);
    EXPECT_GT(hit.tf[0], 0u);
    EXPECT_GT(hit.tf[1], 0u);
    EXPECT_NE(hit.xml.find("<bookrevs>"), std::string::npos);
  }
  // Hits are sorted by descending score.
  for (size_t i = 1; i < response->hits.size(); ++i) {
    EXPECT_GE(response->hits[i - 1].score, response->hits[i].score);
  }
}

TEST_F(EngineTest, TopKLimitsHitsNotScoring) {
  SearchOptions options;
  options.top_k = 2;
  auto response = ExecView(workload::BookRevView(), {"xml"}, options);
  ASSERT_TRUE(response.ok()) << response.status();
  EXPECT_LE(response->hits.size(), 2u);
  EXPECT_GE(response->stats.matching_results, response->hits.size());
}

TEST_F(EngineTest, BaseDataTouchedOnlyForTopK) {
  SearchOptions options;
  options.top_k = 1;
  auto response = ExecView(workload::BookRevView(), {"xml"}, options);
  ASSERT_TRUE(response.ok()) << response.status();
  ASSERT_EQ(response->hits.size(), 1u);
  // Store fetches happen only during materialization of that single hit:
  // bounded by the result's pruned nodes, far below the match count.
  EXPECT_GT(response->stats.store_fetches, 0u);
  EXPECT_LE(response->stats.store_fetches, 16u);
}

TEST_F(EngineTest, StatsAndTimingsPopulated) {
  auto response = ExecView(workload::BookRevView(), {"xml", "search"});
  ASSERT_TRUE(response.ok()) << response.status();
  EXPECT_GT(response->stats.pdt.ids_processed, 0u);
  EXPECT_GT(response->stats.pdt.nodes_emitted, 0u);
  EXPECT_GT(response->stats.pdt.index_probes, 0u);
  EXPECT_GT(response->stats.pdt.pdt_bytes, 0u);
  EXPECT_GT(response->stats.view_results, 0u);
  EXPECT_GE(response->timings.total_ms(), 0.0);
}

TEST_F(EngineTest, NoMatchesYieldsEmptyHits) {
  auto response = ExecView(workload::BookRevView(), {"zzzznotpresent"});
  ASSERT_TRUE(response.ok()) << response.status();
  EXPECT_TRUE(response->hits.empty());
  EXPECT_EQ(response->stats.matching_results, 0u);
}

TEST_F(EngineTest, UnknownDocumentIsAnError) {
  auto response = ExecView("fn:doc(missing.xml)//a", {"x"});
  EXPECT_FALSE(response.ok());
}

TEST_F(EngineTest, MalformedQueryIsParseError) {
  auto response = ExecView("not a query", {"xml"});
  ASSERT_FALSE(response.ok());
  EXPECT_EQ(response.status().code(), StatusCode::kParseError);
}

TEST_F(EngineTest, QuoteInKeywordIsInvalidArgument) {
  // Pasted into its single-quoted literal, this one keyword would run as
  // the disjunction 'zzz' | 'web' and answer with the web books.
  auto response = ExecView(workload::BookRevView(), {"zzz' | 'web"});
  ASSERT_FALSE(response.ok());
  EXPECT_EQ(response.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(EngineTest, DisjunctiveSemantics) {
  SearchOptions options;
  options.conjunctive = false;
  auto disj = ExecView(workload::BookRevView(), {"xml", "database"}, options);
  options.conjunctive = true;
  auto conj = ExecView(workload::BookRevView(), {"xml", "database"}, options);
  ASSERT_TRUE(disj.ok() && conj.ok());
  EXPECT_GE(disj->stats.matching_results, conj->stats.matching_results);
}

}  // namespace
}  // namespace quickview::engine
