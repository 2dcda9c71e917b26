// Randomized end-to-end parity (Theorem 4.1 under fuzz): across random
// book/review corpora and keyword subsets, the Efficient engine and the
// materialize-first Baseline must agree on every hit's XML, statistics,
// score and rank — and the Efficient engine, which scores its skeleton's
// view with a keyword set's term frequencies, must answer byte for byte
// as it does when it evaluates the view over PDTs built with the
// keywords.
#include <random>

#include <gtest/gtest.h>

#include "baseline/naive_engine.h"
#include "engine/view_search_engine.h"
#include "index/index_builder.h"
#include "keyword_pdts.h"
#include "storage/document_store.h"
#include "workload/bookrev_generator.h"

namespace quickview {
namespace {

class EngineParityProperty : public ::testing::TestWithParam<int> {};

TEST_P(EngineParityProperty, EfficientEqualsBaseline) {
  std::mt19937_64 rng(GetParam());
  workload::BookRevOptions gen;
  gen.seed = rng();
  gen.num_books = 10 + static_cast<int>(rng() % 60);
  gen.max_reviews_per_book = static_cast<int>(rng() % 5);
  auto db = workload::GenerateBookRevDatabase(gen);
  auto indexes = index::BuildDatabaseIndexes(*db);
  storage::DocumentStore store(*db);
  engine::ViewSearchEngine efficient(db.get(), indexes.get(), &store);
  baseline::NaiveEngine naive(db.get());

  const char* kTerms[] = {"xml",      "search", "web",     "database",
                          "services", "systems", "queries", "index",
                          "practice", "absent-term"};
  for (int round = 0; round < 6; ++round) {
    std::vector<std::string> keywords;
    size_t count = 1 + rng() % 3;
    for (size_t i = 0; i < count; ++i) keywords.push_back(kTerms[rng() % 10]);
    engine::SearchOptions options;
    options.top_k = 1 + rng() % 8;
    options.conjunctive = rng() % 2 == 0;

    engine::SearchRequest request;
    request.view = workload::BookRevView();
    request.keywords = keywords;
    request.options = options;
    auto eff = efficient.Execute(request);
    auto base = naive.SearchView(workload::BookRevView(), keywords, options);
    // The view evaluated per request over PDTs built with the keywords:
    // what the skeleton and its bundle must reproduce byte for byte.
    auto evaluated = testing_pdts::ExecuteOverKeywordPdts(
        efficient, {engine::ShardContext{db.get(), indexes.get(), &store}},
        request);
    ASSERT_TRUE(eff.ok()) << eff.status();
    ASSERT_TRUE(base.ok()) << base.status();
    ASSERT_TRUE(evaluated.ok()) << evaluated.status();
    ASSERT_EQ(eff->hits.size(), base->hits.size());
    ASSERT_EQ(eff->hits.size(), evaluated->hits.size());
    ASSERT_EQ(eff->stats.matching_results, base->stats.matching_results);
    ASSERT_EQ(eff->stats.view_results, base->stats.view_results);
    ASSERT_EQ(eff->stats.view_bytes, evaluated->stats.view_bytes);
    for (size_t i = 0; i < eff->hits.size(); ++i) {
      SCOPED_TRACE("round " + std::to_string(round) + " hit " +
                   std::to_string(i));
      EXPECT_EQ(eff->hits[i].tf, base->hits[i].tf);
      EXPECT_EQ(eff->hits[i].byte_length, base->hits[i].byte_length);
      EXPECT_DOUBLE_EQ(eff->hits[i].score, base->hits[i].score);
      EXPECT_EQ(eff->hits[i].xml, base->hits[i].xml);
      EXPECT_EQ(eff->hits[i].tf, evaluated->hits[i].tf);
      EXPECT_EQ(eff->hits[i].byte_length, evaluated->hits[i].byte_length);
      EXPECT_EQ(eff->hits[i].score, evaluated->hits[i].score);
      EXPECT_EQ(eff->hits[i].xml, evaluated->hits[i].xml);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EngineParityProperty,
                         ::testing::Range(100, 140));

}  // namespace
}  // namespace quickview
