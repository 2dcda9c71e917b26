// The traditional (non-view) keyword-search path: deepest containing
// elements, exact subtree tf from the inverted index, TF-IDF ranking.
#include "engine/base_search.h"

#include <gtest/gtest.h>

#include "index/index_builder.h"
#include "xml/parser.h"
#include "xml/tokenizer.h"

namespace quickview::engine {
namespace {

class BaseSearchTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto doc = xml::ParseXml(
        "<lib>"
        "<book><title>xml basics</title>"
        "<chap><p>xml search intro</p><p>more search</p></chap></book>"
        "<book><title>cooking</title><chap><p>recipes</p></chap></book>"
        "</lib>",
        1);
    ASSERT_TRUE(doc.ok());
    db_.AddDocument("lib.xml", *doc);
    indexes_ = index::BuildDatabaseIndexes(db_);
  }

  xml::Database db_;
  std::unique_ptr<index::DatabaseIndexes> indexes_;
};

TEST_F(BaseSearchTest, ReturnsDeepestContainingElements) {
  auto hits = SearchBaseDocuments(db_, *indexes_, {"xml", "search"},
                                  SearchOptions{});
  ASSERT_TRUE(hits.ok()) << hits.status();
  // "xml search" together: deepest containers are the first p (1.1.2.1)
  // and — via title+chap — the book (1.1); the book qualifies but has a
  // qualifying descendant, so only the deepest stays... the first p
  // contains both directly.
  ASSERT_FALSE(hits->empty());
  for (const BaseSearchHit& hit : (*hits)) {
    // No hit may have another hit as descendant (deepest-only).
    for (const BaseSearchHit& other : (*hits)) {
      if (&hit == &other) continue;
      EXPECT_FALSE(hit.id.IsAncestorOf(other.id));
    }
    EXPECT_GT(hit.tf[0], 0u);
    EXPECT_GT(hit.tf[1], 0u);
    EXPECT_FALSE(hit.xml.empty());
  }
  EXPECT_EQ((*hits)[0].id.ToString(), "1.1.2.1");
}

TEST_F(BaseSearchTest, TfMatchesDirectCount) {
  auto hits = SearchBaseDocuments(db_, *indexes_, {"search"},
                                  SearchOptions{});
  ASSERT_TRUE(hits.ok());
  const xml::Document* doc = db_.GetDocument("lib.xml");
  for (const BaseSearchHit& hit : *hits) {
    xml::NodeIndex node = doc->FindByDewey(hit.id);
    EXPECT_EQ(hit.tf[0], xml::SubtreeTermFrequency(*doc, node, "search"));
  }
}

TEST_F(BaseSearchTest, DisjunctiveFindsEitherKeyword) {
  SearchOptions options;
  options.conjunctive = false;
  auto both = SearchBaseDocuments(db_, *indexes_, {"recipes", "cooking"},
                                  options);
  ASSERT_TRUE(both.ok());
  EXPECT_GE(both->size(), 2u);
}

TEST_F(BaseSearchTest, TopKAndOrdering) {
  SearchOptions options;
  options.top_k = 1;
  auto hits = SearchBaseDocuments(db_, *indexes_, {"search"}, options);
  ASSERT_TRUE(hits.ok());
  EXPECT_EQ(hits->size(), 1u);
  options.top_k = 100;
  hits = SearchBaseDocuments(db_, *indexes_, {"search"}, options);
  ASSERT_TRUE(hits.ok());
  for (size_t i = 1; i < hits->size(); ++i) {
    EXPECT_GE((*hits)[i - 1].score, (*hits)[i].score);
  }
}

TEST_F(BaseSearchTest, NoKeywordsIsAnError) {
  auto hits = SearchBaseDocuments(db_, *indexes_, {}, SearchOptions{});
  ASSERT_FALSE(hits.ok());
  EXPECT_EQ(hits.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(BaseSearchTest, UnknownKeywordYieldsNothing) {
  auto hits = SearchBaseDocuments(db_, *indexes_, {"zzzz"},
                                  SearchOptions{});
  ASSERT_TRUE(hits.ok());
  EXPECT_TRUE(hits->empty());
}

TEST_F(BaseSearchTest, SearchesEveryDocument) {
  auto extra = xml::ParseXml("<notes><n>search here too</n></notes>", 2);
  ASSERT_TRUE(extra.ok());
  db_.AddDocument("notes.xml", *extra);
  indexes_ = index::BuildDatabaseIndexes(db_);
  auto hits = SearchBaseDocuments(db_, *indexes_, {"search"},
                                  SearchOptions{});
  ASSERT_TRUE(hits.ok());
  bool saw_notes = false;
  for (const BaseSearchHit& hit : *hits) {
    if (hit.document == "notes.xml") saw_notes = true;
  }
  EXPECT_TRUE(saw_notes);
}

}  // namespace
}  // namespace quickview::engine
