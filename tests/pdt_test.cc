#include "pdt/generate_pdt.h"

#include <gtest/gtest.h>

#include "index/index_builder.h"
#include "qpt/generate_qpt.h"
#include "workload/bookrev_generator.h"
#include "xml/parser.h"
#include "xml/serializer.h"
#include "xml/tokenizer.h"
#include "xquery/parser.h"

namespace quickview::pdt {
namespace {

std::vector<qpt::Qpt> QptsFor(const std::string& view) {
  auto query = xquery::ParseQuery(view);
  EXPECT_TRUE(query.ok()) << query.status();
  auto qpts = qpt::GenerateQpts(&*query);
  EXPECT_TRUE(qpts.ok()) << qpts.status();
  return std::move(*qpts);
}

class PdtFig1Test : public ::testing::Test {
 protected:
  void SetUp() override {
    // Three books: one passing the year predicate with isbn, one failing
    // it, one passing without isbn (optional-edge case).
    auto books = xml::ParseXml(
        "<books>"
        "<book><isbn>111</isbn><title>XML Web Services</title>"
        "<year>1996</year></book>"
        "<book><isbn>222</isbn><title>Old One</title><year>1990</year>"
        "</book>"
        "<book><title>No Isbn</title><year>2001</year></book>"
        "</books>",
        1);
    // Reviews: two joinable, one with no isbn (mandatory-edge case).
    auto reviews = xml::ParseXml(
        "<reviews>"
        "<review><isbn>111</isbn><content>about search</content></review>"
        "<review><content>orphan review</content></review>"
        "<review><isbn>333</isbn><content>unrelated</content></review>"
        "</reviews>",
        2);
    ASSERT_TRUE(books.ok() && reviews.ok());
    db_.AddDocument("books.xml", *books);
    db_.AddDocument("reviews.xml", *reviews);
    indexes_ = index::BuildDatabaseIndexes(db_);
    qpts_ = QptsFor(workload::BookRevView());
    ASSERT_EQ(qpts_.size(), 2u);
  }

  xml::Database db_;
  std::unique_ptr<index::DatabaseIndexes> indexes_;
  std::vector<qpt::Qpt> qpts_;
  std::vector<std::string> keywords_{"xml", "search"};
};

TEST_F(PdtFig1Test, BookPdtKeepsOnlyPredicateSatisfyingBooks) {
  PdtBuildStats stats;
  auto pdt = GeneratePdt(qpts_[0], *indexes_->Get("books.xml"), keywords_,
                         &stats);
  ASSERT_TRUE(pdt.ok()) << pdt.status();
  const xml::Document& doc = **pdt;
  ASSERT_TRUE(doc.has_root());
  EXPECT_EQ(doc.node(doc.root()).tag, "books");
  // Books 1 (year 1996) and 3 (year 2001) survive; book 2 (1990) pruned.
  EXPECT_NE(doc.FindByDewey(xml::DeweyId::Parse("1.1")), xml::kInvalidNode);
  EXPECT_EQ(doc.FindByDewey(xml::DeweyId::Parse("1.2")), xml::kInvalidNode);
  EXPECT_NE(doc.FindByDewey(xml::DeweyId::Parse("1.3")), xml::kInvalidNode);
  EXPECT_GT(stats.nodes_emitted, 0u);
  EXPECT_GT(stats.ids_processed, 0u);
}

TEST_F(PdtFig1Test, ValuesSelectivelyMaterialized) {
  auto pdt =
      GeneratePdt(qpts_[0], *indexes_->Get("books.xml"), keywords_, nullptr);
  ASSERT_TRUE(pdt.ok());
  const xml::Document& doc = **pdt;
  // isbn ('v') carries its value; year ('v' via predicate) carries its
  // value; title ('c') carries statistics but no text.
  xml::NodeIndex isbn = doc.FindByDewey(xml::DeweyId::Parse("1.1.1"));
  ASSERT_NE(isbn, xml::kInvalidNode);
  EXPECT_EQ(doc.node(isbn).text, "111");
  xml::NodeIndex year = doc.FindByDewey(xml::DeweyId::Parse("1.1.3"));
  ASSERT_NE(year, xml::kInvalidNode);
  EXPECT_EQ(doc.node(year).text, "1996");
  xml::NodeIndex title = doc.FindByDewey(xml::DeweyId::Parse("1.1.2"));
  ASSERT_NE(title, xml::kInvalidNode);
  EXPECT_TRUE(doc.node(title).text.empty());
  ASSERT_NE(doc.node(title).stats, nullptr);
  EXPECT_TRUE(doc.node(title).stats->content_pruned);
}

TEST_F(PdtFig1Test, ContentNodeStatsMatchMaterializedContent) {
  auto pdt =
      GeneratePdt(qpts_[0], *indexes_->Get("books.xml"), keywords_, nullptr);
  ASSERT_TRUE(pdt.ok());
  const xml::Document& doc = **pdt;
  const xml::Document& base = *db_.GetDocument("books.xml");
  xml::NodeIndex title = doc.FindByDewey(xml::DeweyId::Parse("1.1.2"));
  ASSERT_NE(title, xml::kInvalidNode);
  const xml::NodeStats& stats = *doc.node(title).stats;
  xml::NodeIndex base_title = base.FindByDewey(xml::DeweyId::Parse("1.1.2"));
  // tf values per keyword match a direct count over the base subtree
  // (Theorem 4.1 part c).
  ASSERT_EQ(stats.term_tf.size(), 2u);
  EXPECT_EQ(stats.term_tf[0],
            xml::SubtreeTermFrequency(base, base_title, "xml"));
  EXPECT_EQ(stats.term_tf[1],
            xml::SubtreeTermFrequency(base, base_title, "search"));
  // Byte length matches the serialized base subtree (part b).
  EXPECT_EQ(stats.byte_length, xml::SubtreeByteLength(base, base_title));
  EXPECT_EQ(stats.source_doc, 1u);
  EXPECT_EQ(stats.source_id.ToString(), "1.1.2");
}

TEST_F(PdtFig1Test, OptionalEdgeKeepsBookWithoutIsbn) {
  auto pdt =
      GeneratePdt(qpts_[0], *indexes_->Get("books.xml"), keywords_, nullptr);
  ASSERT_TRUE(pdt.ok());
  // Book 3 has no isbn but year 2001 passes: present with title+year only.
  const xml::Document& doc = **pdt;
  xml::NodeIndex book3 = doc.FindByDewey(xml::DeweyId::Parse("1.3"));
  ASSERT_NE(book3, xml::kInvalidNode);
  EXPECT_EQ(doc.node(book3).children.size(), 2u);
}

TEST_F(PdtFig1Test, MandatoryEdgePrunesReviewWithoutIsbn) {
  auto pdt = GeneratePdt(qpts_[1], *indexes_->Get("reviews.xml"), keywords_,
                         nullptr);
  ASSERT_TRUE(pdt.ok());
  const xml::Document& doc = **pdt;
  // Review 2 (no isbn) pruned; reviews 1 and 3 kept (the join with books
  // happens later, in the evaluator).
  EXPECT_NE(doc.FindByDewey(xml::DeweyId::Parse("2.1")), xml::kInvalidNode);
  EXPECT_EQ(doc.FindByDewey(xml::DeweyId::Parse("2.2")), xml::kInvalidNode);
  EXPECT_NE(doc.FindByDewey(xml::DeweyId::Parse("2.3")), xml::kInvalidNode);
}

TEST_F(PdtFig1Test, PdtIsSmallerThanBase) {
  PdtBuildStats stats;
  auto pdt = GeneratePdt(qpts_[0], *indexes_->Get("books.xml"), keywords_,
                         &stats);
  ASSERT_TRUE(pdt.ok());
  const xml::Document& base = *db_.GetDocument("books.xml");
  EXPECT_LT(stats.pdt_bytes, xml::SubtreeByteLength(base, base.root()));
}

TEST(PdtEdgeCasesTest, EmptyResultProducesEmptyDocument) {
  auto books = xml::ParseXml(
      "<books><book><year>1980</year><title>Old</title></book></books>", 1);
  ASSERT_TRUE(books.ok());
  xml::Database db;
  db.AddDocument("books.xml", *books);
  auto indexes = index::BuildDatabaseIndexes(db);
  auto qpts = QptsFor(
      "for $b in fn:doc(books.xml)/books//book where $b/year > 1995 "
      "return <r>{$b/title}</r>");
  auto pdt = GeneratePdt(qpts[0], *indexes->Get("books.xml"), {}, nullptr);
  ASSERT_TRUE(pdt.ok()) << pdt.status();
  // The root has no qualifying book: nothing satisfies the descendant
  // constraint, so the PDT is empty.
  EXPECT_FALSE((*pdt)->has_root());
}

TEST(PdtEdgeCasesTest, DescendantGapSynthesizesPlaceholders) {
  auto doc = xml::ParseXml(
      "<r><wrap><deep><item><k>1</k></item></deep></wrap></r>", 1);
  ASSERT_TRUE(doc.ok());
  xml::Database db;
  db.AddDocument("d.xml", *doc);
  auto indexes = index::BuildDatabaseIndexes(db);
  auto qpts = QptsFor("for $i in fn:doc(d.xml)//item return <o>{$i/k}</o>");
  auto pdt = GeneratePdt(qpts[0], *indexes->Get("d.xml"), {}, nullptr);
  ASSERT_TRUE(pdt.ok()) << pdt.status();
  const xml::Document& out = **pdt;
  ASSERT_TRUE(out.has_root());
  // item sits at depth 4; the unmentioned r/wrap/deep ancestors appear as
  // structural placeholders so Dewey positions are preserved.
  xml::NodeIndex item = out.FindByDewey(xml::DeweyId::Parse("1.1.1.1"));
  ASSERT_NE(item, xml::kInvalidNode);
  EXPECT_EQ(out.node(item).tag, "item");
}

TEST(PdtEdgeCasesTest, RepeatingTagsTwigAASlashA) {
  // QPT //a//a over nested a's: only a-elements with an a-descendant AND
  // an a-ancestor qualify for the inner node; outer ones for the outer.
  auto doc = xml::ParseXml("<a><a><a><b/></a></a><c/></a>", 1);
  ASSERT_TRUE(doc.ok());
  xml::Database db;
  db.AddDocument("d.xml", *doc);
  auto indexes = index::BuildDatabaseIndexes(db);
  auto qpts = QptsFor("for $x in fn:doc(d.xml)//a//a return $x");
  auto pdt = GeneratePdt(qpts[0], *indexes->Get("d.xml"), {}, nullptr);
  ASSERT_TRUE(pdt.ok()) << pdt.status();
  const xml::Document& out = **pdt;
  ASSERT_TRUE(out.has_root());
  // The inner two a's (1.1, 1.1.1) are results; 1 is kept as their
  // ancestor (it matches the outer QPT node).
  EXPECT_NE(out.FindByDewey(xml::DeweyId::Parse("1.1")), xml::kInvalidNode);
  EXPECT_NE(out.FindByDewey(xml::DeweyId::Parse("1.1.1")),
            xml::kInvalidNode);
  // c (1.2) and b (1.1.1.1) match nothing.
  EXPECT_EQ(out.FindByDewey(xml::DeweyId::Parse("1.2")), xml::kInvalidNode);
  EXPECT_EQ(out.FindByDewey(xml::DeweyId::Parse("1.1.1.1")),
            xml::kInvalidNode);
}

}  // namespace
}  // namespace quickview::pdt
