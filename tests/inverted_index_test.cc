#include "index/inverted_index.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "index/index_builder.h"
#include "xml/parser.h"

namespace quickview::index {
namespace {

using xml::DeweyId;

/// The inverted index of one parsed document (root component 1).
std::unique_ptr<InvertedIndex> IndexOf(const std::string& xml_text) {
  auto index = std::make_unique<InvertedIndex>();
  auto doc = xml::ParseXml(xml_text);
  EXPECT_TRUE(doc.ok()) << doc.status();
  if (doc.ok()) index->AddDocument(**doc);
  return index;
}

/// `id`'s tf in `term`'s list; 0 when the list does not hold `id`.
uint32_t TfOf(const InvertedIndex& index, const std::string& term,
              const DeweyId& id) {
  const std::vector<Posting> postings = *index.Lookup(term);
  for (const Posting& posting : postings) {
    if (posting.id == id) return posting.tf;
  }
  return 0;
}

TEST(InvertedIndexTest, ListsAreDeweyOrderedWithDirectTf) {
  auto index =
      IndexOf("<r><a><x>search</x></a><b>xml xml</b><c>xml</c></r>");
  auto postings = *index->Lookup("xml");
  ASSERT_EQ(postings.size(), 2u);
  EXPECT_EQ(postings[0].id.ToString(), "1.2");
  EXPECT_EQ(postings[0].tf, 2u);
  EXPECT_EQ(postings[1].id.ToString(), "1.3");
  EXPECT_EQ(postings[1].tf, 1u);
  ASSERT_EQ(index->Lookup("search")->size(), 1u);
  EXPECT_EQ((*index->Lookup("search"))[0].id.ToString(), "1.1.1");
  EXPECT_TRUE(index->Lookup("absent")->empty());
}

TEST(InvertedIndexTest, TagAndTextOccurrencesInOneElementAccumulate) {
  // The tag name and both (case-folded) text tokens are one element's.
  auto index = IndexOf("<r><xml>xml XML</xml></r>");
  EXPECT_EQ(TfOf(*index, "xml", DeweyId::Parse("1.1")), 3u);
  EXPECT_EQ(index->Lookup("xml")->size(), 1u);
}

TEST(InvertedIndexTest, ListsHoldOnlyDirectContainers) {
  auto index = IndexOf("<r><a>xml</a><b>web</b></r>");
  EXPECT_EQ(TfOf(*index, "xml", DeweyId::Parse("1.1")), 1u);
  EXPECT_EQ(TfOf(*index, "xml", DeweyId::Parse("1.2")), 0u);
  EXPECT_EQ(TfOf(*index, "search", DeweyId::Parse("1.1")), 0u);
}

TEST(InvertedIndexTest, ListLength) {
  std::string xml_text = "<r>";
  for (int i = 1; i <= 9; ++i) xml_text += "<e>t</e>";
  auto index = IndexOf(xml_text + "</r>");
  EXPECT_EQ(index->Lookup("t")->size(), 9u);
  EXPECT_EQ(index->Lookup("u")->size(), 0u);
}

TEST(InvertedIndexTest, NoCrossTermBleedWithPrefixTerms) {
  // "xml" and "xmls" share a prefix; their lists must stay apart.
  auto index = IndexOf("<r><a>xml</a><b>xmls</b></r>");
  EXPECT_EQ(index->Lookup("xml")->size(), 1u);
  EXPECT_EQ(index->Lookup("xmls")->size(), 1u);
}

TEST(IndexBuilderTest, DirectContainmentOnly) {
  auto parsed = xml::ParseXml(
      "<book><title>xml search</title><review>"
      "<content>about xml</content></review></book>");
  ASSERT_TRUE(parsed.ok());
  auto indexes = BuildDocumentIndexes(**parsed);
  // "xml" is directly contained by title (1.1) and content (1.2.1) only —
  // not by their ancestors.
  auto postings = *indexes->inverted_index.Lookup("xml");
  ASSERT_EQ(postings.size(), 2u);
  EXPECT_EQ(postings[0].id.ToString(), "1.1");
  EXPECT_EQ(postings[1].id.ToString(), "1.2.1");
  // Tag names are terms of the element itself.
  EXPECT_EQ(TfOf(indexes->inverted_index, "book", DeweyId::Parse("1")), 1u);
  EXPECT_EQ(TfOf(indexes->inverted_index, "title", DeweyId::Parse("1.1")),
            1u);
}

TEST(IndexBuilderTest, DatabaseIndexesPerDocument) {
  xml::Database db;
  auto a = xml::ParseXml("<a><x>foo</x></a>", 1);
  auto b = xml::ParseXml("<b><y>bar</y></b>", 2);
  ASSERT_TRUE(a.ok() && b.ok());
  db.AddDocument("a.xml", *a);
  db.AddDocument("b.xml", *b);
  auto indexes = BuildDatabaseIndexes(db);
  ASSERT_NE(indexes->Get("a.xml"), nullptr);
  ASSERT_NE(indexes->Get("b.xml"), nullptr);
  EXPECT_EQ(indexes->Get("c.xml"), nullptr);
  EXPECT_EQ(indexes->Get("a.xml")->inverted_index.Lookup("foo")->size(), 1u);
  EXPECT_EQ(indexes->Get("a.xml")->inverted_index.Lookup("bar")->size(), 0u);
}

}  // namespace
}  // namespace quickview::index
