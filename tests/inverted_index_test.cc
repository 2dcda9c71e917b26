#include "index/inverted_index.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>

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

TEST(InvertedIndexTest, ListsAreDeweyOrderedWithDirectTf) {
  auto index =
      IndexOf("<r><a><x>search</x></a><b>xml xml</b><c>xml</c></r>");
  auto postings = index->Lookup("xml");
  ASSERT_EQ(postings.size(), 2u);
  EXPECT_EQ(postings[0].id.ToString(), "1.2");
  EXPECT_EQ(postings[0].tf, 2u);
  EXPECT_EQ(postings[1].id.ToString(), "1.3");
  EXPECT_EQ(postings[1].tf, 1u);
  ASSERT_EQ(index->Lookup("search").size(), 1u);
  EXPECT_EQ(index->Lookup("search")[0].id.ToString(), "1.1.1");
  EXPECT_TRUE(index->Lookup("absent").empty());
}

TEST(InvertedIndexTest, TagAndTextOccurrencesInOneElementAccumulate) {
  // The tag name and both (case-folded) text tokens are one element's.
  auto index = IndexOf("<r><xml>xml XML</xml></r>");
  uint32_t tf = 0;
  EXPECT_TRUE(index->Contains("xml", DeweyId::Parse("1.1"), &tf));
  EXPECT_EQ(tf, 3u);
  EXPECT_EQ(index->ListLength("xml"), 1u);
}

TEST(InvertedIndexTest, ContainsPointProbe) {
  auto index = IndexOf("<r><a>xml</a><b>web</b></r>");
  EXPECT_TRUE(index->Contains("xml", DeweyId::Parse("1.1")));
  EXPECT_FALSE(index->Contains("xml", DeweyId::Parse("1.2")));
  EXPECT_FALSE(index->Contains("search", DeweyId::Parse("1.1")));
}

TEST(InvertedIndexTest, ListLength) {
  std::string xml_text = "<r>";
  for (int i = 1; i <= 9; ++i) xml_text += "<e>t</e>";
  auto index = IndexOf(xml_text + "</r>");
  EXPECT_EQ(index->ListLength("t"), 9u);
  EXPECT_EQ(index->ListLength("u"), 0u);
}

TEST(InvertedIndexTest, NoCrossTermBleedWithPrefixTerms) {
  // "xml" and "xmls" share a prefix; the separator must keep lists apart.
  auto index = IndexOf("<r><a>xml</a><b>xmls</b></r>");
  EXPECT_EQ(index->Lookup("xml").size(), 1u);
  EXPECT_EQ(index->Lookup("xmls").size(), 1u);
}

TEST(IndexBuilderTest, DirectContainmentOnly) {
  auto parsed = xml::ParseXml(
      "<book><title>xml search</title><review>"
      "<content>about xml</content></review></book>");
  ASSERT_TRUE(parsed.ok());
  auto indexes = BuildDocumentIndexes(**parsed);
  // "xml" is directly contained by title (1.1) and content (1.2.1) only —
  // not by their ancestors.
  auto postings = indexes->inverted_index.Lookup("xml");
  ASSERT_EQ(postings.size(), 2u);
  EXPECT_EQ(postings[0].id.ToString(), "1.1");
  EXPECT_EQ(postings[1].id.ToString(), "1.2.1");
  // Tag names are terms of the element itself.
  EXPECT_TRUE(
      indexes->inverted_index.Contains("book", DeweyId::Parse("1")));
  EXPECT_TRUE(
      indexes->inverted_index.Contains("title", DeweyId::Parse("1.1")));
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
  EXPECT_EQ(indexes->Get("a.xml")->inverted_index.ListLength("foo"), 1u);
  EXPECT_EQ(indexes->Get("a.xml")->inverted_index.ListLength("bar"), 0u);
}

}  // namespace
}  // namespace quickview::index
