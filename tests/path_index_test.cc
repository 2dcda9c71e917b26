#include "index/path_index.h"

#include <algorithm>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "index/index_builder.h"
#include "xml/parser.h"
#include "xml/serializer.h"

namespace quickview::index {
namespace {

using xml::DeweyId;

PathPattern Pattern(std::initializer_list<std::pair<bool, const char*>> steps) {
  PathPattern out;
  for (auto& [descendant, tag] : steps) {
    out.push_back(PathStep{descendant, tag});
  }
  return out;
}

TEST(PatternMatchTest, ChildAxisExactMatch) {
  PathPattern p = Pattern({{false, "books"}, {false, "book"}});
  EXPECT_TRUE(PatternMatchesPath(p, "/books/book"));
  EXPECT_FALSE(PatternMatchesPath(p, "/books/book/isbn"));
  EXPECT_FALSE(PatternMatchesPath(p, "/books"));
}

TEST(PatternMatchTest, DescendantAxisGaps) {
  PathPattern p = Pattern({{false, "books"}, {true, "isbn"}});
  EXPECT_TRUE(PatternMatchesPath(p, "/books/book/isbn"));
  EXPECT_TRUE(PatternMatchesPath(p, "/books/isbn"));
  EXPECT_FALSE(PatternMatchesPath(p, "/journal/book/isbn"));
}

TEST(PatternMatchTest, RepeatingTags) {
  PathPattern p = Pattern({{true, "a"}, {true, "a"}});
  EXPECT_TRUE(PatternMatchesPath(p, "/a/a"));
  EXPECT_TRUE(PatternMatchesPath(p, "/a/b/a"));
  EXPECT_FALSE(PatternMatchesPath(p, "/a/b"));
  EXPECT_FALSE(PatternMatchesPath(p, "/a"));
}

TEST(PatternToStringTest, Rendering) {
  EXPECT_EQ(PatternToString(Pattern({{false, "books"}, {true, "isbn"}})),
            "/books//isbn");
}

class PathIndexTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Fig 1's book document.
    auto parsed = xml::ParseXml(
        "<books>"
        "<book><isbn>111-11-1111</isbn><title>XML Web Services</title>"
        "<year>2004</year></book>"
        "<book><isbn>222-22-2222</isbn><title>Artificial Intelligence</title>"
        "<year>2002</year></book>"
        "<book><title>No Isbn Book</title><year>2004</year></book>"
        "</books>");
    ASSERT_TRUE(parsed.ok()) << parsed.status();
    doc_ = *parsed;
    indexes_ = BuildDocumentIndexes(*doc_);
  }

  std::shared_ptr<xml::Document> doc_;
  std::unique_ptr<DocumentIndexes> indexes_;
};

TEST_F(PathIndexTest, DistinctPathsAndExpansion) {
  const PathIndex& index = indexes_->path_index;
  EXPECT_EQ(index.distinct_paths(), 5u);  // /books{,/book{,/isbn,/title,/year}}
  auto rows = index.LookUpPerPath(Pattern({{false, "books"}, {true, "isbn"}}),
                                  /*with_values=*/false);
  ASSERT_EQ(rows->size(), 1u);
  EXPECT_EQ((*rows)[0].path, "/books/book/isbn");
}

TEST_F(PathIndexTest, LookUpIdMergesInDeweyOrder) {
  auto entries = indexes_->path_index.LookUpId(
      Pattern({{false, "books"}, {true, "book"}, {false, "year"}}));
  ASSERT_EQ(entries.size(), 3u);
  EXPECT_EQ(entries[0].id.ToString(), "1.1.3");
  EXPECT_EQ(entries[1].id.ToString(), "1.2.3");
  EXPECT_EQ(entries[2].id.ToString(), "1.3.2");  // book without isbn
  EXPECT_FALSE(entries[0].value.has_value());
  EXPECT_GT(entries[0].byte_length, 0u);
}

TEST_F(PathIndexTest, LookUpIdValueCarriesValues) {
  auto entries = indexes_->path_index.LookUpIdValue(
      Pattern({{false, "books"}, {true, "isbn"}}));
  ASSERT_EQ(entries.size(), 2u);
  ASSERT_TRUE(entries[0].value.has_value());
  EXPECT_EQ(*entries[0].value, "111-11-1111");
  EXPECT_EQ(*entries[1].value, "222-22-2222");
}

TEST_F(PathIndexTest, LookUpValueEqualityProbe) {
  auto entries = indexes_->path_index.LookUpValue(
      Pattern({{false, "books"}, {true, "isbn"}}), "222-22-2222");
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0].id.ToString(), "1.2.1");
  EXPECT_TRUE(indexes_->path_index
                  .LookUpValue(Pattern({{false, "books"}, {true, "isbn"}}),
                               "nope")
                  .empty());
}

TEST_F(PathIndexTest, LookUpPerPathGroups) {
  auto rows = indexes_->path_index.LookUpPerPath(
      Pattern({{true, "book"}}), /*with_values=*/false);
  ASSERT_EQ(rows->size(), 1u);
  EXPECT_EQ((*rows)[0].path, "/books/book");
  EXPECT_EQ((*rows)[0].entries.size(), 3u);
}

TEST_F(PathIndexTest, ByteLengthsMatchSerializedSubtrees) {
  auto entries =
      indexes_->path_index.LookUpId(Pattern({{false, "books"}}));
  ASSERT_EQ(entries.size(), 1u);
  // The whole document: byte length equals the root subtree size.
  EXPECT_EQ(entries[0].byte_length,
            xml::SubtreeByteLength(*doc_, doc_->root()));
}

TEST_F(PathIndexTest, NoMatchesForUnknownPattern) {
  EXPECT_TRUE(
      indexes_->path_index.LookUpId(Pattern({{true, "nothing"}})).empty());
}

// ---- Row codec: rows read from disk pages are untrusted bytes ----

std::vector<std::pair<xml::DeweyId, uint64_t>> ThreeEntries() {
  return {{xml::DeweyId::Parse("1.2"), 17},
          {xml::DeweyId::Parse("1.2.3.4.5.6.7.8.9"), 40},
          {xml::DeweyId::Parse("1.3"), 9}};
}

TEST(PathEntryListCodecTest, RoundTrip) {
  const std::string row = EncodePathEntryList(ThreeEntries());
  std::vector<PathEntry> decoded;
  ASSERT_TRUE(DecodePathEntryListInto(row, std::string("v"), &decoded).ok());
  ASSERT_EQ(decoded.size(), 3u);
  for (size_t i = 0; i < decoded.size(); ++i) {
    EXPECT_EQ(decoded[i].id, ThreeEntries()[i].first);
    EXPECT_EQ(decoded[i].byte_length, ThreeEntries()[i].second);
    EXPECT_EQ(decoded[i].value, std::optional<std::string>("v"));
  }
}

TEST(PathEntryListCodecTest, TruncatedRowIsATypedErrorAtEveryOffset) {
  const std::string row = EncodePathEntryList(ThreeEntries());
  for (size_t len = 0; len < row.size(); ++len) {
    // An allocation of exactly `len` bytes: reading past it is a
    // heap-buffer-overflow the sanitizer build reports.
    std::unique_ptr<char[]> bytes(new char[len]);
    std::copy_n(row.data(), len, bytes.get());
    std::vector<PathEntry> out;
    Status status = DecodePathEntryListInto(std::string_view(bytes.get(), len),
                                            std::nullopt, &out);
    EXPECT_EQ(status.code(), StatusCode::kInternal) << "length " << len;
    EXPECT_EQ(status.message(), "corrupt path-index row") << "length " << len;
    EXPECT_LT(out.size(), 3u) << "length " << len;
  }
}

TEST(PathEntryListCodecTest, PartialIdComponentIsATypedError) {
  // count 1, id length 5 (not a whole number of 4-byte components).
  std::string row("\0\0\0\x01\0\0\0\x05", 8);
  row.append(5, '\x01');
  row.append(8, '\0');
  std::vector<PathEntry> out;
  Status status = DecodePathEntryListInto(row, std::nullopt, &out);
  EXPECT_EQ(status.code(), StatusCode::kInternal);
  EXPECT_TRUE(out.empty());
}

}  // namespace
}  // namespace quickview::index
