// Round-trip and byte-length properties of the XML substrate on random
// documents: serialize∘parse must be the identity on serialized form,
// SubtreeByteLength must equal the serialized size everywhere (it is the
// len(e) of score normalization, so an off-by-one here silently breaks
// Theorem 4.1 parity), and the path and inverted indexes must equal a
// brute-force walk of the DOM.
#include <algorithm>
#include <map>
#include <optional>
#include <ostream>
#include <random>
#include <set>
#include <string_view>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/strings.h"
#include "index/index_builder.h"
#include "xml/dom.h"
#include "xml/parser.h"
#include "xml/serializer.h"
#include "xml/tokenizer.h"

namespace quickview::xml {

// Failure messages print ids as "1.2.3", not as raw bytes.
void PrintTo(const DeweyId& id, std::ostream* os) { *os << id.ToString(); }

namespace {

std::shared_ptr<Document> RandomDocument(std::mt19937_64* rng) {
  static const char* kTags[] = {"a", "bee", "c-d", "x_y", "tag9"};
  static const char* kTexts[] = {"", "hello world", "a&b", "<tag>",
                                 "it's \"quoted\"", "multi  space",
                                 "1995", "xml search xml"};
  auto doc = std::make_shared<Document>(1 + (*rng)() % 5);
  NodeIndex root = doc->CreateRoot(kTags[(*rng)() % 5]);
  doc->node(root).text = kTexts[(*rng)() % 8];
  std::vector<std::pair<NodeIndex, int>> frontier = {{root, 1}};
  int budget = static_cast<int>((*rng)() % 40);
  while (budget-- > 0 && !frontier.empty()) {
    auto [parent, depth] = frontier[(*rng)() % frontier.size()];
    NodeIndex child = doc->AddChild(parent, kTags[(*rng)() % 5]);
    doc->node(child).text = kTexts[(*rng)() % 8];
    if (depth < 6) frontier.emplace_back(child, depth + 1);
  }
  return doc;
}

class XmlRoundTripProperty : public ::testing::TestWithParam<int> {};

TEST_P(XmlRoundTripProperty, SerializeParseSerializeIsStable) {
  std::mt19937_64 rng(GetParam());
  for (int round = 0; round < 25; ++round) {
    auto doc = RandomDocument(&rng);
    std::string first = Serialize(*doc);
    auto reparsed = ParseXml(first, doc->root_component());
    ASSERT_TRUE(reparsed.ok()) << reparsed.status() << "\n" << first;
    EXPECT_EQ(Serialize(**reparsed), first);
    // Same elements, same Dewey ids (node storage order may differ:
    // generation order vs document order).
    ASSERT_EQ((*reparsed)->size(), doc->size());
    auto snapshot = [](const Document& d) {
      std::set<std::tuple<std::string, std::string, std::string>> out;
      for (NodeIndex i = 0; i < d.size(); ++i) {
        out.insert({d.node(i).id.ToString(), d.node(i).tag,
                    d.node(i).text});
      }
      return out;
    };
    EXPECT_EQ(snapshot(**reparsed), snapshot(*doc));
  }
}

TEST_P(XmlRoundTripProperty, ByteLengthEqualsSerializedSizeEverywhere) {
  std::mt19937_64 rng(GetParam() + 1000);
  for (int round = 0; round < 25; ++round) {
    auto doc = RandomDocument(&rng);
    for (NodeIndex i = 0; i < doc->size(); ++i) {
      EXPECT_EQ(SubtreeByteLength(*doc, i), Serialize(*doc, i).size());
    }
  }
}

/// Root-to-node tags of `node`, as a full data path ("/a/bee").
std::string DataPath(const Document& doc, const DeweyId& id) {
  std::string path;
  for (size_t depth = 1; depth <= id.depth(); ++depth) {
    path += "/" + doc.node(doc.FindByDewey(id.Prefix(depth))).tag;
  }
  return path;
}

/// The child-axis pattern that matches exactly `path`.
index::PathPattern PatternOf(const std::string& path) {
  index::PathPattern pattern;
  for (std::string_view tag : SplitString(std::string_view(path).substr(1),
                                          '/')) {
    pattern.push_back(index::PathStep{false, std::string(tag)});
  }
  return pattern;
}

using EntryTuple = std::tuple<DeweyId, uint64_t, std::optional<std::string>>;

std::vector<EntryTuple> Tuples(const std::vector<index::PathEntry>& entries) {
  std::vector<EntryTuple> out;
  for (const index::PathEntry& e : entries) {
    out.emplace_back(e.id, e.byte_length, e.value);
  }
  return out;
}

TEST_P(XmlRoundTripProperty, IndexedTfMatchesTokenizerEverywhere) {
  // The indexes must agree with a direct walk of the document — the
  // foundation of tf and PDT parity. Random documents keep creation
  // order, not Dewey order, and carry empty and repeated values and
  // text that needs escaping.
  std::mt19937_64 rng(GetParam() + 2000);
  for (int round = 0; round < 5; ++round) {
    auto doc = RandomDocument(&rng);
    auto indexes = index::BuildDocumentIndexes(*doc);

    // Brute-force inverted lists and path rows, Dewey-ordered.
    std::map<std::string, std::map<DeweyId, uint32_t>> lists;
    std::map<std::string, std::vector<EntryTuple>> by_path;
    size_t postings = 0;
    for (NodeIndex i = 0; i < doc->size(); ++i) {
      const Node& node = doc->node(i);
      for (const std::string& term : DirectTerms(node)) {
        if (lists[term][node.id]++ == 0) ++postings;
      }
      by_path[DataPath(*doc, node.id)].emplace_back(
          node.id, SubtreeByteLength(*doc, i), node.text);
    }

    using Postings = std::vector<std::pair<DeweyId, uint32_t>>;
    for (const auto& [term, expected] : lists) {
      auto actual = indexes->inverted_index.Lookup(term);
      ASSERT_TRUE(actual.ok());
      Postings got;
      for (const index::Posting& p : *actual) got.emplace_back(p.id, p.tf);
      EXPECT_EQ(got, Postings(expected.begin(), expected.end())) << term;
    }
    size_t indexed = 0;
    indexes->inverted_index.ForEachPosting(
        [&indexed](const std::string&, const DeweyId&, uint32_t) {
          ++indexed;
        });
    EXPECT_EQ(indexed, postings) << "the index holds a term the walk lacks";

    EXPECT_EQ(indexes->path_index.distinct_paths(), by_path.size());
    for (auto& [path, expected] : by_path) {
      std::sort(expected.begin(), expected.end());
      auto rows = indexes->path_index.LookUpPerPath(PatternOf(path),
                                                    /*with_values=*/true);
      ASSERT_TRUE(rows.ok());
      ASSERT_EQ(rows->size(), 1u) << path;
      EXPECT_EQ((*rows)[0].path, path);
      EXPECT_EQ(Tuples((*rows)[0].entries), expected) << path;

      std::set<std::string> values;
      for (const EntryTuple& e : expected) values.insert(*std::get<2>(e));
      values.insert("no such value");
      for (const std::string& value : values) {
        std::vector<EntryTuple> want;
        for (const EntryTuple& e : expected) {
          if (std::get<2>(e) == value) want.push_back(e);
        }
        EXPECT_EQ(Tuples(indexes->path_index.LookUpValue(PatternOf(path),
                                                         value)),
                  want)
            << path << " = '" << value << "'";
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, XmlRoundTripProperty,
                         ::testing::Range(1, 11));

}  // namespace
}  // namespace quickview::xml
