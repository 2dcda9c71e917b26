#include "xml/dewey_id.h"

#include <algorithm>
#include <optional>
#include <random>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

namespace quickview::xml {
namespace {

TEST(DeweyIdTest, ParseAndToString) {
  EXPECT_EQ(DeweyId::Parse("1.2.3").ToString(), "1.2.3");
  EXPECT_EQ(DeweyId::Parse("").ToString(), "");
  EXPECT_EQ(DeweyId::Parse("42").ToString(), "42");
  DeweyId parsed = DeweyId::Parse("1.0.7");
  EXPECT_EQ(std::vector<uint32_t>(parsed.components().begin(),
                                  parsed.components().end()),
            (std::vector<uint32_t>{1, 0, 7}));
}

TEST(DeweyIdTest, DepthAndEmpty) {
  EXPECT_TRUE(DeweyId().empty());
  EXPECT_EQ(DeweyId().depth(), 0u);
  EXPECT_EQ(DeweyId::Parse("1.2.3").depth(), 3u);
}

TEST(DeweyIdTest, ParentAndPrefix) {
  DeweyId id = DeweyId::Parse("1.2.3");
  EXPECT_EQ(id.Parent().ToString(), "1.2");
  EXPECT_EQ(id.Prefix(1).ToString(), "1");
  EXPECT_EQ(id.Prefix(3), id);
  EXPECT_TRUE(DeweyId::Parse("1").Parent().empty());
  EXPECT_TRUE(DeweyId().Parent().empty());
}

TEST(DeweyIdTest, Child) {
  EXPECT_EQ(DeweyId::Parse("1.2").Child(7).ToString(), "1.2.7");
  EXPECT_EQ(DeweyId().Child(1).ToString(), "1");
}

TEST(DeweyIdTest, PrefixRelations) {
  DeweyId anc = DeweyId::Parse("1.2");
  DeweyId desc = DeweyId::Parse("1.2.3.4");
  EXPECT_TRUE(anc.IsPrefixOf(desc));
  EXPECT_TRUE(anc.IsPrefixOf(anc));
  EXPECT_TRUE(anc.IsAncestorOf(desc));
  EXPECT_FALSE(anc.IsAncestorOf(anc));
  EXPECT_FALSE(desc.IsAncestorOf(anc));
  EXPECT_TRUE(DeweyId::Parse("1.2.3").IsParentOf(desc));
  EXPECT_FALSE(anc.IsParentOf(desc));
  // Sibling prefixes are unrelated.
  EXPECT_FALSE(DeweyId::Parse("1.3").IsPrefixOf(desc));
}

TEST(DeweyIdTest, DocumentOrder) {
  // Ancestors precede descendants; siblings order by component.
  EXPECT_LT(DeweyId::Parse("1"), DeweyId::Parse("1.1"));
  EXPECT_LT(DeweyId::Parse("1.1"), DeweyId::Parse("1.2"));
  EXPECT_LT(DeweyId::Parse("1.2"), DeweyId::Parse("1.2.1"));
  EXPECT_LT(DeweyId::Parse("1.2.9"), DeweyId::Parse("1.10"));  // numeric
}

TEST(DeweyIdTest, CommonPrefixLength) {
  EXPECT_EQ(DeweyId::Parse("1.2.3").CommonPrefixLength(
                DeweyId::Parse("1.2.5.6")),
            2u);
  EXPECT_EQ(DeweyId::Parse("2").CommonPrefixLength(DeweyId::Parse("1")), 0u);
  EXPECT_EQ(DeweyId().CommonPrefixLength(DeweyId::Parse("1")), 0u);
}

TEST(DeweyIdTest, EncodeDecodeRoundTrip) {
  for (const char* text : {"", "1", "1.2.3", "4294967295.0.17",
                           "1.2.3.4.5.6.7.4294967295.9"}) {
    DeweyId id = DeweyId::Parse(text);
    EXPECT_EQ(DeweyId::Decode(id.Encode()), id) << text;
  }
}

TEST(DeweyIdTest, EncodedByteOrderEqualsDeweyOrder) {
  // Property: the fixed-width encoding preserves document order, which is
  // what makes encoded ids usable directly as B+-tree keys.
  std::mt19937_64 rng(99);
  std::vector<DeweyId> ids;
  for (int i = 0; i < 500; ++i) {
    std::vector<uint32_t> components;
    size_t depth = 1 + rng() % 5;
    for (size_t d = 0; d < depth; ++d) {
      components.push_back(static_cast<uint32_t>(rng() % 7));
    }
    ids.emplace_back(std::move(components));
  }
  for (size_t i = 0; i + 1 < ids.size(); ++i) {
    bool dewey_less = ids[i] < ids[i + 1];
    bool bytes_less = ids[i].Encode() < ids[i + 1].Encode();
    EXPECT_EQ(dewey_less, bytes_less)
        << ids[i].ToString() << " vs " << ids[i + 1].ToString();
  }
}

// ---- Inline storage and its heap spill (kInlineDepth components) ----

/// 1.2.3...depth, so every depth gives a distinct, predictable id.
DeweyId Chain(size_t depth) {
  std::vector<uint32_t> components;
  for (size_t i = 1; i <= depth; ++i) {
    components.push_back(static_cast<uint32_t>(i));
  }
  return DeweyId(components);
}

std::vector<uint32_t> ComponentsOf(const DeweyId& id) {
  return std::vector<uint32_t>(id.components().begin(),
                               id.components().end());
}

TEST(DeweyIdTest, InlineAndSpilledIdsBehaveAlike) {
  static_assert(DeweyId::kInlineDepth == 7);
  for (size_t depth = 1; depth <= 12; ++depth) {
    SCOPED_TRACE(depth);
    DeweyId id = Chain(depth);
    ASSERT_EQ(id.depth(), depth);
    std::vector<uint32_t> expected;
    for (size_t i = 0; i < depth; ++i) {
      expected.push_back(static_cast<uint32_t>(i + 1));
      EXPECT_EQ(id.component(i), i + 1);
    }
    EXPECT_EQ(ComponentsOf(id), expected);
    EXPECT_EQ(DeweyId::Parse(id.ToString()), id);

    DeweyId copy(id);
    EXPECT_EQ(copy, id);
    DeweyId moved(std::move(copy));
    EXPECT_EQ(moved, id);
    EXPECT_TRUE(copy.empty());  // NOLINT(bugprone-use-after-move)

    EXPECT_EQ(id.Parent(), Chain(depth - 1));
    EXPECT_EQ(id.Child(static_cast<uint32_t>(depth + 1)), Chain(depth + 1));
    for (size_t len = 0; len <= depth; ++len) {
      EXPECT_EQ(id.Prefix(len), Chain(len));
      EXPECT_TRUE(id.Prefix(len).IsPrefixOf(id));
    }
    EXPECT_TRUE(id.Parent().IsParentOf(id));
    EXPECT_TRUE(Chain(1).IsAncestorOf(id) || depth == 1);
    EXPECT_EQ(id.CommonPrefixLength(Chain(12)), depth);

    std::optional<DeweyId> decoded = DeweyId::Decode(id.Encode());
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(*decoded, id);
    EXPECT_EQ(decoded->Encode(), id.Encode());
  }
}

TEST(DeweyIdTest, AssignmentCrossesTheSpillBoundary) {
  for (size_t from = 0; from <= 12; ++from) {
    for (size_t to = 0; to <= 12; ++to) {
      SCOPED_TRACE(testing::Message() << from << " -> " << to);
      DeweyId target = Chain(from);
      DeweyId source = Chain(to);
      target = source;  // copy-assign
      EXPECT_EQ(target, Chain(to));
      EXPECT_EQ(source, Chain(to));

      DeweyId moved_into = Chain(from);
      moved_into = std::move(source);  // move-assign
      EXPECT_EQ(moved_into, Chain(to));
      EXPECT_TRUE(source.empty());  // NOLINT(bugprone-use-after-move)
      source = moved_into;  // a moved-from id is reusable
      EXPECT_EQ(source, Chain(to));
    }
  }
  DeweyId self = Chain(10);
  DeweyId& alias = self;
  self = alias;
  EXPECT_EQ(self, Chain(10));
}

TEST(DeweyIdTest, OrderBetweenInlineAndSpilledIds) {
  // Ancestors precede descendants on both sides of the boundary.
  for (size_t depth = 1; depth < 12; ++depth) {
    EXPECT_LT(Chain(depth), Chain(depth + 1)) << depth;
    EXPECT_GT(Chain(depth + 1), Chain(depth)) << depth;
  }
  // A spilled id before an inline sibling subtree, and after one.
  DeweyId spilled = DeweyId::Parse("1.2.3.4.5.6.7.8.9");
  EXPECT_LT(spilled, DeweyId::Parse("1.2.3.5"));
  EXPECT_GT(spilled, DeweyId::Parse("1.2.3.4.5.6.7"));
  EXPECT_GT(spilled, DeweyId::Parse("1.2.3.3.9"));
  EXPECT_LT(DeweyId::Parse("1.2.3.4.5.6.7.8.9"),
            DeweyId::Parse("1.2.3.4.5.6.7.8.10"));
  EXPECT_NE(spilled, DeweyId::Parse("1.2.3.4.5.6.7.8.10"));
  EXPECT_LT(spilled.Encode(), DeweyId::Parse("1.2.3.5").Encode());
}

TEST(DeweyIdTest, DecodeRejectsPartialComponents) {
  std::string bytes = Chain(9).Encode();
  for (size_t len = 0; len <= bytes.size(); ++len) {
    std::optional<DeweyId> decoded =
        DeweyId::Decode(std::string_view(bytes).substr(0, len));
    if (len % 4 == 0) {
      ASSERT_TRUE(decoded.has_value()) << len;
      EXPECT_EQ(*decoded, Chain(len / 4));
    } else {
      EXPECT_FALSE(decoded.has_value()) << len;
    }
  }
}

}  // namespace
}  // namespace quickview::xml
