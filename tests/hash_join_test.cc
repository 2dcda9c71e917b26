// The evaluator's hash-join fast path must be semantically invisible:
// results identical to the naive nested-loop evaluation for every join it
// accelerates. These tests pin the tricky equality semantics (numeric
// keys, multi-valued keys, shadowing) that a hash table can get wrong.
#include <gtest/gtest.h>

#include "xml/parser.h"
#include "xml/serializer.h"
#include "xquery/evaluator.h"
#include "xquery/parser.h"

namespace quickview::xquery {
namespace {

class HashJoinTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Numeric keys spelled differently ("07" vs "7"), multi-valued keys
    // (two k children), and plain string keys.
    auto left = xml::ParseXml(
        "<ls>"
        "<l><k>7</k><n>seven</n></l>"
        "<l><k>0042</k><n>answer</n></l>"
        "<l><k>alpha</k><n>a</n></l>"
        "<l><k>x</k><k>y</k><n>multi</n></l>"
        "<l><n>keyless</n></l>"
        "</ls>",
        1);
    auto right = xml::ParseXml(
        "<rs>"
        "<r><k>07</k><v>r-seven</v></r>"
        "<r><k>42</k><v>r-answer</v></r>"
        "<r><k>beta</k><v>r-beta</v></r>"
        "<r><k>y</k><v>r-y</v></r>"
        "<r><k>7.0</k><v>r-seven-float</v></r>"
        "</rs>",
        2);
    ASSERT_TRUE(left.ok() && right.ok());
    db_.AddDocument("l.xml", *left);
    db_.AddDocument("r.xml", *right);
  }

  std::vector<std::string> Run(const std::string& query_text) {
    auto query = ParseQuery(query_text);
    EXPECT_TRUE(query.ok()) << query.status();
    Evaluator evaluator(&db_);
    auto result = evaluator.Evaluate(*query);
    EXPECT_TRUE(result.ok()) << result.status();
    std::vector<std::string> out;
    if (!result.ok()) return out;
    for (const Item& item : *result) {
      const NodeHandle* h = std::get_if<NodeHandle>(&item);
      out.push_back(h != nullptr
                        ? xml::Serialize(*h->doc, h->effective_index())
                        : AtomicValue(item));
    }
    return out;
  }

  xml::Database db_;
};

TEST_F(HashJoinTest, NumericKeysMatchAcrossSpellings) {
  // "7" joins "07" and "7.0"; "0042" joins "42" — numeric equality, just
  // like the general-comparison operator.
  auto out = Run(
      "for $l in fn:doc(l.xml)//l for $r in fn:doc(r.xml)//r "
      "where $r/k = $l/k return $r/v");
  ASSERT_EQ(out.size(), 4u);
  EXPECT_EQ(out[0], "<v>r-seven</v>");
  EXPECT_EQ(out[1], "<v>r-seven-float</v>");  // both match l[k=7]
  EXPECT_EQ(out[2], "<v>r-answer</v>");
  EXPECT_EQ(out[3], "<v>r-y</v>");
}

TEST_F(HashJoinTest, ProbeSideSwapped) {
  auto out = Run(
      "for $l in fn:doc(l.xml)//l for $r in fn:doc(r.xml)//r "
      "where $l/k = $r/k return $r/v");
  EXPECT_EQ(out.size(), 4u);
}

TEST_F(HashJoinTest, MultiValuedKeysAreExistential) {
  // l[multi] has keys {x, y}; r[k=y] matches via the second key, once.
  auto out = Run(
      "for $l in fn:doc(l.xml)//l[./n = 'multi'] "
      "for $r in fn:doc(r.xml)//r where $r/k = $l/k return $r/v");
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], "<v>r-y</v>");
}

TEST_F(HashJoinTest, KeylessItemsNeverMatch) {
  auto out = Run(
      "for $l in fn:doc(l.xml)//l[./n = 'keyless'] "
      "for $r in fn:doc(r.xml)//r where $r/k = $l/k return $r/v");
  EXPECT_TRUE(out.empty());
}

TEST_F(HashJoinTest, InnerSequenceOrderPreserved) {
  // Matches must come back in the inner sequence's document order even
  // when probe values hit the hash map out of order.
  auto out = Run(
      "for $l in fn:doc(l.xml)//l[./k = '7'] "
      "for $r in fn:doc(r.xml)//r where $r/k = $l/k return $r/v");
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0], "<v>r-seven</v>");       // doc position 1
  EXPECT_EQ(out[1], "<v>r-seven-float</v>");  // doc position 5
}

TEST_F(HashJoinTest, AgreesWithNestedLoopOnEveryPair) {
  // Force the nested-loop path with a '<' comparison (never hash-joined),
  // then compare against the equivalent '=' query evaluated twice with
  // operands flipped. All three must agree on the match count.
  auto eq = Run(
      "for $l in fn:doc(l.xml)//l for $r in fn:doc(r.xml)//r "
      "where $r/k = $l/k return <m>{$l/n}{$r/v}</m>");
  // Nested-loop equivalent: binding the document through a let-variable
  // makes the inner clause environment-dependent, so the hash-join shape
  // check rejects it and the plain path runs.
  auto nested = Run(
      "let $rd in fn:doc(r.xml) "
      "for $l in fn:doc(l.xml)//l for $r in $rd//r "
      "where $r/k = $l/k return <m>{$l/n}{$r/v}</m>");
  EXPECT_EQ(eq, nested);
  EXPECT_EQ(eq.size(), 4u);
}

TEST_F(HashJoinTest, JoinInsideOuterLoopReusesIndex) {
  // The inner join runs once per outer binding; the join index must be
  // built once and reused, and results stay correct.
  auto out = Run(
      "for $outer in fn:doc(l.xml)/ls "
      "return <g>{for $l in fn:doc(l.xml)//l for $r in fn:doc(r.xml)//r "
      "where $r/k = $l/k return $r/v}</g>");
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0],
            "<g><v>r-seven</v><v>r-seven-float</v><v>r-answer</v>"
            "<v>r-y</v></g>");
}

TEST_F(HashJoinTest, NumericProbeValuesAreNormalized) {
  // A probe of 1.0 (a number or a string spelling it) joins the key 1,
  // and the key 1.0 joins a probe of 1.
  auto numbers = xml::ParseXml(
      "<ns><n><k>1</k><v>one</v></n><n><k>1.0</k><v>one-point-oh</v></n>"
      "<n><k>2</k><v>two</v></n></ns>",
      3);
  ASSERT_TRUE(numbers.ok());
  db_.AddDocument("n.xml", *numbers);
  for (const std::string probe : {"1.0", "'1.0'", "1", "'01'"}) {
    auto out = Run("let $p := " + probe +
                   " for $n in fn:doc(n.xml)//n where $n/k = $p "
                   "return $n/v");
    ASSERT_EQ(out.size(), 2u) << probe;
    EXPECT_EQ(out[0], "<v>one</v>") << probe;
    EXPECT_EQ(out[1], "<v>one-point-oh</v>") << probe;
  }
}

TEST_F(HashJoinTest, ConstructedProbeKeysSurviveArenaGrowth) {
  // The probe side reads constructed elements, whose text lives in the
  // evaluator's arena; every return clause grows that arena (moving its
  // nodes) while later probes still run. Enough rows to reallocate it
  // many times; the nested-loop form (inner clause bound through a let,
  // so no hash join) is the oracle.
  std::string left = "<ls>";
  std::string right = "<rs>";
  for (int i = 0; i < 300; ++i) {
    left += "<l><k>key-number-" + std::to_string(i % 97) + "</k></l>";
    right += "<r><k>key-number-" + std::to_string(i % 89) + "</k><v>" +
             std::to_string(i) + "</v></r>";
  }
  auto l = xml::ParseXml(left + "</ls>", 3);
  auto r = xml::ParseXml(right + "</rs>", 4);
  ASSERT_TRUE(l.ok() && r.ok());
  db_.AddDocument("big_l.xml", *l);
  db_.AddDocument("big_r.xml", *r);
  auto joined = Run(
      "for $l in fn:doc(big_l.xml)//l let $c := <c>{$l/k}</c> "
      "for $r in fn:doc(big_r.xml)//r where $r/k = $c/k "
      "return <m>{$c/k}{$r/v}</m>");
  auto nested = Run(
      "let $rd := fn:doc(big_r.xml) "
      "for $l in fn:doc(big_l.xml)//l let $c := <c>{$l/k}</c> "
      "for $r in $rd//r where $r/k = $c/k "
      "return <m>{$c/k}{$r/v}</m>");
  EXPECT_GT(joined.size(), 300u);
  EXPECT_EQ(joined, nested);
}

}  // namespace
}  // namespace quickview::xquery
