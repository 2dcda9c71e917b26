// Extended evaluator semantics: comparison matrix, effective booleans in
// conditionals, multi-clause FLWOR, invariant-hoisting visibility, and
// environment shadowing.
#include <gtest/gtest.h>

#include "xml/parser.h"
#include "xml/serializer.h"
#include "xquery/evaluator.h"
#include "xquery/parser.h"

namespace quickview::xquery {
namespace {

class EvaluatorExtendedTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto doc = xml::ParseXml(
        "<data>"
        "<n><v>7</v></n><n><v>07</v></n><n><v>100</v></n>"
        "<s><v>abc</v></s><s><v>abd</v></s>"
        "<empty/>"
        "</data>",
        1);
    ASSERT_TRUE(doc.ok());
    db_.AddDocument("data.xml", *doc);
  }

  Result<Sequence> Run(const std::string& query_text) {
    auto query = ParseQuery(query_text);
    if (!query.ok()) return query.status();
    // Keep the arena alive across the call for the caller's asserts.
    evaluator_ = std::make_unique<Evaluator>(&db_);
    return evaluator_->Evaluate(*query);
  }

  size_t Count(const std::string& query_text) {
    auto result = Run(query_text);
    EXPECT_TRUE(result.ok()) << result.status();
    return result.ok() ? result->size() : 0;
  }

  xml::Database db_;
  std::unique_ptr<Evaluator> evaluator_;
};

TEST_F(EvaluatorExtendedTest, NumericComparisonMatrix) {
  // = < > across numeric spellings.
  EXPECT_EQ(Count("fn:doc(data.xml)//n[./v = 7]"), 2u);     // 7 and 07
  EXPECT_EQ(Count("fn:doc(data.xml)//n[./v < 100]"), 2u);
  EXPECT_EQ(Count("fn:doc(data.xml)//n[./v > 7]"), 1u);
  EXPECT_EQ(Count("fn:doc(data.xml)//n[./v > 100]"), 0u);
}

TEST_F(EvaluatorExtendedTest, StringComparisonFallsBackLexicographic) {
  EXPECT_EQ(Count("fn:doc(data.xml)//s[./v = 'abc']"), 1u);
  EXPECT_EQ(Count("fn:doc(data.xml)//s[./v < 'abd']"), 1u);
  EXPECT_EQ(Count("fn:doc(data.xml)//s[./v > 'abc']"), 1u);
}

TEST_F(EvaluatorExtendedTest, ComparisonAgainstMissingPathIsFalse) {
  EXPECT_EQ(Count("fn:doc(data.xml)//n[./missing = 7]"), 0u);
  EXPECT_EQ(Count("fn:doc(data.xml)//empty[./v = 7]"), 0u);
}

TEST_F(EvaluatorExtendedTest, ExistentialOverMultipleValues) {
  // The comparison is existential: ANY (v, literal) pair may match.
  auto doc = xml::ParseXml("<m><k>1</k><k>2</k></m>", 2);
  ASSERT_TRUE(doc.ok());
  db_.AddDocument("m.xml", *doc);
  EXPECT_EQ(Count("fn:doc(m.xml)/m[./k = 2]"), 1u);
  EXPECT_EQ(Count("fn:doc(m.xml)/m[./k = 3]"), 0u);
}

TEST_F(EvaluatorExtendedTest, IfConditionUsesEffectiveBoolean) {
  // Non-empty node sequence = true; empty = false.
  auto result = Run(
      "for $n in fn:doc(data.xml)/data "
      "return if $n/empty then 'has-empty' else 'no-empty'");
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->size(), 1u);
  EXPECT_EQ(AtomicValue((*result)[0]), "has-empty");
  result = Run(
      "for $n in fn:doc(data.xml)/data "
      "return if $n/zzz then 'yes' else 'no'");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(AtomicValue((*result)[0]), "no");
}

TEST_F(EvaluatorExtendedTest, MultiClauseCartesianProduct) {
  EXPECT_EQ(Count("for $a in fn:doc(data.xml)//n "
                  "for $b in fn:doc(data.xml)//s return <p></p>"),
            6u);  // 3 n * 2 s
}

TEST_F(EvaluatorExtendedTest, VariableShadowingInNestedFlwor) {
  auto result = Run(
      "for $x in fn:doc(data.xml)//s "
      "return <o>{for $x in fn:doc(data.xml)//n return $x/v}</o>");
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->size(), 2u);
  const NodeHandle* h = std::get_if<NodeHandle>(&(*result)[0]);
  ASSERT_NE(h, nullptr);
  // Inner $x shadows outer: three v copies inside each <o>.
  EXPECT_EQ(h->node().children.size(), 3u);
}

TEST_F(EvaluatorExtendedTest, FunctionWithTwoParameters) {
  auto result = Run(
      "declare function pair($a, $b) { <pair>{$a/v},{$b/v}</pair> } "
      "pair(fn:doc(data.xml)//s, fn:doc(data.xml)//n)");
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_EQ(result->size(), 1u);
  const NodeHandle* h = std::get_if<NodeHandle>(&(*result)[0]);
  // Both argument sequences' v children are copied: 2 + 3.
  EXPECT_EQ(h->node().children.size(), 5u);
}

TEST_F(EvaluatorExtendedTest, EmptySequenceLiteral) {
  EXPECT_EQ(Count("()"), 0u);
  EXPECT_EQ(Count("for $n in fn:doc(data.xml)//n "
                  "return if $n/v > 50 then $n else ()"),
            1u);
}

TEST_F(EvaluatorExtendedTest, InvariantHoistingIsInvisible) {
  // The same invariant path evaluated in two nested loops must yield the
  // same nodes (cached sequence identity is an implementation detail).
  auto result = Run(
      "for $a in fn:doc(data.xml)//n "
      "return <w>{for $b in fn:doc(data.xml)//n return $b/v}</w>");
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->size(), 3u);
  for (const Item& item : *result) {
    const NodeHandle* h = std::get_if<NodeHandle>(&item);
    ASSERT_NE(h, nullptr);
    EXPECT_EQ(h->node().children.size(), 3u);
  }
}

TEST_F(EvaluatorExtendedTest, AtomicValueFormatting) {
  EXPECT_EQ(AtomicValue(Item(7.0)), "7");
  EXPECT_EQ(AtomicValue(Item(7.5)), "7.5");
  EXPECT_EQ(AtomicValue(Item(true)), "true");
  EXPECT_EQ(AtomicValue(Item(std::string("x"))), "x");
}

TEST_F(EvaluatorExtendedTest, ConstructedElementsAreIndependentCopies) {
  auto result = Run(
      "for $n in fn:doc(data.xml)//n return <c>{$n/v}</c>");
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->size(), 3u);
  // Each constructed <c> is a distinct node in the arena.
  const NodeHandle* a = std::get_if<NodeHandle>(&(*result)[0]);
  const NodeHandle* b = std::get_if<NodeHandle>(&(*result)[1]);
  EXPECT_NE(a->index, b->index);
  EXPECT_EQ(a->doc, b->doc);  // same arena document
}

TEST_F(EvaluatorExtendedTest, ShadowedVariableIsVisibleAgainAfterInnerScope) {
  // The inner $x pops when its FLWOR ends, so the trailing {$x/v} reads
  // the outer binding again.
  auto result = Run(
      "for $x in fn:doc(data.xml)//s "
      "return <o>{for $x in fn:doc(data.xml)//n return $x/v}{$x/v}</o>");
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_EQ(result->size(), 2u);
  std::vector<std::string> xml;
  for (const Item& item : *result) {
    const NodeHandle& h = std::get<NodeHandle>(item);
    xml.push_back(xml::Serialize(*h.doc, h.index));
  }
  EXPECT_EQ(xml[0], "<o><v>7</v><v>07</v><v>100</v><v>abc</v></o>");
  EXPECT_EQ(xml[1], "<o><v>7</v><v>07</v><v>100</v><v>abd</v></o>");
}

TEST_F(EvaluatorExtendedTest, FunctionParameterBoundToSeveralItems) {
  auto result = Run(
      "declare function wrap($xs) { for $x in $xs return <i>{$x/v}</i> } "
      "wrap(fn:doc(data.xml)//n)");
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_EQ(result->size(), 3u);
  const NodeHandle& last = std::get<NodeHandle>((*result)[2]);
  EXPECT_EQ(xml::Serialize(*last.doc, last.index), "<i><v>100</v></i>");
}

TEST_F(EvaluatorExtendedTest, ArgumentsSeeCallerBindingsNotParameters) {
  // The second argument reads the caller's $a even though the function's
  // first parameter is also named $a.
  auto result = Run(
      "declare function g($a, $b) { <g>{$b/v}</g> } "
      "for $a in fn:doc(data.xml)//s return g(fn:doc(data.xml)//n, $a)");
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_EQ(result->size(), 2u);
  const NodeHandle& first = std::get<NodeHandle>((*result)[0]);
  EXPECT_EQ(xml::Serialize(*first.doc, first.index), "<g><v>abc</v></g>");
}

TEST_F(EvaluatorExtendedTest, FunctionBodyDoesNotSeeCallerBindings) {
  // Function bodies are scoped statically: the caller's $x is not in
  // scope in f's body, so the free $x is XQuery's static error XPST0008.
  auto result = Run(
      "declare function f($y) { $x/v } "
      "for $x in fn:doc(data.xml)//n return f(1)");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(result.status().message().find("$x"), std::string::npos)
      << result.status();
  EXPECT_NE(result.status().message().find("XPST0008"), std::string::npos)
      << result.status();
  // The same name bound as a parameter, or inside the body, is in scope;
  // a nested call's body again sees only its own parameters.
  auto bound = Run(
      "declare function g($x) { $x/v } "
      "declare function h($y) { for $x in $y return g($x) } "
      "for $x in fn:doc(data.xml)//s return h(fn:doc(data.xml)//n)");
  ASSERT_TRUE(bound.ok()) << bound.status();
  EXPECT_EQ(bound->size(), 6u);
  auto nested = Run(
      "declare function inner($a) { $b } "
      "declare function outer($b) { inner($b) } "
      "outer(fn:doc(data.xml)//n)");
  ASSERT_FALSE(nested.ok());
  EXPECT_EQ(nested.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(nested.status().message().find("$b"), std::string::npos)
      << nested.status();
}

TEST_F(EvaluatorExtendedTest, NestedConstructorsKeepChildAndDocumentOrder) {
  // Directly nested constructors are built in place under their parent,
  // interleaved with copied content; a multi-node step over the
  // constructed results must still see document order.
  auto result = Run(
      "let $rs := for $n in fn:doc(data.xml)//n "
      "  return <r><t>{$n/v}</t>{$n/v}<u><t>x</t></u><z></z></r> "
      "return ($rs, $rs//t)");
  ASSERT_TRUE(result.ok()) << result.status();
  std::vector<std::string> xml;
  for (const Item& item : *result) {
    const NodeHandle& h = std::get<NodeHandle>(item);
    xml.push_back(xml::Serialize(*h.doc, h.index));
  }
  ASSERT_EQ(xml.size(), 9u);
  EXPECT_EQ(xml[0], "<r><t><v>7</v></t><v>7</v><u><t>x</t></u><z></z></r>");
  EXPECT_EQ(xml[2], "<r><t><v>100</v></t><v>100</v><u><t>x</t></u><z></z></r>");
  EXPECT_EQ(xml[3], "<t><v>7</v></t>");
  EXPECT_EQ(xml[4], "<t>x</t>");
  EXPECT_EQ(xml[5], "<t><v>07</v></t>");
  EXPECT_EQ(xml[6], "<t>x</t>");
  EXPECT_EQ(xml[7], "<t><v>100</v></t>");
  EXPECT_EQ(xml[8], "<t>x</t>");
}

}  // namespace
}  // namespace quickview::xquery
