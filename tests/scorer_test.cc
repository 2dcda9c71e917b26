#include "scoring/scorer.h"

#include <gtest/gtest.h>

#include "xml/parser.h"

namespace quickview::scoring {
namespace {

using xquery::Item;
using xquery::NodeHandle;
using xquery::Sequence;

std::vector<ScoredResult> RankedOf(const Sequence& results,
                                   const std::vector<std::string>& keywords,
                                   bool conjunctive) {
  return ScoreResults(results, keywords, conjunctive).ranked;
}

TEST(ScorerTest, StatisticsFromMaterializedTree) {
  auto doc = xml::ParseXml("<r><t>xml search xml</t></r>");
  ASSERT_TRUE(doc.ok());
  std::vector<uint64_t> tf;
  uint64_t bytes = 0;
  ComputeResultStatistics(NodeHandle{doc->get(), 0}, {"xml", "search", "r"},
                          &tf, &bytes);
  EXPECT_EQ(tf, (std::vector<uint64_t>{2, 1, 1}));
  EXPECT_EQ(bytes, std::string("<r><t>xml search xml</t></r>").size());
}

TEST(ScorerTest, StatisticsFromPrunedTreeUseNodeStats) {
  xml::Document doc(1);
  xml::NodeIndex root = doc.CreateRoot("r");
  xml::NodeIndex pruned = doc.AddChild(root, "t");
  xml::NodeStats stats;
  stats.term_tf = {5, 0};
  stats.byte_length = 100;
  stats.content_pruned = true;
  doc.node(pruned).stats = std::make_shared<xml::NodeStats>(stats);
  // A child under the pruned node must NOT be double counted.
  xml::NodeIndex dup = doc.AddChild(pruned, "xml");
  doc.node(dup).text = "xml xml";

  std::vector<uint64_t> tf;
  uint64_t bytes = 0;
  ComputeResultStatistics(NodeHandle{&doc, root}, {"xml", "search"}, &tf,
                          &bytes);
  EXPECT_EQ(tf[0], 5u);
  EXPECT_EQ(tf[1], 0u);
  EXPECT_EQ(bytes, 100u + std::string("<r></r>").size());
}

class ScoreResultsTest : public ::testing::Test {
 protected:
  NodeHandle MakeResult(const std::string& xml_text) {
    auto doc = xml::ParseXml(xml_text);
    EXPECT_TRUE(doc.ok());
    docs_.push_back(*doc);
    return NodeHandle{docs_.back().get(), 0};
  }
  std::vector<std::shared_ptr<xml::Document>> docs_;
};

TEST_F(ScoreResultsTest, ConjunctiveRequiresAllKeywords) {
  Sequence results;
  results.push_back(Item(MakeResult("<r>xml search</r>")));
  results.push_back(Item(MakeResult("<r>xml only</r>")));
  results.push_back(Item(MakeResult("<r>nothing</r>")));
  auto scored = RankedOf(results, {"xml", "search"}, true);
  ASSERT_EQ(scored.size(), 1u);
  EXPECT_EQ(scored[0].view_position, 0u);
}

TEST_F(ScoreResultsTest, DisjunctiveRequiresAnyKeyword) {
  Sequence results;
  results.push_back(Item(MakeResult("<r>xml search</r>")));
  results.push_back(Item(MakeResult("<r>xml only</r>")));
  results.push_back(Item(MakeResult("<r>nothing</r>")));
  auto scored = RankedOf(results, {"xml", "search"}, false);
  EXPECT_EQ(scored.size(), 2u);
}

TEST_F(ScoreResultsTest, IdfFavorsRareTerms) {
  // "rare" appears in 1 of 4 results, "common" in all 4: with equal tf,
  // the rare-term result must outrank a common-term-only result.
  Sequence results;
  results.push_back(Item(MakeResult("<r>common rare</r>")));
  results.push_back(Item(MakeResult("<r>common zzz1</r>")));
  results.push_back(Item(MakeResult("<r>common zzz2</r>")));
  results.push_back(Item(MakeResult("<r>common zzz3</r>")));
  auto scored = RankedOf(results, {"common", "rare"}, false);
  ASSERT_EQ(scored.size(), 4u);
  EXPECT_EQ(scored[0].view_position, 0u);
  EXPECT_GT(scored[0].score, scored[1].score);
}

TEST_F(ScoreResultsTest, LengthNormalizationPenalizesPadding) {
  Sequence results;
  results.push_back(Item(MakeResult("<r>xml</r>")));
  results.push_back(Item(
      MakeResult("<r>xml padding padding padding padding padding</r>")));
  auto scored = RankedOf(results, {"xml"}, true);
  ASSERT_EQ(scored.size(), 2u);
  EXPECT_EQ(scored[0].view_position, 0u);
}

TEST_F(ScoreResultsTest, TieBreaksByViewPosition) {
  Sequence results;
  results.push_back(Item(MakeResult("<r>xml</r>")));
  results.push_back(Item(MakeResult("<r>xml</r>")));
  auto scored = RankedOf(results, {"xml"}, true);
  ASSERT_EQ(scored.size(), 2u);
  EXPECT_EQ(scored[0].view_position, 0u);
  EXPECT_EQ(scored[1].view_position, 1u);
}

TEST_F(ScoreResultsTest, EmptyInputsAndTopK) {
  auto scored = RankedOf({}, {"xml"}, true);
  EXPECT_TRUE(scored.empty());
  Sequence results;
  for (int i = 0; i < 5; ++i) {
    results.push_back(Item(MakeResult("<r>xml</r>")));
  }
  scored = RankedOf(results, {"xml"}, true);
  TakeTopK(&scored, 3);
  EXPECT_EQ(scored.size(), 3u);
  TakeTopK(&scored, 10);
  EXPECT_EQ(scored.size(), 3u);
}

TEST_F(ScoreResultsTest, NoKeywordsConjunctiveKeepsEverything) {
  Sequence results;
  results.push_back(Item(MakeResult("<r>a</r>")));
  auto scored = RankedOf(results, {}, true);
  EXPECT_EQ(scored.size(), 1u);
  EXPECT_EQ(scored[0].score, 0.0);
}

}  // namespace
}  // namespace quickview::scoring
