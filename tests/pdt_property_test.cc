// Property tests for PDT generation: on randomized documents and QPTs
// (including repeating tags and '//' chains), the single-merge-pass
// GeneratePdt must produce exactly the element set defined by the paper's
// Definitions 1-3 — CE (descendant constraints, bottom-up) intersected
// with ancestor constraints (PE, top-down) — computed here by brute force
// directly over the document.
#include <map>
#include <random>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "index/index_builder.h"
#include "pdt/generate_pdt.h"
#include "qpt/qpt.h"
#include "xml/dom.h"
#include "xml/serializer.h"
#include "xml/tokenizer.h"

namespace quickview::pdt {
namespace {

using xml::DeweyId;
using xml::Document;
using xml::NodeIndex;

// ---- Brute-force Definitions 1-3 ----

bool SatisfiesPreds(const qpt::QptNode& qnode, const xml::Node& node) {
  for (const qpt::QptPredicate& pred : qnode.preds) {
    if (!pred.Matches(node.text)) return false;
  }
  return true;
}

/// CE(n, D) by structural recursion over Definition 1 (bottom-up).
void ComputeCe(const qpt::Qpt& qpt, const Document& doc,
               std::vector<std::set<DeweyId>>* ce) {
  ce->assign(qpt.nodes.size(), {});
  // Children have larger indices; visit bottom-up.
  for (size_t n = qpt.nodes.size(); n-- > 1;) {
    const qpt::QptNode& qnode = qpt.nodes[n];
    for (NodeIndex i = 0; i < doc.size(); ++i) {
      const xml::Node& node = doc.node(i);
      if (node.tag != qnode.tag) continue;
      if (!SatisfiesPreds(qnode, node)) continue;
      bool ok = true;
      for (int child : qpt.nodes[n].children) {
        if (!qpt.nodes[child].parent_mandatory) continue;
        bool found = false;
        for (const DeweyId& cid : (*ce)[child]) {
          bool related = qpt.nodes[child].parent_descendant
                             ? node.id.IsAncestorOf(cid)
                             : node.id.IsParentOf(cid);
          if (related) {
            found = true;
            break;
          }
        }
        if (!found) {
          ok = false;
          break;
        }
      }
      if (ok) (*ce)[n].insert(node.id);
    }
  }
}

/// PE(n, D) per Definition 2 (top-down), with the virtual document root
/// as QPT node 0 (its '/' children must sit at depth 1).
void ComputePe(const qpt::Qpt& qpt, const std::vector<std::set<DeweyId>>& ce,
               std::vector<std::set<DeweyId>>* pe) {
  pe->assign(qpt.nodes.size(), {});
  for (size_t n = 1; n < qpt.nodes.size(); ++n) {
    const qpt::QptNode& qnode = qpt.nodes[n];
    for (const DeweyId& id : ce[n]) {
      bool ok;
      if (qnode.parent == 0) {
        ok = qnode.parent_descendant || id.depth() == 1;
      } else {
        ok = false;
        for (const DeweyId& pid : (*pe)[qnode.parent]) {
          bool related = qnode.parent_descendant ? pid.IsAncestorOf(id)
                                                 : pid.IsParentOf(id);
          if (related) {
            ok = true;
            break;
          }
        }
      }
      if (ok) (*pe)[n].insert(id);
    }
  }
}

/// PE(n, D) for every QPT node n: the elements the PDT holds for n.
std::vector<std::set<DeweyId>> BruteForcePe(const qpt::Qpt& qpt,
                                            const Document& doc) {
  std::vector<std::set<DeweyId>> ce;
  ComputeCe(qpt, doc, &ce);
  std::vector<std::set<DeweyId>> pe;
  ComputePe(qpt, ce, &pe);
  return pe;
}

std::set<DeweyId> UnionOf(const std::vector<std::set<DeweyId>>& pe) {
  std::set<DeweyId> out;
  for (size_t n = 1; n < pe.size(); ++n) out.insert(pe[n].begin(), pe[n].end());
  return out;
}

/// Occurrences of `keyword` among the direct terms of `base`'s subtree.
uint32_t BruteForceSubtreeTf(const Document& doc, NodeIndex base,
                             const std::string& keyword) {
  uint32_t tf = 0;
  for (NodeIndex i : doc.SubtreeNodes(base)) {
    for (const std::string& term : xml::DirectTerms(doc.node(i))) {
      if (term == keyword) ++tf;
    }
  }
  return tf;
}

/// The folded fields of every PDT node against the base element: its tag;
/// its value when a matching QPT node is 'v'; its NodeStats (byte length
/// and per-keyword subtree tf) when a matching QPT node is 'c'.
void CheckFoldedFields(const qpt::Qpt& qpt, const Document& doc,
                       const Document& pdt,
                       const std::vector<std::set<DeweyId>>& pe,
                       const std::vector<std::string>& keywords) {
  for (NodeIndex i = 0; i < pdt.size(); ++i) {
    const xml::Node& node = pdt.node(i);
    if (node.tag == "qv:gap") continue;
    SCOPED_TRACE(node.id.ToString());
    NodeIndex base = doc.FindByDewey(node.id);
    ASSERT_NE(base, xml::kInvalidNode);
    EXPECT_EQ(node.tag, doc.node(base).tag);
    bool v_match = false;
    bool c_match = false;
    for (size_t n = 1; n < qpt.nodes.size(); ++n) {
      if (pe[n].count(node.id) == 0) continue;
      v_match = v_match || qpt.nodes[n].v_ann;
      c_match = c_match || qpt.nodes[n].c_ann;
    }
    if (v_match) {
      EXPECT_EQ(node.text, doc.node(base).text);
    }
    if (!c_match) continue;
    ASSERT_NE(node.stats, nullptr);
    EXPECT_EQ(node.stats->byte_length, xml::SubtreeByteLength(doc, base));
    ASSERT_EQ(node.stats->term_tf.size(), keywords.size());
    for (size_t k = 0; k < keywords.size(); ++k) {
      EXPECT_EQ(node.stats->term_tf[k],
                BruteForceSubtreeTf(doc, base, keywords[k]))
          << "keyword " << keywords[k];
    }
  }
}

/// One or two distinct digit keywords (element texts are single digits).
std::vector<std::string> RandomKeywords(std::mt19937_64* rng) {
  std::vector<std::string> out = {std::to_string((*rng)() % 10)};
  if ((*rng)() % 2 == 0) {
    std::string second = std::to_string((*rng)() % 10);
    if (second != out[0]) out.push_back(second);
  }
  return out;
}

std::set<DeweyId> PdtIds(const Document& pdt) {
  std::set<DeweyId> out;
  for (NodeIndex i = 0; i < pdt.size(); ++i) {
    if (pdt.node(i).tag != "qv:gap") out.insert(pdt.node(i).id);
  }
  return out;
}

// ---- Random instance generation ----

constexpr const char* kTags[] = {"a", "b", "c", "d"};

std::shared_ptr<Document> RandomDocument(std::mt19937_64* rng) {
  auto doc = std::make_shared<Document>(1);
  NodeIndex root = doc->CreateRoot(kTags[(*rng)() % 4]);
  // Random tree: up to ~60 nodes, depth <= 5.
  std::vector<std::pair<NodeIndex, int>> frontier = {{root, 1}};
  int budget = 8 + static_cast<int>((*rng)() % 52);
  while (budget > 0 && !frontier.empty()) {
    size_t pick = (*rng)() % frontier.size();
    auto [parent, depth] = frontier[pick];
    NodeIndex child = doc->AddChild(parent, kTags[(*rng)() % 4]);
    if ((*rng)() % 2 == 0) {
      doc->node(child).text = std::to_string((*rng)() % 10);
    }
    if (depth < 5) frontier.emplace_back(child, depth + 1);
    --budget;
    if ((*rng)() % 4 == 0) frontier.erase(frontier.begin() + pick);
  }
  return doc;
}

qpt::Qpt RandomQpt(std::mt19937_64* rng) {
  qpt::Qpt qpt;
  qpt.source_doc = "doc.xml";
  qpt.occurrence_name = "doc.xml#1";
  qpt.nodes.push_back(qpt::QptNode{});
  // 2-6 nodes, random shape; repeated tags very likely with 4 tags.
  int count = 2 + static_cast<int>((*rng)() % 5);
  for (int i = 0; i < count; ++i) {
    int parent = static_cast<int>((*rng)() % qpt.nodes.size());
    bool descendant = (*rng)() % 2 == 0;
    bool mandatory = (*rng)() % 2 == 0;
    if (parent == 0) mandatory = true;  // root edges are structural
    int node = qpt.AddNode(parent, kTags[(*rng)() % 4], descendant,
                           mandatory);
    switch ((*rng)() % 6) {
      case 0:
        qpt.nodes[node].v_ann = true;
        break;
      case 1:
        qpt.nodes[node].c_ann = true;
        break;
      case 2: {
        qpt::QptPredicate pred;
        pred.op = xquery::CompOp::kGt;
        pred.number = static_cast<double>((*rng)() % 10);
        pred.literal = std::to_string(static_cast<int>(pred.number));
        pred.is_number = true;
        // Predicates attach to leaves only (as GenerateQpts produces).
        if (qpt.nodes[node].children.empty()) {
          qpt.nodes[node].preds.push_back(pred);
          qpt.nodes[node].v_ann = true;
        }
        break;
      }
      default:
        break;
    }
  }
  // A node that gained children cannot keep predicates (leaf-only).
  for (auto& node : qpt.nodes) {
    if (!node.children.empty()) node.preds.clear();
  }
  return qpt;
}

class PdtDefinitionProperty : public ::testing::TestWithParam<int> {};

TEST_P(PdtDefinitionProperty, MergePassMatchesBruteForceDefinitions) {
  std::mt19937_64 rng(GetParam());
  // Keywords draw from their own stream so the documents and QPTs stay
  // the ones each seed has always produced.
  std::mt19937_64 keyword_rng(GetParam() + 1000);
  for (int round = 0; round < 20; ++round) {
    std::shared_ptr<Document> doc = RandomDocument(&rng);
    qpt::Qpt qpt = RandomQpt(&rng);
    std::vector<std::string> keywords = RandomKeywords(&keyword_rng);
    auto indexes = index::BuildDocumentIndexes(*doc);
    auto pdt = GeneratePdt(qpt, *indexes, keywords, nullptr);
    ASSERT_TRUE(pdt.ok()) << pdt.status() << "\nQPT:\n" << qpt.ToString();
    std::set<DeweyId> actual = PdtIds(**pdt);
    std::vector<std::set<DeweyId>> pe = BruteForcePe(qpt, *doc);
    std::set<DeweyId> expected = UnionOf(pe);
    if (actual != expected) {
      std::string msg = "QPT:\n" + qpt.ToString() + "\nexpected:";
      for (const DeweyId& id : expected) msg += " " + id.ToString();
      msg += "\nactual:";
      for (const DeweyId& id : actual) msg += " " + id.ToString();
      FAIL() << msg;
    }
    // Every materialized value must match the base document.
    for (NodeIndex i = 0; i < (*pdt)->size(); ++i) {
      const xml::Node& node = (*pdt)->node(i);
      if (node.text.empty()) continue;
      NodeIndex base = doc->FindByDewey(node.id);
      ASSERT_NE(base, xml::kInvalidNode);
      EXPECT_EQ(node.text, doc->node(base).text) << node.id.ToString();
    }
    SCOPED_TRACE("QPT:\n" + qpt.ToString());
    CheckFoldedFields(qpt, *doc, **pdt, pe, keywords);
  }
}

/// Node for node: tag, text, id, parent, children and every NodeStats
/// field.
void ExpectSamePdt(const Document& expected, const Document& actual) {
  ASSERT_EQ(expected.size(), actual.size());
  for (NodeIndex i = 0; i < expected.size(); ++i) {
    const xml::Node& want = expected.node(i);
    const xml::Node& got = actual.node(i);
    SCOPED_TRACE("node " + std::to_string(i) + " " + want.id.ToString());
    EXPECT_EQ(want.tag, got.tag);
    EXPECT_EQ(want.text, got.text);
    EXPECT_EQ(want.id, got.id);
    EXPECT_EQ(want.parent, got.parent);
    EXPECT_EQ(want.children, got.children);
    ASSERT_EQ(want.stats == nullptr, got.stats == nullptr);
    if (want.stats == nullptr) continue;
    EXPECT_EQ(want.stats->term_tf, got.stats->term_tf);
    EXPECT_EQ(want.stats->byte_length, got.stats->byte_length);
    EXPECT_EQ(want.stats->content_pruned, got.stats->content_pruned);
    EXPECT_EQ(want.stats->source_doc, got.stats->source_doc);
    EXPECT_EQ(want.stats->source_id, got.stats->source_id);
  }
}

// A PDT's nodes never depend on the keywords, only its 'c' nodes' term
// frequencies do: the keyword-free PDT, annotated with a keyword set, is
// node for node the PDT built with that keyword set.
TEST_P(PdtDefinitionProperty, AnnotatedSkeletonEqualsKeywordBuild) {
  std::mt19937_64 rng(GetParam());
  std::mt19937_64 keyword_rng(GetParam() + 2000);
  for (int round = 0; round < 20; ++round) {
    std::shared_ptr<Document> doc = RandomDocument(&rng);
    qpt::Qpt qpt = RandomQpt(&rng);
    // Up to three keywords; "x" never occurs (an empty list).
    std::vector<std::string> keywords = RandomKeywords(&keyword_rng);
    if (keyword_rng() % 3 == 0) keywords.push_back("x");
    SCOPED_TRACE("QPT:\n" + qpt.ToString());
    auto indexes = index::BuildDocumentIndexes(*doc);

    PdtBuildStats skeleton_stats;
    auto skeleton = GeneratePdt(qpt, *indexes, {}, &skeleton_stats);
    ASSERT_TRUE(skeleton.ok()) << skeleton.status();
    PdtBuildStats keyword_stats;
    auto expected = GeneratePdt(qpt, *indexes, keywords, &keyword_stats);
    ASSERT_TRUE(expected.ok()) << expected.status();
    auto inv_lists = PrepareInvLists(indexes->View(), keywords);
    ASSERT_TRUE(inv_lists.ok()) << inv_lists.status();

    std::shared_ptr<Document> annotated = AnnotatePdt(*skeleton, *inv_lists);
    ExpectSamePdt(**expected, *annotated);
    // Both builds count term frequencies with the same cursor: check
    // them against the base document too.
    CheckFoldedFields(qpt, *doc, *annotated, BruteForcePe(qpt, *doc),
                      keywords);
    // The skeleton itself stays keyword-free: annotation copies it.
    for (NodeIndex i = 0; i < (*skeleton)->size(); ++i) {
      const xml::Node& node = (*skeleton)->node(i);
      if (node.stats != nullptr) {
        EXPECT_TRUE(node.stats->term_tf.empty());
      }
    }
    // Same nodes, same build figures; pdt_bytes, summed while assembling,
    // is the serialized size of the whole PDT.
    EXPECT_EQ(skeleton_stats.ids_processed, keyword_stats.ids_processed);
    EXPECT_EQ(skeleton_stats.nodes_emitted, keyword_stats.nodes_emitted);
    EXPECT_EQ(skeleton_stats.pdt_bytes, keyword_stats.pdt_bytes);
    EXPECT_EQ(keyword_stats.pdt_bytes,
              (*expected)->has_root()
                  ? xml::SubtreeByteLength(**expected, (*expected)->root())
                  : 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PdtDefinitionProperty,
                         ::testing::Range(1, 61));

}  // namespace
}  // namespace quickview::pdt
