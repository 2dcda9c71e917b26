// Direct unit tests of the Candidate Tree data structure (paper Fig 12 /
// Appendix E): prefix insertion, CTQNodeSet merging, DescendantMap
// propagation, parent lists under both axes, and the containment
// re-parenting invariant.
#include "pdt/candidate_tree.h"

#include <gtest/gtest.h>

namespace quickview::pdt {
namespace {

using xml::DeweyId;

/// QPT: doc -> books(/) -> book(//) -> { isbn(/, m), year(/, o) }.
qpt::Qpt MakeBookQpt() {
  qpt::Qpt qpt;
  qpt.nodes.push_back(qpt::QptNode{});
  int books = qpt.AddNode(0, "books", false, true);
  int book = qpt.AddNode(books, "book", true, true);
  qpt.AddNode(book, "isbn", false, true);   // mandatory
  qpt.AddNode(book, "year", false, false);  // optional
  return qpt;
}

// Depth-to-QPT-node maps for ids drawn from the isbn and year lists on
// data path /books/book/{isbn,year}.
std::vector<std::vector<int>> IsbnMap() { return {{1}, {2}, {3}}; }
std::vector<std::vector<int>> YearMap() { return {{1}, {2}, {4}}; }

TEST(CandidateTreeTest, AddIdCreatesPrefixChain) {
  qpt::Qpt qpt = MakeBookQpt();
  CandidateTree ct(&qpt);
  ct.AddId(DeweyId::Parse("1.2.1"), IsbnMap(), 0, nullptr, 10);
  ASSERT_TRUE(ct.HasNodes());
  std::vector<CtNode*> lmp = ct.LeftMostPath();
  ASSERT_EQ(lmp.size(), 3u);
  EXPECT_EQ(lmp[0]->id.ToString(), "1");
  EXPECT_EQ(lmp[1]->id.ToString(), "1.2");
  EXPECT_EQ(lmp[2]->id.ToString(), "1.2.1");
  EXPECT_EQ(lmp[0]->qentries.size(), 1u);
  EXPECT_EQ(lmp[0]->qentries[0].qnode, 1);
  EXPECT_EQ(lmp[2]->qentries[0].qnode, 3);
}

TEST(CandidateTreeTest, LeafIsCandidateInteriorWaitsForMandatoryChild) {
  qpt::Qpt qpt = MakeBookQpt();
  CandidateTree ct(&qpt);
  // A year only: book must NOT become a candidate (isbn is mandatory,
  // year optional).
  ct.AddId(DeweyId::Parse("1.2.6"), YearMap(), 0, nullptr, 4);
  std::vector<CtNode*> lmp = ct.LeftMostPath();
  CtQEntry* book = lmp[1]->FindEntry(2);
  ASSERT_NE(book, nullptr);
  EXPECT_TRUE(ct.IsCandidate(lmp[2]->qentries[0]));  // year leaf
  EXPECT_FALSE(ct.IsCandidate(*book));
  // The isbn arrives: DM bit set, book becomes a candidate, and the
  // cascade reaches books (whose mandatory child is book).
  ct.AddId(DeweyId::Parse("1.2.9"), IsbnMap(), 1, nullptr, 10);
  EXPECT_TRUE(ct.IsCandidate(*book));
  CtQEntry* books = ct.LeftMostPath()[0]->FindEntry(1);
  ASSERT_NE(books, nullptr);
  EXPECT_TRUE(ct.IsCandidate(*books));
}

TEST(CandidateTreeTest, ParentListRespectsAxis) {
  qpt::Qpt qpt = MakeBookQpt();
  CandidateTree ct(&qpt);
  ct.AddId(DeweyId::Parse("1.2.1"), IsbnMap(), 0, nullptr, 10);
  std::vector<CtNode*> lmp = ct.LeftMostPath();
  // isbn's parent list points at the book entry of node 1.2 (child axis).
  const CtQEntry& isbn = lmp[2]->qentries[0];
  ASSERT_EQ(isbn.parent_list.size(), 1u);
  EXPECT_EQ(isbn.parent_list[0].first, lmp[1]);
  // book's parent list points at books (descendant axis across 1 level).
  const CtQEntry& book = lmp[1]->qentries[0];
  ASSERT_EQ(book.parent_list.size(), 1u);
  EXPECT_EQ(book.parent_list[0].first, lmp[0]);
}

TEST(CandidateTreeTest, SharedPrefixesMergeEntries) {
  qpt::Qpt qpt = MakeBookQpt();
  CandidateTree ct(&qpt);
  ct.AddId(DeweyId::Parse("1.2.1"), IsbnMap(), 0, nullptr, 10);
  ct.AddId(DeweyId::Parse("1.2.6"), YearMap(), 1, nullptr, 4);
  std::vector<CtNode*> lmp = ct.LeftMostPath();
  // Node 1.2 exists once with a single book entry, two leaf children.
  EXPECT_EQ(lmp[1]->qentries.size(), 1u);
  EXPECT_EQ(lmp[1]->children.size(), 2u);
  EXPECT_EQ(ct.live_nodes, 4u);
}

TEST(CandidateTreeTest, ListCountsTrackDirectIdsOnly) {
  qpt::Qpt qpt = MakeBookQpt();
  CandidateTree ct(&qpt);
  ct.AddId(DeweyId::Parse("1.2.1"), IsbnMap(), 0, nullptr, 10);
  ct.AddId(DeweyId::Parse("1.4.1"), IsbnMap(), 0, nullptr, 10);
  EXPECT_EQ(ct.ListCount(0), 2);  // prefixes don't count
  EXPECT_EQ(ct.ListCount(1), 0);
  std::vector<CtNode*> lmp = ct.LeftMostPath();
  ct.DecrementListCounts(*lmp.back());
  EXPECT_EQ(ct.ListCount(0), 1);
}

std::vector<std::string> ChildIds(const CtNode& node) {
  std::vector<std::string> out;
  for (const auto& child : node.children) out.push_back(child->id.ToString());
  return out;
}

TEST(CandidateTreeTest, ReparentingPreservesContainment) {
  // Insert deep ids whose intermediate depths map to no QPT node, then
  // an id that *creates* the intermediate node: the earlier deep nodes
  // must move under it.
  qpt::Qpt qpt;
  qpt.nodes.push_back(qpt::QptNode{});
  int r = qpt.AddNode(0, "r", true, true);
  int x = qpt.AddNode(r, "x", true, true);  // leaf via //
  (void)x;
  CandidateTree ct(&qpt);
  // x at 1.5.2, 1.5.4, 1.5.7 and 1.6.1; depth 2 (the 1.5 and 1.6
  // elements) maps to nothing for this path, so all four hang off node 1.
  for (const char* id : {"1.5.2", "1.5.4", "1.5.7", "1.6.1"}) {
    ct.AddId(DeweyId::Parse(id), {{r}, {}, {x}}, 0, nullptr, 1);
  }
  const CtNode* top = ct.LeftMostPath()[0];
  EXPECT_EQ(ChildIds(*top),
            (std::vector<std::string>{"1.5.2", "1.5.4", "1.5.7", "1.6.1"}));
  // Another id maps depth 2 to r (repeating-tag scenario): node 1.5 is
  // created and must adopt 1.5.2, 1.5.4 and 1.5.7 in order, while the
  // non-descendant 1.6.1 stays under node 1.
  ct.AddId(DeweyId::Parse("1.5.9"), {{r}, {r}, {x}}, 0, nullptr, 1);
  std::vector<CtNode*> lmp = ct.LeftMostPath();
  ASSERT_EQ(lmp.size(), 3u);
  EXPECT_EQ(lmp[0]->id.ToString(), "1");
  EXPECT_EQ(lmp[1]->id.ToString(), "1.5");
  EXPECT_EQ(lmp[2]->id.ToString(), "1.5.2");
  EXPECT_EQ(lmp[2]->parent, lmp[1]);
  EXPECT_EQ(ChildIds(*lmp[0]), (std::vector<std::string>{"1.5", "1.6.1"}));
  EXPECT_EQ(lmp[0]->children[1]->parent, lmp[0]);
  EXPECT_EQ(ChildIds(*lmp[1]),
            (std::vector<std::string>{"1.5.2", "1.5.4", "1.5.7", "1.5.9"}));
  for (const auto& child : lmp[1]->children) {
    EXPECT_EQ(child->parent, lmp[1]) << child->id.ToString();
  }
  EXPECT_EQ(ct.live_nodes, 7u);
}

TEST(CandidateTreeTest, PayloadAttachesToFullDepthNode) {
  qpt::Qpt qpt = MakeBookQpt();
  CandidateTree ct(&qpt);
  const std::string value = "111-11";
  ct.AddId(DeweyId::Parse("1.2.1"), IsbnMap(), 0, &value, 42);
  CtNode* leaf = ct.LeftMostPath().back();
  EXPECT_TRUE(leaf->has_payload);
  ASSERT_NE(leaf->value, nullptr);
  EXPECT_EQ(*leaf->value, "111-11");
  EXPECT_EQ(leaf->byte_length, 42u);
  EXPECT_FALSE(ct.LeftMostPath()[0]->has_payload);
}

// RemoveBottom returns a node to the tree's pool and the next new prefix
// reuses it: the reused node must come back with only its new id's
// entries, parent lists, payload and children.
TEST(CandidateTreeTest, ReleasedNodeIsReusedWithFreshState) {
  qpt::Qpt qpt = MakeBookQpt();
  CandidateTree ct(&qpt);
  const std::string isbn_a = "111-11";
  const std::string isbn_b = "222-22";
  ct.AddId(DeweyId::Parse("1.2.1"), IsbnMap(), 0, &isbn_a, 10);
  ct.AddId(DeweyId::Parse("1.2.6"), YearMap(), 1, nullptr, 4);
  CtNode* books = ct.LeftMostPath()[0];
  CtNode* old_book = ct.LeftMostPath()[1];
  ASSERT_TRUE(ct.IsCandidate(old_book->qentries[0]));
  // Drain 1.2's subtree bottom-up, as the merge loop does.
  CtNode* old_isbn = ct.LeftMostPath().back();
  ct.RemoveBottom(old_isbn);
  EXPECT_TRUE(old_isbn->released);
  EXPECT_EQ(ct.ListCount(0), 0);
  ct.RemoveBottom(ct.LeftMostPath().back());  // 1.2.6
  ASSERT_EQ(ct.LeftMostPath().back(), old_book);
  ct.RemoveBottom(old_book);
  EXPECT_EQ(ct.live_nodes, 1u);
  EXPECT_EQ(books->children.size(), 0u);

  // The pool hands out the most recently released node first.
  ct.AddId(DeweyId::Parse("1.5.3"), IsbnMap(), 0, &isbn_b, 12);
  std::vector<CtNode*> lmp = ct.LeftMostPath();
  ASSERT_EQ(lmp.size(), 3u);
  CtNode* book = lmp[1];
  CtNode* isbn = lmp[2];
  EXPECT_EQ(book, old_book);
  EXPECT_FALSE(book->released);
  EXPECT_EQ(book->id.ToString(), "1.5");
  EXPECT_EQ(isbn->id.ToString(), "1.5.3");
  // Containment.
  EXPECT_EQ(lmp[0], books);
  EXPECT_EQ(book->parent, books);
  EXPECT_EQ(isbn->parent, book);
  EXPECT_EQ(ChildIds(*books), (std::vector<std::string>{"1.5"}));
  EXPECT_EQ(ChildIds(*book), (std::vector<std::string>{"1.5.3"}));
  EXPECT_TRUE(isbn->children.empty());
  // Entries and parent lists of the new ids only.
  ASSERT_EQ(book->qentries.size(), 1u);
  EXPECT_EQ(book->qentries[0].qnode, 2);
  EXPECT_FALSE(book->qentries[0].in_pdt);
  ASSERT_EQ(book->qentries[0].parent_list.size(), 1u);
  EXPECT_EQ(book->qentries[0].parent_list[0], CtRef(books, 0));
  ASSERT_EQ(isbn->qentries.size(), 1u);
  EXPECT_EQ(isbn->qentries[0].qnode, 3);
  ASSERT_EQ(isbn->qentries[0].parent_list.size(), 1u);
  EXPECT_EQ(isbn->qentries[0].parent_list[0], CtRef(book, 0));
  EXPECT_TRUE(ct.IsCandidate(book->qentries[0]));
  // Borrowed payload: the new list value, none on the interior node.
  EXPECT_EQ(isbn->value, &isbn_b);
  EXPECT_EQ(isbn->byte_length, 12u);
  EXPECT_TRUE(isbn->has_payload);
  EXPECT_EQ(book->value, nullptr);
  EXPECT_FALSE(book->has_payload);
  EXPECT_TRUE(book->source_lists.empty());
  EXPECT_TRUE(book->pdt_cache.empty());
  EXPECT_EQ(ct.ListCount(0), 1);
  EXPECT_EQ(ct.live_nodes, 3u);
  EXPECT_EQ(ct.peak_nodes, 4u);
}

// A released node reused as a new intermediate prefix adopts the
// existing descendants of that prefix, like a fresh one.
TEST(CandidateTreeTest, ReusedNodeAdoptsDescendantsOnReparenting) {
  qpt::Qpt qpt;
  qpt.nodes.push_back(qpt::QptNode{});
  int r = qpt.AddNode(0, "r", true, true);
  int x = qpt.AddNode(r, "x", true, true);
  CandidateTree ct(&qpt);
  const std::string value = "v";
  for (const char* id : {"1.5.2", "1.5.4", "1.5.7"}) {
    ct.AddId(DeweyId::Parse(id), {{r}, {}, {x}}, 0, nullptr, 1);
  }
  CtNode* released = ct.LeftMostPath().back();
  ASSERT_EQ(released->id.ToString(), "1.5.2");
  ct.RemoveBottom(released);
  // Depth 2 now maps to r: node 1.5 comes from the pool and must adopt
  // 1.5.4 and 1.5.7.
  ct.AddId(DeweyId::Parse("1.5.9"), {{r}, {r}, {x}}, 0, &value, 1);
  std::vector<CtNode*> lmp = ct.LeftMostPath();
  ASSERT_EQ(lmp.size(), 3u);
  EXPECT_EQ(lmp[1], released);
  EXPECT_EQ(lmp[1]->id.ToString(), "1.5");
  EXPECT_EQ(ChildIds(*lmp[0]), (std::vector<std::string>{"1.5"}));
  EXPECT_EQ(ChildIds(*lmp[1]),
            (std::vector<std::string>{"1.5.4", "1.5.7", "1.5.9"}));
  for (const CtNode* child : lmp[1]->children) {
    EXPECT_EQ(child->parent, lmp[1]) << child->id.ToString();
  }
  EXPECT_EQ(lmp[1]->value, nullptr);
  EXPECT_EQ(lmp[1]->children.back()->value, &value);
  // The new leaf's x entry lists both r ancestors (descendant axis).
  const CtQEntry& leaf = lmp[1]->children.back()->qentries[0];
  EXPECT_EQ(leaf.parent_list,
            (ParentList{CtRef(lmp[0], 0), CtRef(lmp[1], 0)}));
}

#ifndef NDEBUG
TEST(CandidateTreeDeathTest, ParentListReachingAReleasedNodeAsserts) {
  qpt::Qpt qpt = MakeBookQpt();
  CandidateTree ct(&qpt);
  ct.AddId(DeweyId::Parse("1.2.1"), IsbnMap(), 0, nullptr, 10);
  CtNode* isbn = ct.LeftMostPath().back();
  const CtRef stale(isbn, 0);
  ct.RemoveBottom(isbn);
  EXPECT_DEATH(CandidateTree::Entry(stale), "released node");
}
#endif

}  // namespace
}  // namespace quickview::pdt
