// The Candidate Tree (paper §4.2.2, Appendix E): the working set of the
// single-merge-pass PDT generation algorithm. Every CT node corresponds to
// a Dewey id prefix seen in the path lists and carries one CtQEntry per
// QPT node the prefix matches (CTQNodeSet — a set, because repeating tag
// names let one id match several QPT nodes). Each entry tracks
//   - DM (DescendantMap): which mandatory child edges have a candidate
//     child/descendant element, bit per mandatory edge;
//   - PL (ParentList): the ancestor entries matching the parent QPT node
//     under the edge's axis;
//   - InPdt: whether the id has been confirmed into the result PDT.
// Nodes whose descendant constraints hold but whose ancestor constraints
// are still open are parked in their tree parent's PdtCache and re-judged
// as ancestors are resolved bottom-up.
//
// A CandidateTree is per-query scratch state: it is created inside one
// GeneratePdt call and never shared. Accessors that only inspect the
// tree are const so read-side code cannot grow mutation paths.
//
// Memory: the tree owns a pool of nodes. RemoveBottom returns a node to a
// free list with the capacity of its vectors intact, and parent-list
// buffers circulate through a spare list, so once the tree has reached
// its peak size the merge allocates only when a vector outgrows a
// recycled buffer. Node payload values are borrowed: they point into the
// PreparedLists the caller owns, which must outlive the tree.
#ifndef QUICKVIEW_PDT_CANDIDATE_TREE_H_
#define QUICKVIEW_PDT_CANDIDATE_TREE_H_

#include <cassert>
#include <cstdint>
#include <deque>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "qpt/qpt.h"
#include "xml/dewey_id.h"

namespace quickview::pdt {

class CtNode;

/// (ancestor CT node, index into its qentries).
using CtRef = std::pair<CtNode*, int>;
using ParentList = std::vector<CtRef>;

/// One (CT node, QPT node) association.
struct CtQEntry {
  int qnode = -1;
  bool in_pdt = false;
  /// True once this entry's candidacy has been propagated to its parents.
  bool notified = false;
  /// Bit i set = mandatory child i (in Qpt::MandatoryChildren order) has a
  /// candidate child/descendant element.
  uint64_t dm = 0;
  /// Ancestor entries matching the parent QPT node under the incoming
  /// edge's axis. Empty iff the parent is the virtual document root.
  ParentList parent_list;
};

/// A descendant id whose descendant constraints hold but whose ancestor
/// constraints are still undecided; parked in an ancestor's PdtCache.
struct PdtCacheEntry {
  xml::DeweyId id;
  const std::string* tag = nullptr;    // the matched QPT node's tag
  const std::string* value = nullptr;  // borrowed list value, if any
  uint64_t byte_length = 0;
  bool content = false;  // some matched QPT node is 'c'-annotated
  /// True iff some matched QPT node's parent is the virtual root (then the
  /// ancestor constraint is vacuous).
  bool root_parent = false;
  ParentList parent_list;
};

class CtNode {
 public:
  xml::DeweyId id;
  CtNode* parent = nullptr;
  /// Children in Dewey order of their full ids (depths without QPT
  /// matches are pruned from the CT, so a child may be more than one level
  /// deeper). No child is an ancestor of another. The tree's pool owns
  /// them.
  std::vector<CtNode*> children;
  std::vector<CtQEntry> qentries;
  std::vector<PdtCacheEntry> pdt_cache;

  // Payload from a direct list entry (leaf probe), if any. `value` points
  // into the caller's PreparedLists.
  const std::string* value = nullptr;
  uint64_t byte_length = 0;
  bool has_payload = false;
  bool emitted = false;
  /// True while the node sits on the pool's free list.
  bool released = false;
  /// Path lists this node's id was directly retrieved from.
  std::vector<int> source_lists;

  /// Entry for `qnode`, or nullptr.
  CtQEntry* FindEntry(int qnode);
  const CtQEntry* FindEntry(int qnode) const;
  int FindEntryIndex(int qnode) const;
};

/// The tree plus per-list membership counters (for the "at most two ids of
/// each list in the CT" pull rule of Fig 9 line 10).
class CandidateTree {
 public:
  explicit CandidateTree(const qpt::Qpt* qpt) : qpt_(qpt) {
    // Hot-path caches: mandatory children and the all-bits-set DM mask per
    // QPT node (IsCandidate runs once per entry per main-loop round).
    mandatory_children_.reserve(qpt->nodes.size());
    full_mask_.reserve(qpt->nodes.size());
    for (size_t n = 0; n < qpt->nodes.size(); ++n) {
      mandatory_children_.push_back(
          qpt->MandatoryChildren(static_cast<int>(n)));
      size_t count = mandatory_children_.back().size();
      full_mask_.push_back(count >= 64 ? ~uint64_t{0}
                                       : (uint64_t{1} << count) - 1);
    }
  }
  // Nodes point at the root member and into the pool.
  CandidateTree(const CandidateTree&) = delete;
  CandidateTree& operator=(const CandidateTree&) = delete;

  CtNode* root() { return &root_; }
  const CtNode* root() const { return &root_; }
  bool HasNodes() const { return !root_.children.empty(); }

  /// Inserts `id` (and its QPT-matching prefixes) into the tree.
  /// `depth_qnodes[d-1]` lists the QPT nodes a prefix of depth d matches;
  /// `list_index` is the path list the id came from; value/byte_length
  /// attach to the full-depth node (`value` is borrowed, nullptr when the
  /// list entry has none). Performs DM propagation (AddCTNode of Fig 26,
  /// incl. lines 15-17).
  void AddId(const xml::DeweyId& id,
             const std::vector<std::vector<int>>& depth_qnodes,
             int list_index, const std::string* value, uint64_t byte_length);

  /// Unlinks `bottom` — the bottom of the left-most path, so childless
  /// and its parent's first child — once its pdt cache has been flushed,
  /// and returns it to the pool. Its entries' parent lists go to the
  /// spare list.
  void RemoveBottom(CtNode* bottom);

  /// An empty parent list, reusing a released buffer when there is one.
  ParentList TakeParentList();

  /// The entry `ref` names. Debug builds check that it does not reach a
  /// released node.
  static CtQEntry& Entry(const CtRef& ref) {
    assert(!ref.first->released && "parent list reaches a released node");
    return ref.first->qentries[static_cast<size_t>(ref.second)];
  }

  /// Number of ids from path list `list_index` currently in the tree.
  int ListCount(int list_index) const;
  void DecrementListCounts(const CtNode& node);

  /// True iff every mandatory child bit of the entry is set.
  bool IsCandidate(const CtQEntry& entry) const;

  /// Nodes on the left-most path, top-down (root excluded). The returned
  /// buffer is reused: it stays valid until the next call.
  const std::vector<CtNode*>& LeftMostPath();

  size_t peak_nodes = 0;  // high-water mark, reported by benchmarks
  size_t live_nodes = 0;

 private:
  /// Marks the entry candidate-visible to its parents (sets their DM bits)
  /// and cascades.
  void NotifyCandidate(CtNode* node, int entry_index);
  /// A node for `prefix` under `parent`: a released one if any, else a
  /// fresh one from the pool.
  CtNode* NewNode(std::span<const uint32_t> prefix, CtNode* parent);
  void RecycleParentList(ParentList* list);

  const qpt::Qpt* qpt_;
  CtNode root_;
  std::deque<CtNode> pool_;           // every non-root node ever created
  std::vector<CtNode*> free_nodes_;   // released, capacity intact
  std::vector<ParentList> spare_parent_lists_;
  std::vector<int> list_counts_;                      // by path list
  std::vector<std::vector<int>> mandatory_children_;  // by QPT node
  std::vector<uint64_t> full_mask_;                   // by QPT node
  // Scratch reused across AddId / LeftMostPath calls so the per-id work
  // allocates only when the tree grows.
  std::vector<CtRef> ancestry_;
  std::vector<CtRef> new_entries_;
  std::vector<CtNode*> left_most_path_;
};

}  // namespace quickview::pdt

#endif  // QUICKVIEW_PDT_CANDIDATE_TREE_H_
