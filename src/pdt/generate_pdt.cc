#include "pdt/generate_pdt.h"

#include <algorithm>
#include <cassert>

#include "pdt/candidate_tree.h"
#include "xml/serializer.h"

namespace quickview::pdt {

void SortAndFoldPdtElements(std::vector<PdtElement>* elements) {
  auto by_id = [](const PdtElement& a, const PdtElement& b) {
    return a.id < b.id;
  };
  // The merge pass usually emits in Dewey order already, but not always:
  // an ancestor can be confirmed for a second QPT node after its
  // descendants were emitted, and an id parked in a pdt cache is emitted
  // once an ancestor is confirmed, after ids that follow it. The GTP
  // baseline emits one QPT node at a time.
  if (!std::is_sorted(elements->begin(), elements->end(), by_id)) {
    std::stable_sort(elements->begin(), elements->end(), by_id);
  }
  size_t kept = 0;
  for (PdtElement& x : *elements) {
    if (kept > 0 && (*elements)[kept - 1].id == x.id) {
      PdtElement& folded = (*elements)[kept - 1];
      if (folded.tag.empty()) folded.tag = std::move(x.tag);
      if (x.value.has_value()) folded.value = std::move(x.value);
      if (x.byte_length > 0) folded.byte_length = x.byte_length;
      folded.content = folded.content || x.content;
    } else {
      if (&(*elements)[kept] != &x) (*elements)[kept] = std::move(x);
      ++kept;
    }
  }
  elements->resize(kept);
}

std::shared_ptr<xml::Document> AssemblePdtDocument(
    std::vector<PdtElement> elements, const std::vector<InvList>& inv_lists,
    uint64_t* pdt_bytes) {
  uint32_t root_component = 1;
  if (!elements.empty()) root_component = elements.front().id.component(0);
  auto doc = std::make_shared<xml::Document>(root_component);
  // Every 'c' node's stats live in one block, sized up front so that it
  // never reallocates: a node's stats pointer aliases its slot and shares
  // the block's ownership.
  auto stats_block = std::make_shared<std::vector<xml::NodeStats>>();
  stats_block->reserve(static_cast<size_t>(std::count_if(
      elements.begin(), elements.end(),
      [](const PdtElement& e) { return e.content; })));
  // 'c' nodes come in Dewey order, so their term frequencies come from
  // one forward pass over each keyword list.
  SubtreeTfCursor tf_cursor(inv_lists);
  uint64_t bytes = 0;
  // Nodes along the current root-to-leaf path.
  std::vector<xml::NodeIndex> stack;
  for (PdtElement& entry : elements) {
    const xml::DeweyId& id = entry.id;
    while (!stack.empty() && !doc->node(stack.back()).id.IsAncestorOf(id)) {
      stack.pop_back();
    }
    // Ancestors absent from the element set become structural
    // placeholders (iterated in sorted order, any present ancestor is
    // already on the stack).
    size_t base_depth = stack.empty() ? 0 : doc->node(stack.back()).id.depth();
    for (size_t depth = base_depth + 1; depth < id.depth(); ++depth) {
      stack.push_back(stack.empty() ? doc->CreateRoot("qv:gap")
                                    : doc->AddChildWithId(stack.back(),
                                                          "qv:gap",
                                                          id.Prefix(depth)));
      bytes += xml::OwnByteLength(doc->node(stack.back()));
    }
    xml::NodeIndex node =
        stack.empty()
            ? doc->CreateRoot(std::move(entry.tag))
            : doc->AddChildWithId(stack.back(), std::move(entry.tag), id);
    if (entry.value.has_value()) doc->node(node).text = std::move(*entry.value);
    bytes += xml::OwnByteLength(doc->node(node));
    if (entry.content) {
      xml::NodeStats& stats = stats_block->emplace_back();
      stats.byte_length = entry.byte_length;
      stats.content_pruned = true;
      stats.source_doc = id.component(0);
      stats.source_id = id;
      stats.term_tf.reserve(inv_lists.size());
      tf_cursor.Append(id, &stats.term_tf);
      doc->node(node).stats =
          std::shared_ptr<const xml::NodeStats>(stats_block, &stats);
    }
    stack.push_back(node);
  }
  if (pdt_bytes != nullptr) *pdt_bytes = bytes;
  return doc;
}

std::shared_ptr<xml::Document> AnnotatePdt(
    std::shared_ptr<xml::Document> skeleton,
    const std::vector<InvList>& inv_lists) {
  size_t content_nodes = 0;
  for (xml::NodeIndex i = 0; i < skeleton->size(); ++i) {
    if (skeleton->node(i).stats != nullptr) ++content_nodes;
  }
  if (content_nodes == 0) return skeleton;
  auto doc = std::make_shared<xml::Document>(skeleton->Clone());
  // As in AssemblePdtDocument: one block, sized up front, holds every
  // 'c' node's stats. The node array is in Dewey order (pre-order), as
  // the cursor needs.
  auto stats_block = std::make_shared<std::vector<xml::NodeStats>>();
  stats_block->reserve(content_nodes);
  SubtreeTfCursor tf_cursor(inv_lists);
  for (xml::NodeIndex i = 0; i < doc->size(); ++i) {
    xml::Node& node = doc->node(i);
    if (node.stats == nullptr) continue;
    assert(node.stats->term_tf.empty());  // built with no keywords
    xml::NodeStats& stats = stats_block->emplace_back(*node.stats);
    stats.term_tf.reserve(inv_lists.size());
    tf_cursor.Append(node.id, &stats.term_tf);
    node.stats = std::shared_ptr<const xml::NodeStats>(stats_block, &stats);
  }
  return doc;
}

namespace {

class PdtGenerator {
 public:
  PdtGenerator(const qpt::Qpt& qpt, PreparedLists lists, PdtBuildStats* stats)
      : qpt_(qpt), lists_(std::move(lists)), ct_(&qpt), stats_(stats) {}

  Result<std::shared_ptr<xml::Document>> Run() {
    cursors_.assign(lists_.path_lists.size(), 0);
    list_for_qnode_.assign(qpt_.nodes.size(), -1);
    for (size_t i = 0; i < lists_.path_lists.size(); ++i) {
      list_for_qnode_[lists_.path_lists[i].qpt_node] = static_cast<int>(i);
    }

    // Initialize the CT with the minimum id of every list (Fig 9 lines
    // 4-6).
    for (size_t i = 0; i < lists_.path_lists.size(); ++i) {
      Pull(static_cast<int>(i));
    }

    // Main loop (Fig 9 lines 7-15 / Fig 25 lines 8-19).
    while (ct_.HasNodes()) {
      // Step 1: for every QPT node on the left-most path that has a list,
      // retrieve the next minimum id, keeping at most two ids per list in
      // the CT (Fig 9 line 10) — EXCEPT that a list with any pending id
      // inside the current bottom node's subtree keeps pulling
      // regardless: removing the bottom is only sound once no future id
      // can still be one of its descendants, and the in-CT ids of such a
      // list are necessarily all on the left-most path, so the two-id
      // cap alone would starve exactly these pulls. Once those are done,
      // any list at all whose next id still precedes the end of the
      // bottom's subtree is pulled too: that id belongs at or above the
      // left-most path, and processing the path before it arrives would
      // emit a node without its value or byte length (or remove the
      // bottom too early). Repeat until quiescent (each pull may deepen
      // or reshape the left-most path).
      bool pulled = true;
      while (pulled) {
        pulled = false;
        // Pulls reshape the tree but never release a node, so the path's
        // pointers (and the bottom's id) stay valid for this round.
        const std::vector<CtNode*>& lmp = ct_.LeftMostPath();
        const xml::DeweyId& bottom_id = lmp.back()->id;
        for (CtNode* node : lmp) {
          // Snapshot the qnode ids: Pull() may add entries to this very
          // node, reallocating `qentries` and invalidating any reference
          // held across the call. (CtNode objects themselves are stable —
          // the tree's pool never moves them — only the vector moves.)
          qnode_snapshot_.clear();
          for (const CtQEntry& entry : node->qentries) {
            qnode_snapshot_.push_back(entry.qnode);
          }
          for (int qnode : qnode_snapshot_) {
            int list = list_for_qnode_[qnode];
            if (list < 0) continue;
            if (PeekNext(list) == nullptr) continue;
            if (ct_.ListCount(list) < 2 ||
                ListHasPendingDescendant(list, bottom_id)) {
              Pull(list);
              pulled = true;
            }
          }
          if (pulled) break;  // the left-most path may have changed
        }
        if (!pulled) pulled = PullThroughSubtreeOf(bottom_id);
      }
      // Step 2: create PDT nodes top-down along the left-most path.
      const std::vector<CtNode*>& lmp = ct_.LeftMostPath();
      for (CtNode* node : lmp) ProcessTopDown(node);
      // Step 3: remove the bottom node (always childless by construction
      // of the left-most path), flushing its pdt cache upward.
      FlushAndRemoveBottom(lmp.back());
    }
    // Entries that reached the CT root's cache with a vacuous ancestor
    // constraint are final PDT nodes.
    FlushRootCache();

    SortAndFoldPdtElements(&output_);
    const uint64_t nodes_emitted = output_.size();
    uint64_t pdt_bytes = 0;
    std::shared_ptr<xml::Document> doc =
        AssemblePdtDocument(std::move(output_), lists_.inv_lists, &pdt_bytes);
    if (stats_ != nullptr) {
      stats_->peak_ct_nodes = ct_.peak_nodes;
      stats_->nodes_emitted = nodes_emitted;
      stats_->index_probes = lists_.index_probes;
      stats_->pdt_bytes = pdt_bytes;
    }
    return doc;
  }

 private:
  /// Next unconsumed id of the list, or nullptr when exhausted.
  const xml::DeweyId* PeekNext(int list) const {
    const PathList& pl = lists_.path_lists[list];
    if (cursors_[list] >= pl.entries.size()) return nullptr;
    return &pl.entries[cursors_[list]].id;
  }

  /// True iff some not-yet-pulled id of the list is `bottom` or one of
  /// its descendants (contiguous range in the Dewey-ordered list).
  bool ListHasPendingDescendant(int list, const xml::DeweyId& bottom) const {
    const PathList& pl = lists_.path_lists[list];
    if (cursors_[list] >= pl.entries.size()) return false;
    const xml::DeweyId& next = pl.entries[cursors_[list]].id;
    if (!(next < bottom)) return bottom.IsPrefixOf(next);  // no search needed
    auto it = std::lower_bound(
        pl.entries.begin() + static_cast<ptrdiff_t>(cursors_[list]),
        pl.entries.end(), bottom,
        [](const ListEntry& e, const xml::DeweyId& key) {
          return e.id < key;
        });
    return it != pl.entries.end() && bottom.IsPrefixOf(it->id);
  }

  /// Pulls one id from the first list whose next id precedes the end of
  /// `bottom`'s subtree in Dewey order; false when there is none.
  bool PullThroughSubtreeOf(const xml::DeweyId& bottom) {
    for (size_t list = 0; list < lists_.path_lists.size(); ++list) {
      const xml::DeweyId* next = PeekNext(static_cast<int>(list));
      if (next != nullptr && (*next < bottom || bottom.IsPrefixOf(*next))) {
        Pull(static_cast<int>(list));
        return true;
      }
    }
    return false;
  }

  void Pull(int list) {
    PathList& pl = lists_.path_lists[list];
    if (cursors_[list] >= pl.entries.size()) return;
    const ListEntry& entry = pl.entries[cursors_[list]++];
    ct_.AddId(entry.id, pl.depth_qnodes[entry.path_ordinal], list,
              entry.value.has_value() ? &*entry.value : nullptr,
              entry.byte_length);
    if (stats_ != nullptr) ++stats_->ids_processed;
  }

  /// Fig 27 lines 2-14: confirm entries whose ancestor + descendant
  /// constraints hold; park descendant-satisfied entries in the tree
  /// parent's pdt cache otherwise.
  void ProcessTopDown(CtNode* node) {
    for (CtQEntry& entry : node->qentries) {
      if (entry.in_pdt || !ct_.IsCandidate(entry)) continue;
      bool root_parent = qpt_.nodes[entry.qnode].parent == 0;
      bool ancestors_ok = root_parent;
      if (!ancestors_ok) {
        for (const CtRef& ref : entry.parent_list) {
          if (CandidateTree::Entry(ref).in_pdt) {
            ancestors_ok = true;
            break;
          }
        }
      }
      if (ancestors_ok) {
        entry.in_pdt = true;
        Emit(node, entry.qnode);
      } else {
        CacheCandidate(node, entry);
      }
    }
  }

  /// Appends one output record; SortAndFoldPdtElements merges the records
  /// of an id matched by several QPT nodes at the end of the build. The
  /// record is where a borrowed list value is copied, once.
  void Emit(CtNode* node, int qnode) {
    const qpt::QptNode& q = qpt_.nodes[qnode];
    PdtElement& out = output_.emplace_back();
    out.id = node->id;
    out.tag = q.tag;
    if (q.v_ann && node->value != nullptr) out.value = *node->value;
    out.byte_length = node->byte_length;
    out.content = q.c_ann;
    node->emitted = true;
  }

  void EmitCache(const PdtCacheEntry& x) {
    PdtElement& out = output_.emplace_back();
    out.id = x.id;
    out.tag = *x.tag;
    if (x.value != nullptr) out.value = *x.value;
    out.byte_length = x.byte_length;
    out.content = x.content;
  }

  void CacheCandidate(CtNode* node, const CtQEntry& entry) {
    CtNode* parent = node->parent;
    const qpt::QptNode& qnode = qpt_.nodes[entry.qnode];
    for (PdtCacheEntry& existing : parent->pdt_cache) {
      if (existing.id == node->id) {
        // Merge another QPT-node view of the same id.
        for (auto& p : entry.parent_list) {
          if (std::find(existing.parent_list.begin(),
                        existing.parent_list.end(),
                        p) == existing.parent_list.end()) {
            existing.parent_list.push_back(p);
          }
        }
        existing.content = existing.content || qnode.c_ann;
        if (qnode.v_ann && node->value != nullptr) {
          existing.value = node->value;
        }
        return;
      }
    }
    PdtCacheEntry& x = parent->pdt_cache.emplace_back();
    x.id = node->id;
    x.tag = &qnode.tag;
    x.value = qnode.v_ann ? node->value : nullptr;
    x.byte_length = node->byte_length;
    x.content = qnode.c_ann;
    x.root_parent = false;  // root-parent entries are confirmed directly
    x.parent_list = ct_.TakeParentList();
    x.parent_list.assign(entry.parent_list.begin(), entry.parent_list.end());
  }

  /// Fig 27 lines 19-34: flush the bottom node's pdt cache (emit, drop, or
  /// propagate with rewritten parent lists), then unlink the node and
  /// return it to the tree's pool.
  void FlushAndRemoveBottom(CtNode* bottom) {
    CtNode* parent = bottom->parent;
    for (PdtCacheEntry& x : bottom->pdt_cache) {
      bool ancestors_ok = x.root_parent;
      if (!ancestors_ok) {
        for (const CtRef& ref : x.parent_list) {
          if (CandidateTree::Entry(ref).in_pdt) {
            ancestors_ok = true;
            break;
          }
        }
      }
      if (ancestors_ok) {
        EmitCache(x);
        continue;
      }
      // Rewrite references to the node being removed: a candidate parent
      // entry is replaced by its own parents (the constraint transfers one
      // level up); a non-candidate parent entry is dead — its descendant
      // map can no longer change — and is simply dropped (Fig 27 line 26).
      rewritten_.clear();
      for (auto& ref : x.parent_list) {
        if (ref.first != bottom) {
          rewritten_.push_back(ref);
          continue;
        }
        CtQEntry& q = bottom->qentries[ref.second];
        if (!ct_.IsCandidate(q)) continue;  // dead parent
        if (qpt_.nodes[q.qnode].parent == 0) x.root_parent = true;
        for (auto& up : q.parent_list) {
          if (std::find(rewritten_.begin(), rewritten_.end(), up) ==
              rewritten_.end()) {
            rewritten_.push_back(up);
          }
        }
      }
      x.parent_list.swap(rewritten_);
      if (x.parent_list.empty() && !x.root_parent) continue;  // dead
      // Propagate to the parent's cache (merge by id).
      bool merged = false;
      for (PdtCacheEntry& existing : parent->pdt_cache) {
        if (existing.id == x.id) {
          for (auto& p : x.parent_list) {
            if (std::find(existing.parent_list.begin(),
                          existing.parent_list.end(),
                          p) == existing.parent_list.end()) {
              existing.parent_list.push_back(p);
            }
          }
          existing.content = existing.content || x.content;
          existing.root_parent = existing.root_parent || x.root_parent;
          if (x.value != nullptr) existing.value = x.value;
          merged = true;
          break;
        }
      }
      if (!merged) parent->pdt_cache.push_back(std::move(x));
    }
    ct_.RemoveBottom(bottom);
  }

  void FlushRootCache() {
    for (const PdtCacheEntry& x : ct_.root()->pdt_cache) {
      // Any remaining parent refs point at removed entries' survivors —
      // by the flush discipline, only in_pdt parents can remain reachable.
      if (x.root_parent) EmitCache(x);
    }
    ct_.root()->pdt_cache.clear();
  }

  const qpt::Qpt& qpt_;
  PreparedLists lists_;
  CandidateTree ct_;
  PdtBuildStats* stats_;
  std::vector<size_t> cursors_;
  std::vector<int> list_for_qnode_;
  /// Scratch buffer for the pull loop's per-node qnode snapshot (member to
  /// avoid reallocating once per node per round).
  std::vector<int> qnode_snapshot_;
  /// Scratch for FlushAndRemoveBottom's parent-list rewrite.
  ParentList rewritten_;
  /// Emitted records in emission order, folded once at the end.
  std::vector<PdtElement> output_;
};

}  // namespace

Result<std::shared_ptr<xml::Document>> GeneratePdtFromLists(
    const qpt::Qpt& qpt, PreparedLists lists, PdtBuildStats* stats) {
  return PdtGenerator(qpt, std::move(lists), stats).Run();
}

Result<std::shared_ptr<xml::Document>> GeneratePdt(
    const qpt::Qpt& qpt, const index::DocumentIndexView& indexes,
    const std::vector<std::string>& keywords, PdtBuildStats* stats) {
  QV_ASSIGN_OR_RETURN(PreparedLists lists,
                      PrepareLists(qpt, indexes, keywords));
  return GeneratePdtFromLists(qpt, std::move(lists), stats);
}

}  // namespace quickview::pdt
