#include "pdt/candidate_tree.h"

#include <algorithm>
#include <cassert>

namespace quickview::pdt {

CtQEntry* CtNode::FindEntry(int qnode) {
  for (CtQEntry& entry : qentries) {
    if (entry.qnode == qnode) return &entry;
  }
  return nullptr;
}

const CtQEntry* CtNode::FindEntry(int qnode) const {
  for (const CtQEntry& entry : qentries) {
    if (entry.qnode == qnode) return &entry;
  }
  return nullptr;
}

int CtNode::FindEntryIndex(int qnode) const {
  for (size_t i = 0; i < qentries.size(); ++i) {
    if (qentries[i].qnode == qnode) return static_cast<int>(i);
  }
  return -1;
}

bool CandidateTree::IsCandidate(const CtQEntry& entry) const {
  uint64_t all = full_mask_[entry.qnode];
  return (entry.dm & all) == all;
}

void CandidateTree::NotifyCandidate(CtNode* node, int entry_index) {
  CtQEntry& entry = node->qentries[entry_index];
  if (entry.notified) return;
  entry.notified = true;
  int qnode = entry.qnode;
  int parent_qnode = qpt_->nodes[qnode].parent;
  if (parent_qnode < 0) return;
  for (const CtRef& ref : entry.parent_list) {
    CtQEntry& ancestor_entry = Entry(ref);
    // Locate this child edge's bit position among the parent's mandatory
    // children; optional edges carry no DM bit.
    if (!qpt_->nodes[qnode].parent_mandatory) continue;
    const std::vector<int>& mandatory = mandatory_children_[parent_qnode];
    auto it = std::find(mandatory.begin(), mandatory.end(), qnode);
    if (it == mandatory.end()) continue;
    uint64_t bit = uint64_t{1} << (it - mandatory.begin());
    if ((ancestor_entry.dm & bit) != 0) continue;
    ancestor_entry.dm |= bit;
    if (IsCandidate(ancestor_entry)) {
      NotifyCandidate(ref.first, ref.second);
    }
  }
}

CtNode* CandidateTree::NewNode(std::span<const uint32_t> prefix,
                               CtNode* parent) {
  CtNode* node;
  if (free_nodes_.empty()) {
    node = &pool_.emplace_back();
  } else {
    // RemoveBottom emptied its vectors; only the scalars need resetting.
    node = free_nodes_.back();
    free_nodes_.pop_back();
    node->value = nullptr;
    node->byte_length = 0;
    node->has_payload = false;
    node->emitted = false;
    node->released = false;
  }
  node->id = xml::DeweyId(prefix);
  node->parent = parent;
  ++live_nodes;
  peak_nodes = std::max(peak_nodes, live_nodes);
  return node;
}

ParentList CandidateTree::TakeParentList() {
  if (spare_parent_lists_.empty()) return {};
  ParentList list = std::move(spare_parent_lists_.back());
  spare_parent_lists_.pop_back();
  return list;
}

void CandidateTree::RecycleParentList(ParentList* list) {
  if (list->capacity() == 0) return;
  list->clear();
  spare_parent_lists_.push_back(std::move(*list));
}

void CandidateTree::AddId(const xml::DeweyId& id,
                          const std::vector<std::vector<int>>& depth_qnodes,
                          int list_index, const std::string* value,
                          uint64_t byte_length) {
  // Walk the prefixes top-down, creating CT nodes only at depths that
  // match some QPT node (other depths are pruned; Dewey ids preserve the
  // structural relationships). Existing nodes at a prefix are always
  // passed through, even when this id's data path maps no QPT node there.
  CtNode* current = &root_;
  // Ancestor (node, entry index) pairs seen so far on this id's path,
  // used to build the parent lists of new entries.
  ancestry_.clear();
  new_entries_.clear();  // for notification
  const std::span<const uint32_t> components = id.components();

  for (size_t depth = 1; depth <= id.depth(); ++depth) {
    const std::vector<int>& qnodes = depth_qnodes[depth - 1];
    const std::span<const uint32_t> prefix = components.first(depth);
    // The child at this prefix, or the insertion point for one.
    std::vector<CtNode*>& siblings = current->children;
    auto it = std::lower_bound(
        siblings.begin(), siblings.end(), prefix,
        [](const CtNode* child, std::span<const uint32_t> key) {
          return xml::DeweyId::Compare(child->id.components(), key) < 0;
        });
    CtNode* node = nullptr;
    if (it != siblings.end() &&
        xml::DeweyId::Compare((*it)->id.components(), prefix) == 0) {
      node = *it;
    } else if (!qnodes.empty()) {
      node = NewNode(prefix, current);
      // Containment invariant: existing siblings that are really
      // descendants of the new prefix move under the new node. In Dewey
      // order they form the run starting at the insertion point.
      auto run_end = it;
      while (run_end != siblings.end() &&
             node->id.IsAncestorOf((*run_end)->id)) {
        (*run_end)->parent = node;
        ++run_end;
      }
      node->children.assign(it, run_end);
      it = siblings.erase(it, run_end);
      siblings.insert(it, node);
    }
    if (node == nullptr) continue;  // pruned depth
    current = node;
    // Merge QPT-node entries for this depth.
    for (int qnode : qnodes) {
      if (node->FindEntry(qnode) != nullptr) continue;
      CtQEntry entry;
      entry.qnode = qnode;
      entry.parent_list = TakeParentList();
      int parent_qnode = qpt_->nodes[qnode].parent;
      if (parent_qnode > 0) {
        bool descendant_axis = qpt_->nodes[qnode].parent_descendant;
        for (const CtRef& anc : ancestry_) {
          if (anc.first->qentries[anc.second].qnode != parent_qnode) continue;
          bool ok = descendant_axis ? anc.first->id.IsAncestorOf(node->id)
                                    : anc.first->id.IsParentOf(node->id);
          if (ok) entry.parent_list.push_back(anc);
        }
      }
      node->qentries.push_back(std::move(entry));
      new_entries_.emplace_back(node,
                                static_cast<int>(node->qentries.size() - 1));
    }
    // This prefix's entries are ancestry for deeper prefixes.
    for (size_t i = 0; i < node->qentries.size(); ++i) {
      ancestry_.emplace_back(node, static_cast<int>(i));
    }
  }

  // Attach the payload to the full-depth node.
  if (current->id == id) {
    if (value != nullptr) current->value = value;
    if (byte_length > 0) current->byte_length = byte_length;
    current->has_payload = true;
    if (std::find(current->source_lists.begin(), current->source_lists.end(),
                  list_index) == current->source_lists.end()) {
      current->source_lists.push_back(list_index);
      if (static_cast<size_t>(list_index) >= list_counts_.size()) {
        list_counts_.resize(list_index + 1, 0);
      }
      ++list_counts_[list_index];
    }
  }

  // DM propagation for entries that are candidates on arrival, and for
  // entries whose candidacy was already established (AddCTNode lines
  // 15-17 of Fig 26).
  for (auto& [node, entry_index] : new_entries_) {
    if (IsCandidate(node->qentries[entry_index])) {
      NotifyCandidate(node, entry_index);
    }
  }
}

void CandidateTree::RemoveBottom(CtNode* bottom) {
  CtNode* parent = bottom->parent;
  assert(bottom->children.empty());
  assert(parent->children.front() == bottom);
  DecrementListCounts(*bottom);
  --live_nodes;
  parent->children.erase(parent->children.begin());
  for (CtQEntry& entry : bottom->qentries) {
    RecycleParentList(&entry.parent_list);
  }
  for (PdtCacheEntry& x : bottom->pdt_cache) {
    RecycleParentList(&x.parent_list);
  }
  bottom->qentries.clear();
  bottom->pdt_cache.clear();
  bottom->source_lists.clear();
  bottom->parent = nullptr;
  bottom->released = true;
  free_nodes_.push_back(bottom);
}

int CandidateTree::ListCount(int list_index) const {
  return static_cast<size_t>(list_index) < list_counts_.size()
             ? list_counts_[list_index]
             : 0;
}

void CandidateTree::DecrementListCounts(const CtNode& node) {
  for (int list : node.source_lists) {
    if (static_cast<size_t>(list) < list_counts_.size() &&
        list_counts_[list] > 0) {
      --list_counts_[list];
    }
  }
}

const std::vector<CtNode*>& CandidateTree::LeftMostPath() {
  left_most_path_.clear();
  CtNode* node = &root_;
  while (!node->children.empty()) {
    node = node->children.front();
    assert(!node->released && "left-most path reaches a released node");
    left_most_path_.push_back(node);
  }
  return left_most_path_;
}

}  // namespace quickview::pdt
