#include "xml/dom.h"

#include <algorithm>
#include <cassert>

namespace quickview::xml {

NodeIndex Document::CreateRoot(std::string tag) {
  assert(nodes_.empty());
  Node root;
  root.tag = std::move(tag);
  root.id = DeweyId({root_component_});
  nodes_.push_back(std::move(root));
  return 0;
}

NodeIndex Document::AddChild(NodeIndex parent, std::string tag) {
  assert(parent < nodes_.size());
  uint32_t ordinal = 1;
  if (!nodes_[parent].children.empty()) {
    const Node& last = nodes_[nodes_[parent].children.back()];
    ordinal = last.id.components().back() + 1;
  }
  return AddChildWithId(parent, std::move(tag),
                        nodes_[parent].id.Child(ordinal));
}

NodeIndex Document::AddChildWithId(NodeIndex parent, std::string tag,
                                   DeweyId id) {
  assert(parent < nodes_.size());
  assert(nodes_[parent].id.IsParentOf(id));
  NodeIndex index = static_cast<NodeIndex>(nodes_.size());
  Node child;
  child.tag = std::move(tag);
  child.id = std::move(id);
  child.parent = parent;
  nodes_.push_back(std::move(child));
  nodes_[parent].children.push_back(index);
  return index;
}

NodeIndex Document::FindByDewey(const DeweyId& id) const {
  if (nodes_.empty()) return kInvalidNode;
  if (id.empty() || id.component(0) != root_component_) return kInvalidNode;
  NodeIndex current = 0;
  for (size_t depth = 1; depth < id.depth(); ++depth) {
    uint32_t ordinal = id.component(depth);
    const std::vector<NodeIndex>& children = nodes_[current].children;
    // Children are sorted by ordinal; binary search on the last component.
    auto it = std::lower_bound(
        children.begin(), children.end(), ordinal,
        [this](NodeIndex child, uint32_t target) {
          return nodes_[child].id.components().back() < target;
        });
    if (it == children.end() ||
        nodes_[*it].id.components().back() != ordinal) {
      return kInvalidNode;
    }
    current = *it;
  }
  return current;
}

std::vector<NodeIndex> Document::SubtreeNodes(NodeIndex start) const {
  std::vector<NodeIndex> out;
  std::vector<NodeIndex> stack = {start};
  while (!stack.empty()) {
    NodeIndex current = stack.back();
    stack.pop_back();
    out.push_back(current);
    const std::vector<NodeIndex>& children = nodes_[current].children;
    for (auto it = children.rbegin(); it != children.rend(); ++it) {
      stack.push_back(*it);
    }
  }
  return out;
}

void Database::AddDocument(const std::string& name,
                           std::shared_ptr<Document> doc) {
  assert(doc != nullptr);
  assert(by_root_.find(doc->root_component()) == by_root_.end());
  by_root_[doc->root_component()] = name;
  documents_[name] = std::move(doc);
}

bool Database::RemoveDocument(const std::string& name) {
  auto it = documents_.find(name);
  if (it == documents_.end()) return false;
  by_root_.erase(it->second->root_component());
  documents_.erase(it);
  return true;
}

const Document* Database::GetDocument(const std::string& name) const {
  auto it = documents_.find(name);
  return it == documents_.end() ? nullptr : it->second.get();
}

const Document* Database::GetDocumentByRoot(uint32_t root_component) const {
  auto it = by_root_.find(root_component);
  if (it == by_root_.end()) return nullptr;
  return GetDocument(it->second);
}

const std::string* Database::GetNameByRoot(uint32_t root_component) const {
  auto it = by_root_.find(root_component);
  return it == by_root_.end() ? nullptr : &it->second;
}

uint32_t Database::NextRootComponent() const {
  uint32_t next = 1;
  while (by_root_.find(next) != by_root_.end()) ++next;
  return next;
}

}  // namespace quickview::xml
