#include "index/btree.h"

#include <algorithm>
#include <cassert>

namespace quickview::index {

struct BTree::Node {
  bool is_leaf;
  std::vector<std::string> keys;

  explicit Node(bool leaf) : is_leaf(leaf) {}
};

struct BTree::Leaf : BTree::Node {
  std::vector<std::string> values;
  Leaf* next = nullptr;

  Leaf() : Node(/*leaf=*/true) {}
};

struct BTree::Interior : BTree::Node {
  // children.size() == keys.size() + 1; keys[i] is the smallest key
  // reachable through children[i + 1].
  std::vector<Node*> children;

  Interior() : Node(/*leaf=*/false) {}
};

BTree::BTree() : root_(new Leaf()) {}

void BTree::FreeNode(Node* node) {
  if (!node->is_leaf) {
    for (Node* child : static_cast<Interior*>(node)->children) {
      FreeNode(child);
    }
    delete static_cast<Interior*>(node);
  } else {
    delete static_cast<Leaf*>(node);
  }
}

BTree::~BTree() { FreeNode(root_); }

namespace {

// Index of the child to descend into for `key`.
int ChildIndex(const std::vector<std::string>& keys, std::string_view key) {
  auto it = std::upper_bound(keys.begin(), keys.end(), key,
                             [](std::string_view a, const std::string& b) {
                               return a < std::string_view(b);
                             });
  return static_cast<int>(it - keys.begin());
}

}  // namespace

BTree::Leaf* BTree::FindLeaf(std::string_view key) const {
  Node* node = root_;
  uint64_t visited = 1;
  while (!node->is_leaf) {
    Interior* interior = static_cast<Interior*>(node);
    node = interior->children[ChildIndex(interior->keys, key)];
    ++visited;
  }
  CountNodeVisits(visited);
  return static_cast<Leaf*>(node);
}

void BTree::SplitChild(Interior* parent, int child_pos) {
  Node* child = parent->children[child_pos];
  size_t mid = child->keys.size() / 2;
  if (child->is_leaf) {
    Leaf* left = static_cast<Leaf*>(child);
    Leaf* right = new Leaf();
    right->keys.assign(left->keys.begin() + mid, left->keys.end());
    right->values.assign(left->values.begin() + mid, left->values.end());
    left->keys.resize(mid);
    left->values.resize(mid);
    right->next = left->next;
    left->next = right;
    parent->keys.insert(parent->keys.begin() + child_pos,
                        right->keys.front());
    parent->children.insert(parent->children.begin() + child_pos + 1, right);
  } else {
    Interior* left = static_cast<Interior*>(child);
    Interior* right = new Interior();
    // keys[mid] moves up; right gets keys after it.
    std::string up = left->keys[mid];
    right->keys.assign(left->keys.begin() + mid + 1, left->keys.end());
    right->children.assign(left->children.begin() + mid + 1,
                           left->children.end());
    left->keys.resize(mid);
    left->children.resize(mid + 1);
    parent->keys.insert(parent->keys.begin() + child_pos, std::move(up));
    parent->children.insert(parent->children.begin() + child_pos + 1, right);
  }
}

void BTree::Insert(std::string_view key, std::string_view value) {
  if (root_->keys.size() >= kFanout) {
    Interior* new_root = new Interior();
    new_root->children.push_back(root_);
    SplitChild(new_root, 0);
    root_ = new_root;
    ++height_;
  }
  Node* node = root_;
  while (!node->is_leaf) {
    Interior* interior = static_cast<Interior*>(node);
    int pos = ChildIndex(interior->keys, key);
    if (interior->children[pos]->keys.size() >= kFanout) {
      SplitChild(interior, pos);
      if (key >= std::string_view(interior->keys[pos])) ++pos;
    }
    node = interior->children[pos];
  }
  Leaf* leaf = static_cast<Leaf*>(node);
  auto it = std::lower_bound(leaf->keys.begin(), leaf->keys.end(), key,
                             [](const std::string& a, std::string_view b) {
                               return std::string_view(a) < b;
                             });
  size_t pos = static_cast<size_t>(it - leaf->keys.begin());
  if (it != leaf->keys.end() && *it == key) {
    leaf->values[pos] = std::string(value);
    return;
  }
  leaf->keys.insert(it, std::string(key));
  leaf->values.insert(leaf->values.begin() + pos, std::string(value));
  ++size_;
}

void BTree::BulkLoad(
    std::vector<std::pair<std::string, std::string>> entries) {
  assert(size_ == 0 && "BulkLoad needs an empty tree");
  assert(std::adjacent_find(entries.begin(), entries.end(),
                            [](const auto& a, const auto& b) {
                              return a.first >= b.first;
                            }) == entries.end() &&
         "BulkLoad needs strictly increasing keys");
  if (entries.empty()) return;
  // The level being built on: its nodes in key order, each with the
  // smallest key of its subtree (the separator its parent needs).
  std::vector<std::pair<Node*, std::string_view>> level;
  level.reserve((entries.size() + kFanout - 1) / kFanout);
  Leaf* previous = nullptr;
  for (size_t begin = 0; begin < entries.size(); begin += kFanout) {
    const size_t end = std::min(entries.size(), begin + kFanout);
    Leaf* leaf = new Leaf();
    leaf->keys.reserve(end - begin);
    leaf->values.reserve(end - begin);
    for (size_t i = begin; i < end; ++i) {
      leaf->keys.push_back(std::move(entries[i].first));
      leaf->values.push_back(std::move(entries[i].second));
    }
    if (previous != nullptr) previous->next = leaf;
    previous = leaf;
    level.emplace_back(leaf, leaf->keys.front());
  }
  int height = 1;
  // An interior node holds up to kFanout keys, so kFanout + 1 children.
  constexpr size_t kChildren = kFanout + 1;
  while (level.size() > 1) {
    std::vector<std::pair<Node*, std::string_view>> parents;
    parents.reserve((level.size() + kChildren - 1) / kChildren);
    for (size_t begin = 0; begin < level.size(); begin += kChildren) {
      const size_t end = std::min(level.size(), begin + kChildren);
      Interior* interior = new Interior();
      interior->children.reserve(end - begin);
      interior->keys.reserve(end - begin - 1);
      for (size_t i = begin; i < end; ++i) {
        interior->children.push_back(level[i].first);
        if (i > begin) interior->keys.emplace_back(level[i].second);
      }
      parents.emplace_back(interior, level[begin].second);
    }
    level = std::move(parents);
    ++height;
  }
  FreeNode(root_);  // the empty leaf
  root_ = level.front().first;
  size_ = entries.size();
  height_ = height;
}

bool BTree::Get(std::string_view key, std::string* value) const {
  Leaf* leaf = FindLeaf(key);
  auto it = std::lower_bound(leaf->keys.begin(), leaf->keys.end(), key,
                             [](const std::string& a, std::string_view b) {
                               return std::string_view(a) < b;
                             });
  if (it == leaf->keys.end() || *it != key) return false;
  CountEntriesScanned(1);
  if (value != nullptr) {
    *value = leaf->values[it - leaf->keys.begin()];
  }
  return true;
}

bool BTree::Iterator::Valid() const {
  return leaf_ != nullptr && pos_ < static_cast<int>(leaf_->keys.size());
}

const std::string& BTree::Iterator::key() const {
  assert(Valid());
  return leaf_->keys[pos_];
}

const std::string& BTree::Iterator::value() const {
  assert(Valid());
  return leaf_->values[pos_];
}

void BTree::Iterator::Next() {
  assert(Valid());
  ++pending_entries_;
  ++pos_;
  while (leaf_ != nullptr && pos_ >= static_cast<int>(leaf_->keys.size())) {
    leaf_ = leaf_->next;
    pos_ = 0;
    if (leaf_ != nullptr) ++pending_nodes_;
  }
}

void BTree::Iterator::Flush() {
  if (tree_ == nullptr) return;
  if (pending_entries_ != 0) tree_->CountEntriesScanned(pending_entries_);
  if (pending_nodes_ != 0) tree_->CountNodeVisits(pending_nodes_);
  pending_entries_ = 0;
  pending_nodes_ = 0;
}

BTree::Iterator BTree::Seek(std::string_view key) const {
  Leaf* leaf = FindLeaf(key);
  auto it = std::lower_bound(leaf->keys.begin(), leaf->keys.end(), key,
                             [](const std::string& a, std::string_view b) {
                               return std::string_view(a) < b;
                             });
  Iterator iter;
  iter.tree_ = this;
  iter.leaf_ = leaf;
  iter.pos_ = static_cast<int>(it - leaf->keys.begin());
  // A key above every key of its leaf lands past that leaf's end; the
  // first key >= `key` then starts the next leaf.
  while (iter.leaf_ != nullptr &&
         iter.pos_ >= static_cast<int>(iter.leaf_->keys.size())) {
    iter.leaf_ = iter.leaf_->next;
    iter.pos_ = 0;
  }
  return iter;
}

BTree::Iterator BTree::Begin() const { return Seek(""); }

std::vector<std::pair<std::string, std::string>> BTree::PrefixScan(
    std::string_view prefix) const {
  std::vector<std::pair<std::string, std::string>> out;
  for (Iterator it = Seek(prefix); it.Valid(); it.Next()) {
    if (it.key().compare(0, prefix.size(), prefix) != 0) break;
    out.emplace_back(it.key(), it.value());
  }
  return out;
}

}  // namespace quickview::index
