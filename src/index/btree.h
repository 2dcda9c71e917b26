// In-memory B+-tree on byte-string keys — the index substrate behind the
// path index and the inverted-list index (paper §3.2: "A B+-tree index is
// built on the (Path, Value) pair", "an index such as a B+-tree is usually
// built on top of each inverted list"). Supports point lookups, ordered
// iteration and prefix scans. Node-visit counters provide the I/O cost
// model used by the benchmark harness.
#ifndef QUICKVIEW_INDEX_BTREE_H_
#define QUICKVIEW_INDEX_BTREE_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace quickview::index {

/// B+-tree mapping string keys to string values. Keys are unique; Insert
/// overwrites. There is no deletion: quickview indices are bulk-built
/// once per document (BulkLoad), and a replaced document gets a fresh
/// tree.
///
/// Thread safety: thread-compatible. Lookups and scans are const and
/// may run concurrently; Insert requires exclusion against all other
/// access. The tree itself carries no mutex (and hence no QV_GUARDED_BY
/// members — see common/sync.h): a tree is filled by the one thread that
/// builds its document's indexes and only read once published.
class BTree {
 private:
  struct Node;
  struct Leaf;
  struct Interior;

 public:
  /// Snapshot of the node-visit counters. The live counters are relaxed
  /// atomics so concurrent readers (lookups and scans are logically const)
  /// can count without data races; a snapshot is not an atomic pair, which
  /// is fine for the cost model the benchmarks build from it.
  struct Stats {  // lint:allow(adhoc-stats) per-index structural stats, not telemetry
    uint64_t nodes_visited = 0;  // interior + leaf nodes touched
    uint64_t entries_scanned = 0;
  };

  static constexpr int kFanout = 64;  // max keys per node

  BTree();
  ~BTree();
  BTree(const BTree&) = delete;
  BTree& operator=(const BTree&) = delete;

  /// Inserts or overwrites.
  void Insert(std::string_view key, std::string_view value);

  /// Fills an empty tree from strictly key-ordered entries in one pass:
  /// full leaves linked left to right, then each interior level built
  /// bottom-up over the one below. Linear in the entry count, where
  /// inserting the same keys one by one descends from the root per key
  /// and leaves every leaf but the last half full.
  void BulkLoad(std::vector<std::pair<std::string, std::string>> entries);

  /// Point lookup; returns false if absent (ignoring that is always a
  /// bug — `value` is untouched then).
  [[nodiscard]] bool Get(std::string_view key, std::string* value) const;

  size_t size() const { return size_; }
  int height() const { return height_; }

  Stats stats() const {
    return Stats{nodes_visited_.load(std::memory_order_relaxed),
                 entries_scanned_.load(std::memory_order_relaxed)};
  }
  void ResetStats() {
    nodes_visited_.store(0, std::memory_order_relaxed);
    entries_scanned_.store(0, std::memory_order_relaxed);
  }

  /// Forward iterator over (key, value) pairs in key order. Scan
  /// counters accumulate locally and flush to the tree's shared atomic
  /// stats once, on destruction — one contended write per scan instead
  /// of one per entry (matters when many query threads share an index).
  /// Copying copies the position only; pending counts stay with the
  /// original.
  class Iterator {
   public:
    Iterator() = default;
    Iterator(const Iterator& other)
        : leaf_(other.leaf_), pos_(other.pos_), tree_(other.tree_) {}
    Iterator& operator=(const Iterator& other) {
      if (this != &other) {
        Flush();
        leaf_ = other.leaf_;
        pos_ = other.pos_;
        tree_ = other.tree_;
      }
      return *this;
    }
    ~Iterator() { Flush(); }

    bool Valid() const;
    const std::string& key() const;
    const std::string& value() const;
    void Next();

   private:
    friend class BTree;
    void Flush();

    Leaf* leaf_ = nullptr;
    int pos_ = 0;
    const BTree* tree_ = nullptr;
    uint64_t pending_entries_ = 0;
    uint64_t pending_nodes_ = 0;
  };

  /// Iterator positioned at the first key >= `key`.
  Iterator Seek(std::string_view key) const;

  /// Iterator at the smallest key.
  Iterator Begin() const;

  /// Collects all (key, value) pairs whose key starts with `prefix`,
  /// in key order.
  std::vector<std::pair<std::string, std::string>> PrefixScan(
      std::string_view prefix) const;

 private:
  Leaf* FindLeaf(std::string_view key) const;
  void SplitChild(Interior* parent, int child_pos);
  static void FreeNode(Node* node);

  void CountNodeVisits(uint64_t n) const {
    nodes_visited_.fetch_add(n, std::memory_order_relaxed);
  }
  void CountEntriesScanned(uint64_t n) const {
    entries_scanned_.fetch_add(n, std::memory_order_relaxed);
  }

  Node* root_;
  size_t size_ = 0;
  int height_ = 1;
  mutable std::atomic<uint64_t> nodes_visited_{0};
  mutable std::atomic<uint64_t> entries_scanned_{0};
};

}  // namespace quickview::index

#endif  // QUICKVIEW_INDEX_BTREE_H_
