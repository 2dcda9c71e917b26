// RankedStream: the incremental ranked-selection core shared by the
// ResultCursor and SearchBaseDocuments. Candidates
// are pushed unsorted as (score, position) pairs and popped in descending
// score order, ties broken by ascending position — exactly the total
// order the batch pipeline's sort produced, so draining a stream is
// byte-identical to sorting. Popping k of n candidates costs
// O(n + k log n) instead of the O(n log n) full sort, and a caller that
// stops early never pays for the tail.
#ifndef QUICKVIEW_ENGINE_RANKED_STREAM_H_
#define QUICKVIEW_ENGINE_RANKED_STREAM_H_

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <utility>
#include <vector>

namespace quickview::engine {

class RankedStream {
 public:
  /// Highest score first; equal scores yield the lower position first
  /// (the stable tie-break every ranked path in the engine uses).
  struct Entry {
    double score = 0;
    size_t position = 0;
  };

  void Reserve(size_t n) { heap_.reserve(n); }

  /// O(1) amortized: entries accumulate unordered; the heap is built
  /// once, lazily, on the first Pop after a Push.
  void Push(double score, size_t position) {
    heap_.push_back(Entry{score, position});
    heapified_ = false;
  }

  bool Empty() const { return heap_.empty(); }
  size_t Size() const { return heap_.size(); }

  /// Removes and returns the best remaining entry. Undefined on an empty
  /// stream (check Empty() first).
  Entry Pop() {
    assert(!heap_.empty());
    if (!heapified_) {
      std::make_heap(heap_.begin(), heap_.end(), After);
      heapified_ = true;
    }
    std::pop_heap(heap_.begin(), heap_.end(), After);
    Entry top = heap_.back();
    heap_.pop_back();
    return top;
  }

 private:
  /// Max-heap "less than": a ranks after b.
  static bool After(const Entry& a, const Entry& b) {
    if (a.score != b.score) return a.score < b.score;
    return a.position > b.position;
  }

  std::vector<Entry> heap_;
  bool heapified_ = false;
};

}  // namespace quickview::engine

#endif  // QUICKVIEW_ENGINE_RANKED_STREAM_H_
