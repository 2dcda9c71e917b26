// Answer digests: what the output check compares. A digest covers every
// hit in rank order — score bits, per-keyword tf, byte length and the
// serialized XML bytes — so equal digests mean byte-equal XML and
// bit-exact scores, and a paged answer's pages digest exactly like the
// one-shot answer they must equal.
#ifndef PERFBENCH_QVBENCH_ANSWERS_H_
#define PERFBENCH_QVBENCH_ANSWERS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "engine/view_search_engine.h"

namespace qvbench {

struct Digest {
  uint64_t a = 0;
  uint64_t b = 0;
  size_t hits = 0;

  bool operator==(const Digest& other) const {
    return a == other.a && b == other.b && hits == other.hits;
  }
  bool operator!=(const Digest& other) const { return !(*this == other); }
  std::string Hex() const;
};

/// Incremental digest over a hit sequence.
class HitDigest {
 public:
  HitDigest();
  void Add(const quickview::engine::SearchHit& hit);
  void Add(const std::vector<quickview::engine::SearchHit>& hits) {
    for (const auto& hit : hits) Add(hit);
  }
  Digest value() const { return digest_; }

 private:
  void Mix(std::string_view bytes);
  Digest digest_;
};

inline Digest DigestOf(const std::vector<quickview::engine::SearchHit>& hits) {
  HitDigest digest;
  digest.Add(hits);
  return digest.value();
}

}  // namespace qvbench

#endif  // PERFBENCH_QVBENCH_ANSWERS_H_
