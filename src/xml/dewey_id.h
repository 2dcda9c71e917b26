// Dewey IDs (paper §3.2, Fig 4a): hierarchical element identifiers where an
// element's ID contains its parent's ID as a prefix. Component order equals
// document order, so ordered merges over ID lists visit elements in document
// order and cluster each element's descendants immediately after it.
#ifndef QUICKVIEW_XML_DEWEY_ID_H_
#define QUICKVIEW_XML_DEWEY_ID_H_

#include <algorithm>
#include <compare>
#include <cstdint>
#include <cstring>
#include <initializer_list>
#include <optional>
#include <span>
#include <string>
#include <string_view>

namespace quickview::xml {

/// A hierarchical element id such as 1.2.3. The empty id () is the virtual
/// root that precedes every document node.
///
/// Ids up to kInlineDepth components deep live inside the object, so
/// copying, comparing and building them allocates nothing; deeper ids
/// spill their components to one heap block. A moved-from id is empty.
class DeweyId {
 public:
  static constexpr size_t kInlineDepth = 7;

  DeweyId() = default;
  explicit DeweyId(std::span<const uint32_t> components) {
    std::copy(components.begin(), components.end(), Init(components.size()));
  }
  explicit DeweyId(std::initializer_list<uint32_t> components)
      : DeweyId(std::span<const uint32_t>(components.begin(),
                                          components.size())) {}
  DeweyId(const DeweyId& other) { CopyFrom(other); }
  DeweyId(DeweyId&& other) noexcept { TakeFrom(&other); }
  DeweyId& operator=(const DeweyId& other) {
    if (this != &other) {
      Release();
      CopyFrom(other);
    }
    return *this;
  }
  DeweyId& operator=(DeweyId&& other) noexcept {
    if (this != &other) {
      Release();
      TakeFrom(&other);
    }
    return *this;
  }
  ~DeweyId() { Release(); }

  /// Parses "1.2.3" form; returns the empty id for an empty string.
  static DeweyId Parse(const std::string& text);

  /// The components, valid while this id is alive and unmodified.
  std::span<const uint32_t> components() const { return {data(), depth()}; }
  size_t depth() const { return words_[0]; }
  bool empty() const { return words_[0] == 0; }
  uint32_t component(size_t i) const { return data()[i]; }

  /// Id of the parent element; the empty id has no parent (returns empty).
  DeweyId Parent() const;

  /// First `len` components (len <= depth()).
  DeweyId Prefix(size_t len) const;

  /// Child id formed by appending `ordinal`.
  DeweyId Child(uint32_t ordinal) const;

  /// True iff this id is a (strict or equal) prefix of `other`, i.e. this
  /// element is `other` or one of its ancestors.
  bool IsPrefixOf(const DeweyId& other) const {
    return depth() <= other.depth() &&
           std::equal(data(), data() + depth(), other.data());
  }

  /// True iff this element is a strict ancestor of `other`.
  bool IsAncestorOf(const DeweyId& other) const {
    return depth() < other.depth() && IsPrefixOf(other);
  }

  /// True iff this element is the parent of `other`.
  bool IsParentOf(const DeweyId& other) const {
    return depth() + 1 == other.depth() && IsPrefixOf(other);
  }

  /// Length of the longest common prefix with `other`.
  size_t CommonPrefixLength(const DeweyId& other) const;

  /// Fixed-width big-endian byte encoding: byte order == Dewey order, so
  /// these encodings are usable directly as B+-tree keys.
  std::string Encode() const;
  /// Inverse of Encode; nullopt when `bytes` is not a whole number of
  /// 4-byte components.
  static std::optional<DeweyId> Decode(std::string_view bytes);

  /// "1.2.3"; "" for the empty id.
  std::string ToString() const;

  // Dewey (document) order: component-wise, ancestor before descendant.
  std::strong_ordering operator<=>(const DeweyId& other) const {
    return Compare(components(), other.components());
  }
  bool operator==(const DeweyId& other) const {
    return depth() == other.depth() &&
           std::equal(data(), data() + depth(), other.data());
  }

  /// Dewey order over raw component sequences (e.g. an id against the
  /// first n components of a deeper id, without building the prefix).
  static std::strong_ordering Compare(std::span<const uint32_t> a,
                                      std::span<const uint32_t> b) {
    return std::lexicographical_compare_three_way(a.begin(), a.end(),
                                                  b.begin(), b.end());
  }

 private:
  bool spilled() const { return words_[0] > kInlineDepth; }
  uint32_t* heap() const {
    uint32_t* block = nullptr;
    std::memcpy(&block, &words_[2], sizeof(block));
    return block;
  }
  const uint32_t* data() const { return spilled() ? heap() : words_ + 1; }

  /// Sets the depth of an id that owns no heap block and returns where
  /// its `depth` components go.
  uint32_t* Init(size_t depth);
  void CopyFrom(const DeweyId& other) {
    if (other.spilled()) {
      std::copy_n(other.heap(), other.depth(), Init(other.depth()));
    } else {
      std::memcpy(words_, other.words_, sizeof(words_));
    }
  }
  void TakeFrom(DeweyId* other) {
    std::memcpy(words_, other->words_, sizeof(words_));
    other->words_[0] = 0;  // any heap block now belongs to *this
  }
  void Release() {
    if (spilled()) delete[] heap();
    words_[0] = 0;
  }

  // words_[0] is the depth. Up to kInlineDepth components sit in
  // words_[1..7]; a deeper id keeps its heap block's address in
  // words_[2..3] (8-byte aligned) instead.
  alignas(8) uint32_t words_[kInlineDepth + 1] = {};
};

static_assert(sizeof(DeweyId) <= 32, "DeweyId must stay within 32 bytes");

}  // namespace quickview::xml

#endif  // QUICKVIEW_XML_DEWEY_ID_H_
