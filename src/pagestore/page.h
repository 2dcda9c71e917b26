// Page-level building blocks of the packed storage engine. A .qvpack
// database is one file of fixed-size pages; every page starts with a
// checksummed header so torn writes and bit rot surface as errors, not as
// wrong answers. PageSource is the seam between page consumers (disk
// B-trees, node-record readers) and the buffer pool that actually owns
// frames — the "through either the existing in-memory backing or
// on-demand page reads" abstraction of the storage engine.
#ifndef QUICKVIEW_PAGESTORE_PAGE_H_
#define QUICKVIEW_PAGESTORE_PAGE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

#include "common/checksum.h"
#include "common/result.h"

namespace quickview::pagestore {

using PageId = uint32_t;
inline constexpr PageId kInvalidPage = 0xffffffffu;

/// 4 KiB pages: small enough that point lookups against cold indexes stay
/// cheap, large enough that posting runs amortize the header.
inline constexpr uint32_t kPageSize = 4096;

/// On-disk frame: u32 checksum | u32 payload_len | u32 next_page |
/// u8 type | 3 reserved bytes | payload | zero padding.
inline constexpr uint32_t kPageHeaderSize = 16;
inline constexpr uint32_t kPagePayloadSize = kPageSize - kPageHeaderSize;

enum class PageType : uint8_t {
  kHeader = 1,        // page 0: magic + file geometry + directory root
  kDirectory = 2,     // per-document segment roots + path dictionaries
  kNodeRecords = 3,   // DocumentStore content, preorder node records
  kBTreeLeaf = 4,     // sorted (key, value) entries, chained left-to-right
  kBTreeInterior = 5, // (first_key, child page) separators
  kPostingRun = 6,    // overflow chains for long B-tree values
};

/// Per-call page-I/O accounting, accumulated alongside the pool-global
/// counters so queries can report their own footprint.
struct PageAccounting {
  uint64_t pages_read = 0;   // buffer-pool misses (real file reads)
  uint64_t buffer_hits = 0;  // served from an already-resident frame
  uint64_t bytes_read = 0;   // page_size * pages_read
};

/// A decoded, verified page. Immutable once loaded; shared_ptr pins keep
/// it alive across buffer-pool eviction.
struct CachedPage {
  PageType type = PageType::kHeader;
  PageId next_page = kInvalidPage;
  std::string payload;
};

/// A pin on a resident page: holding it keeps the frame's bytes valid
/// (eviction only drops the pool's own reference).
using PagePin = std::shared_ptr<const CachedPage>;

/// Anything that can produce verified pages by id — the BufferPool in
/// production, or a direct PagedFile wrapper in tests.
class PageSource {
 public:
  virtual ~PageSource() = default;
  virtual Result<PagePin> Fetch(PageId id, PageAccounting* acct) const = 0;
};

/// The checksum a page frame carries in its first 4 bytes: WordChecksum
/// over the rest of the header (reserved bytes included) and the payload.
/// `frame` holds at least kPageHeaderSize + `payload_len` bytes.
inline uint32_t PageChecksum(std::string_view frame, uint32_t payload_len) {
  return WordChecksum(frame.substr(4, kPageHeaderSize - 4 + payload_len));
}

// Big-endian integer codec shared by every pagestore serializer (matches
// the byte order the rest of quickview persists in). Readers are
// bounds-checked: false means the input was truncated.
inline void AppendU16(std::string* out, uint16_t v) {
  out->push_back(static_cast<char>((v >> 8) & 0xff));
  out->push_back(static_cast<char>(v & 0xff));
}
inline void AppendU32(std::string* out, uint32_t v) {
  for (int shift = 24; shift >= 0; shift -= 8) {
    out->push_back(static_cast<char>((v >> shift) & 0xff));
  }
}
inline void AppendU64(std::string* out, uint64_t v) {
  for (int shift = 56; shift >= 0; shift -= 8) {
    out->push_back(static_cast<char>((v >> shift) & 0xff));
  }
}

inline bool ReadU16(std::string_view in, size_t* pos, uint16_t* v) {
  if (in.size() < 2 || *pos > in.size() - 2) return false;
  *v = static_cast<uint16_t>((static_cast<uint8_t>(in[*pos]) << 8) |
                             static_cast<uint8_t>(in[*pos + 1]));
  *pos += 2;
  return true;
}
inline bool ReadU32(std::string_view in, size_t* pos, uint32_t* v) {
  if (in.size() < 4 || *pos > in.size() - 4) return false;
  uint32_t out = 0;
  for (int i = 0; i < 4; ++i) {
    out = (out << 8) | static_cast<uint8_t>(in[*pos + static_cast<size_t>(i)]);
  }
  *pos += 4;
  *v = out;
  return true;
}
inline bool ReadU64(std::string_view in, size_t* pos, uint64_t* v) {
  if (in.size() < 8 || *pos > in.size() - 8) return false;
  uint64_t out = 0;
  for (int i = 0; i < 8; ++i) {
    out = (out << 8) | static_cast<uint8_t>(in[*pos + static_cast<size_t>(i)]);
  }
  *pos += 8;
  *v = out;
  return true;
}

}  // namespace quickview::pagestore

#endif  // QUICKVIEW_PAGESTORE_PAGE_H_
