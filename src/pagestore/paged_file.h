// PagedFile: the single-file .qvpack container. Page 0 is the file
// header (magic, geometry, directory root); every other page is written
// once at pack time and read back through checksum-verified pread calls,
// so a reader is immutable and safe to share across threads.
//
// ChainWriter / ChainReader provide a byte-stream view over a linked list
// of pages (next_page pointers): node records, posting runs, overflow
// values and the directory all serialize as streams that may span pages.
#ifndef QUICKVIEW_PAGESTORE_PAGED_FILE_H_
#define QUICKVIEW_PAGESTORE_PAGED_FILE_H_

#include <algorithm>
#include <memory>
#include <string>
#include <string_view>

#include "common/result.h"
#include "pagestore/page.h"

namespace quickview::pagestore {

/// Append-oriented writer used by the packer. Pages are allocated with
/// Allocate() (ids are stable immediately, so tree structures can link
/// children before parents are written) and persisted with WritePage;
/// Finish() writes the header page and fsyncs.
class PagedFileWriter {
 public:
  static Result<std::unique_ptr<PagedFileWriter>> Create(
      const std::string& path);
  ~PagedFileWriter();
  PagedFileWriter(const PagedFileWriter&) = delete;
  PagedFileWriter& operator=(const PagedFileWriter&) = delete;

  /// Reserves the next page id (page 0 is the header, reserved at
  /// Create).
  PageId Allocate() { return next_page_++; }

  /// `payload.size()` must be <= kPagePayloadSize.
  Status WritePage(PageId id, PageType type, std::string_view payload,
                   PageId next_page);

  /// Writes the header page, fsyncs and closes. No further writes.
  Status Finish(PageId directory_page);

  uint32_t page_count() const { return next_page_; }

 private:
  PagedFileWriter(int fd, std::string path)
      : fd_(fd), path_(std::move(path)) {}

  int fd_;
  std::string path_;
  PageId next_page_ = 1;
  bool finished_ = false;
};

/// Read side. Thread safe: reads use pread on an immutable file.
class PagedFile {
 public:
  /// Validates the header page (magic, version, page size, page count vs
  /// file size).
  static Result<std::unique_ptr<PagedFile>> Open(const std::string& path);
  ~PagedFile();
  PagedFile(const PagedFile&) = delete;
  PagedFile& operator=(const PagedFile&) = delete;

  /// Reads and checksum-verifies one page: one pread into a stack frame,
  /// one copy of the payload out of it.
  Result<CachedPage> ReadPage(PageId id) const;

  uint32_t page_count() const { return page_count_; }
  PageId directory_page() const { return directory_page_; }
  const std::string& path() const { return path_; }

 private:
  PagedFile(int fd, std::string path) : fd_(fd), path_(std::move(path)) {}

  /// preads page `id` into `frame` (kPageSize bytes), unverified.
  Status ReadFrame(PageId id, char* frame) const;

  int fd_;
  std::string path_;
  uint32_t page_count_ = 0;
  PageId directory_page_ = kInvalidPage;
};

/// Byte stream writer over a fresh page chain of one type.
class ChainWriter {
 public:
  ChainWriter(PagedFileWriter* writer, PageType type)
      : writer_(writer), type_(type) {}

  struct Pos {
    PageId page = kInvalidPage;
    uint32_t offset = 0;
  };

  /// Position the next Append will write to (allocates the first page of
  /// the chain on demand, so a Pos is always addressable).
  Pos Tell();

  Status Append(std::string_view bytes);

  /// Flushes the tail page; returns the first page of the chain (a chain
  /// that never received bytes still owns one empty page, so every
  /// segment has a valid root).
  Result<PageId> Finish();

 private:
  PagedFileWriter* writer_;
  PageType type_;
  PageId first_page_ = kInvalidPage;
  PageId current_page_ = kInvalidPage;
  std::string buffer_;
};

/// Byte stream reader over a page chain, pulling pages through a
/// PageSource so reads hit the buffer pool.
class ChainReader {
 public:
  ChainReader(const PageSource* source, PageId page, uint32_t offset,
              PageAccounting* acct)
      : source_(source), page_(page), offset_(offset), acct_(acct) {}

  /// Appends exactly `n` bytes to `out`; Internal error if the chain ends
  /// first.
  Status Read(size_t n, std::string* out);

  /// Hands the next `n` bytes to `sink` without copying them: one
  /// std::string_view per page they span, each pointing into the pinned
  /// page and valid only during its call. Internal error if the chain
  /// ends first.
  template <typename Sink>
  Status ReadPieces(size_t n, Sink&& sink) {
    while (n > 0) {
      QUICKVIEW_RETURN_IF_ERROR(Pull());
      const std::string_view payload = current_->payload;
      const size_t take = std::min(payload.size() - offset_, n);
      sink(payload.substr(offset_, take));
      offset_ += static_cast<uint32_t>(take);
      n -= take;
    }
    return Status::OK();
  }

  Status ReadU16(uint16_t* v);
  Status ReadU32(uint32_t* v);
  Status ReadU64(uint64_t* v);

 private:
  Status Pull();  // ensures current_ pinned and offset_ < payload size
  Status ReadScalar(size_t n, uint64_t* v);  // big-endian, no allocation

  const PageSource* source_;
  PageId page_;
  uint32_t offset_;
  PageAccounting* acct_;
  PagePin current_;
};

}  // namespace quickview::pagestore

#endif  // QUICKVIEW_PAGESTORE_PAGED_FILE_H_
