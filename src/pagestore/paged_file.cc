#include "pagestore/paged_file.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

namespace quickview::pagestore {

namespace {

constexpr char kMagic[8] = {'Q', 'V', 'P', 'A', 'C', 'K', '1', '\n'};
// 2: pages carry WordChecksum (version 1 carried byte-wise FNV-1a).
constexpr uint32_t kFormatVersion = 2;

std::string ErrnoMessage(const std::string& what, const std::string& path) {
  // strerror is not reentrant, but every caller is on an error path that
  // already holds the file's single-writer invariant, and glibc returns
  // thread-local storage here; strerror_r's two incompatible signatures
  // are not worth that. (concurrency-mt-unsafe is globally off in
  // .clang-tidy for this one site — keep the marker if it returns.)
  // NOLINTNEXTLINE(concurrency-mt-unsafe)
  return what + " " + path + ": " + std::strerror(errno);
}

Status EncodePage(PageType type, std::string_view payload, PageId next_page,
                  std::string* frame) {
  if (payload.size() > kPagePayloadSize) {
    return Status::Internal("page payload overflow: " +
                            std::to_string(payload.size()) + " bytes");
  }
  frame->clear();
  frame->reserve(kPageSize);
  AppendU32(frame, 0);  // the checksum, filled in below
  AppendU32(frame, static_cast<uint32_t>(payload.size()));
  AppendU32(frame, next_page);
  frame->push_back(static_cast<char>(type));
  frame->append(3, '\0');
  frame->append(payload);
  std::string checksum;
  AppendU32(&checksum,
            PageChecksum(*frame, static_cast<uint32_t>(payload.size())));
  frame->replace(0, checksum.size(), checksum);
  frame->resize(kPageSize, '\0');
  return Status::OK();
}

/// Verifies a raw kPageSize frame and copies its payload out: the one
/// copy a page read makes.
Status DecodePage(std::string_view frame, PageId id, CachedPage* out) {
  size_t pos = 0;
  uint32_t checksum = 0;
  uint32_t payload_len = 0;
  uint32_t next_page = 0;
  ReadU32(frame, &pos, &checksum);
  ReadU32(frame, &pos, &payload_len);
  ReadU32(frame, &pos, &next_page);
  uint8_t type = static_cast<uint8_t>(frame[pos]);
  if (payload_len > kPagePayloadSize ||
      type < static_cast<uint8_t>(PageType::kHeader) ||
      type > static_cast<uint8_t>(PageType::kPostingRun)) {
    return Status::Internal("corrupt page header in page " +
                            std::to_string(id));
  }
  if (PageChecksum(frame, payload_len) != checksum) {
    return Status::Internal("page checksum mismatch in page " +
                            std::to_string(id));
  }
  out->type = static_cast<PageType>(type);
  out->next_page = next_page;
  out->payload.assign(frame.substr(kPageHeaderSize, payload_len));
  return Status::OK();
}

}  // namespace

Result<std::unique_ptr<PagedFileWriter>> PagedFileWriter::Create(
    const std::string& path) {
  int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return Status::Internal(ErrnoMessage("cannot create", path));
  return std::unique_ptr<PagedFileWriter>(new PagedFileWriter(fd, path));
}

PagedFileWriter::~PagedFileWriter() {
  if (fd_ >= 0) ::close(fd_);
}

Status PagedFileWriter::WritePage(PageId id, PageType type,
                                  std::string_view payload,
                                  PageId next_page) {
  if (finished_) return Status::Internal("write after Finish");
  if (id >= next_page_) {
    return Status::Internal("write to unallocated page " +
                            std::to_string(id));
  }
  std::string frame;
  QUICKVIEW_RETURN_IF_ERROR(EncodePage(type, payload, next_page, &frame));
  ssize_t n = ::pwrite(fd_, frame.data(), frame.size(),
                       static_cast<off_t>(id) * kPageSize);
  if (n != static_cast<ssize_t>(frame.size())) {
    return Status::Internal(ErrnoMessage("short write to", path_));
  }
  return Status::OK();
}

Status PagedFileWriter::Finish(PageId directory_page) {
  if (finished_) return Status::Internal("Finish called twice");
  std::string header;
  header.append(kMagic, sizeof(kMagic));
  AppendU32(&header, kFormatVersion);
  AppendU32(&header, kPageSize);
  AppendU32(&header, next_page_);
  AppendU32(&header, directory_page);
  // Page 0 was reserved at Create (next_page_ starts at 1), so the
  // allocation bound check admits it.
  QUICKVIEW_RETURN_IF_ERROR(
      WritePage(0, PageType::kHeader, header, kInvalidPage));
  finished_ = true;
  if (::fsync(fd_) != 0) {
    return Status::Internal(ErrnoMessage("fsync failed on", path_));
  }
  if (::close(fd_) != 0) {
    fd_ = -1;
    return Status::Internal(ErrnoMessage("close failed on", path_));
  }
  fd_ = -1;
  return Status::OK();
}

Result<std::unique_ptr<PagedFile>> PagedFile::Open(const std::string& path) {
  int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return Status::NotFound("cannot open packed db " + path);
  auto file = std::unique_ptr<PagedFile>(new PagedFile(fd, path));

  struct stat st;
  if (fstat(fd, &st) != 0 || st.st_size % kPageSize != 0 ||
      st.st_size < kPageSize) {
    return Status::InvalidArgument(path +
                                   " is not a .qvpack file (bad size)");
  }
  file->page_count_ = static_cast<uint32_t>(st.st_size / kPageSize);

  // Magic and version come from the raw frame, before its checksum is
  // verified: a pack written under another format version checksums its
  // pages differently, and must read as Unsupported, not as corrupt.
  char frame[kPageSize];
  QUICKVIEW_RETURN_IF_ERROR(file->ReadFrame(0, frame));
  const std::string_view raw(frame, kPageSize);
  const std::string_view magic(kMagic, sizeof(kMagic));
  size_t pos = kPageHeaderSize + sizeof(kMagic);
  uint32_t version = 0;
  if (raw.substr(kPageHeaderSize, sizeof(kMagic)) != magic ||
      !ReadU32(raw, &pos, &version)) {
    return Status::InvalidArgument(path + " is not a .qvpack file");
  }
  if (version != kFormatVersion) {
    return Status::Unsupported(
        path + ": unsupported .qvpack version " + std::to_string(version) +
        " (this build reads version " + std::to_string(kFormatVersion) +
        "; rebuild it with `quickview_cli pack` from its database "
        "directory)");
  }
  CachedPage header;
  QUICKVIEW_RETURN_IF_ERROR(DecodePage(raw, 0, &header));
  if (header.type != PageType::kHeader) {
    return Status::InvalidArgument(path + " is not a .qvpack file");
  }
  pos = sizeof(kMagic) + sizeof(version);
  uint32_t page_size = 0;
  uint32_t page_count = 0;
  uint32_t directory_page = 0;
  if (!ReadU32(header.payload, &pos, &page_size) ||
      !ReadU32(header.payload, &pos, &page_count) ||
      !ReadU32(header.payload, &pos, &directory_page)) {
    return Status::InvalidArgument(path + ": truncated .qvpack header");
  }
  if (page_size != kPageSize || page_count != file->page_count_ ||
      directory_page >= page_count) {
    return Status::InvalidArgument(path + ": inconsistent .qvpack header");
  }
  file->directory_page_ = directory_page;
  return file;
}

PagedFile::~PagedFile() {
  if (fd_ >= 0) ::close(fd_);
}

Status PagedFile::ReadFrame(PageId id, char* frame) const {
  if (id == kInvalidPage || (page_count_ != 0 && id >= page_count_)) {
    return Status::Internal("page id " + std::to_string(id) +
                            " out of range in " + path_);
  }
  ssize_t n = ::pread(fd_, frame, kPageSize,
                      static_cast<off_t>(id) * kPageSize);
  if (n != static_cast<ssize_t>(kPageSize)) {
    return Status::Internal("short read of page " + std::to_string(id) +
                            " from " + path_);
  }
  return Status::OK();
}

Result<CachedPage> PagedFile::ReadPage(PageId id) const {
  char frame[kPageSize];
  QUICKVIEW_RETURN_IF_ERROR(ReadFrame(id, frame));
  CachedPage page;
  QUICKVIEW_RETURN_IF_ERROR(
      DecodePage(std::string_view(frame, kPageSize), id, &page));
  return page;
}

ChainWriter::Pos ChainWriter::Tell() {
  if (current_page_ == kInvalidPage) {
    current_page_ = writer_->Allocate();
    first_page_ = current_page_;
  }
  return Pos{current_page_, static_cast<uint32_t>(buffer_.size())};
}

Status ChainWriter::Append(std::string_view bytes) {
  Tell();  // ensure the chain owns a page
  while (!bytes.empty()) {
    size_t room = kPagePayloadSize - buffer_.size();
    if (room == 0) {
      PageId next = writer_->Allocate();
      QUICKVIEW_RETURN_IF_ERROR(
          writer_->WritePage(current_page_, type_, buffer_, next));
      current_page_ = next;
      buffer_.clear();
      room = kPagePayloadSize;
    }
    size_t take = std::min(room, bytes.size());
    buffer_.append(bytes.substr(0, take));
    bytes.remove_prefix(take);
  }
  return Status::OK();
}

Result<PageId> ChainWriter::Finish() {
  Tell();  // a chain with no bytes still gets its (empty) root page
  QUICKVIEW_RETURN_IF_ERROR(
      writer_->WritePage(current_page_, type_, buffer_, kInvalidPage));
  return first_page_;
}

Status ChainReader::Pull() {
  while (true) {
    if (current_ == nullptr) {
      if (page_ == kInvalidPage) {
        return Status::Internal("read past end of page chain");
      }
      QUICKVIEW_ASSIGN_OR_RETURN(current_, source_->Fetch(page_, acct_));
    }
    if (offset_ < current_->payload.size()) return Status::OK();
    // This page is exhausted (offset may legitimately equal payload size
    // when a record ended exactly at a page boundary); move on.
    page_ = current_->next_page;
    offset_ = 0;
    current_ = nullptr;
  }
}

Status ChainReader::Read(size_t n, std::string* out) {
  return ReadPieces(n, [out](std::string_view piece) { out->append(piece); });
}

Status ChainReader::ReadScalar(size_t n, uint64_t* v) {
  // Decoded straight off the pinned payload: scalar reads run once per
  // field per node record on the materialization hot path, so they must
  // not allocate.
  uint64_t out = 0;
  while (n > 0) {
    QUICKVIEW_RETURN_IF_ERROR(Pull());
    size_t avail = current_->payload.size() - offset_;
    size_t take = std::min(avail, n);
    for (size_t i = 0; i < take; ++i) {
      out = (out << 8) |
            static_cast<uint8_t>(current_->payload[offset_ + i]);
    }
    offset_ += static_cast<uint32_t>(take);
    n -= take;
  }
  *v = out;
  return Status::OK();
}

Status ChainReader::ReadU16(uint16_t* v) {
  uint64_t wide = 0;
  QUICKVIEW_RETURN_IF_ERROR(ReadScalar(2, &wide));
  *v = static_cast<uint16_t>(wide);
  return Status::OK();
}

Status ChainReader::ReadU32(uint32_t* v) {
  uint64_t wide = 0;
  QUICKVIEW_RETURN_IF_ERROR(ReadScalar(4, &wide));
  *v = static_cast<uint32_t>(wide);
  return Status::OK();
}

Status ChainReader::ReadU64(uint64_t* v) { return ReadScalar(8, v); }

}  // namespace quickview::pagestore
