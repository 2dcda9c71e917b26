// Page-level round trips of the packed storage engine: PagedFile frames
// and checksums, ChainWriter/ChainReader streams spanning pages, and
// DiskBTree bulk build + point lookups + prefix scans, including values
// that spill into posting-run overflow chains.
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/checksum.h"
#include "pagestore/buffer_pool.h"
#include "pagestore/disk_btree.h"
#include "pagestore/paged_file.h"

namespace quickview::pagestore {
namespace {

class PageStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = ::testing::TempDir() + "/qvpack_pages_" +
            std::to_string(reinterpret_cast<uintptr_t>(this)) + ".qvpack";
  }
  void TearDown() override { std::filesystem::remove(path_); }

  std::string path_;
};

TEST_F(PageStoreTest, PageRoundTrip) {
  auto writer = PagedFileWriter::Create(path_);
  ASSERT_TRUE(writer.ok()) << writer.status();
  PageId a = (*writer)->Allocate();
  PageId b = (*writer)->Allocate();
  ASSERT_TRUE((*writer)->WritePage(a, PageType::kNodeRecords, "hello", b).ok());
  ASSERT_TRUE(
      (*writer)
          ->WritePage(b, PageType::kPostingRun, std::string(1000, 'x'),
                      kInvalidPage)
          .ok());
  ASSERT_TRUE((*writer)->Finish(a).ok());

  auto file = PagedFile::Open(path_);
  ASSERT_TRUE(file.ok()) << file.status();
  EXPECT_EQ((*file)->page_count(), 3u);
  EXPECT_EQ((*file)->directory_page(), a);

  auto page_a = (*file)->ReadPage(a);
  ASSERT_TRUE(page_a.ok()) << page_a.status();
  EXPECT_EQ(page_a->type, PageType::kNodeRecords);
  EXPECT_EQ(page_a->payload, "hello");
  EXPECT_EQ(page_a->next_page, b);

  auto page_b = (*file)->ReadPage(b);
  ASSERT_TRUE(page_b.ok());
  EXPECT_EQ(page_b->payload.size(), 1000u);
  EXPECT_EQ(page_b->next_page, kInvalidPage);
}

TEST_F(PageStoreTest, CorruptionIsDetectedByChecksum) {
  auto writer = PagedFileWriter::Create(path_);
  ASSERT_TRUE(writer.ok());
  PageId a = (*writer)->Allocate();
  const std::string payload = "payload";
  ASSERT_TRUE(
      (*writer)->WritePage(a, PageType::kNodeRecords, payload, kInvalidPage)
          .ok());
  ASSERT_TRUE((*writer)->Finish(a).ok());

  // Flip, one at a time, every bit of page `a`'s header fields (checksum,
  // payload length, next page, type, reserved bytes) and of its payload.
  const std::streamoff page_start = static_cast<std::streamoff>(a) * kPageSize;
  for (size_t byte = 0; byte < kPageHeaderSize + payload.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      SCOPED_TRACE("byte " + std::to_string(byte) + " bit " +
                   std::to_string(bit));
      auto flip = [&] {
        std::fstream f(path_, std::ios::in | std::ios::out | std::ios::binary);
        f.seekg(page_start + static_cast<std::streamoff>(byte));
        const char original = static_cast<char>(f.get());
        f.seekp(page_start + static_cast<std::streamoff>(byte));
        f.put(static_cast<char>(original ^ (1 << bit)));
      };
      flip();
      auto file = PagedFile::Open(path_);
      ASSERT_TRUE(file.ok()) << file.status();
      auto page = (*file)->ReadPage(a);
      ASSERT_FALSE(page.ok());
      EXPECT_EQ(page.status().code(), StatusCode::kInternal);
      if (byte >= kPageHeaderSize) {
        EXPECT_NE(page.status().message().find("checksum"),
                  std::string::npos);
      }
      flip();  // restore
    }
  }
  auto file = PagedFile::Open(path_);
  ASSERT_TRUE(file.ok()) << file.status();
  auto page = (*file)->ReadPage(a);
  ASSERT_TRUE(page.ok()) << page.status();
  EXPECT_EQ(page->payload, payload);
}

TEST(PageChecksumTest, PinnedOnEveryHost) {
  // Computed on a little-endian host. Words load little-endian on any
  // host, so a big-endian machine must compute the same values.
  EXPECT_EQ(WordChecksum(""), 0x8e565832u);
  EXPECT_EQ(WordChecksum("quickview"), 0xbdb645f2u);  // a word and a tail
  EXPECT_EQ(WordChecksum("0123456789abcdef"), 0xb126e98du);
}

TEST(PageChecksumTest, EverySingleBitFlipChangesTheChecksum) {
  std::string bytes;
  for (int i = 0; i < 61; ++i) bytes.push_back(static_cast<char>(i * 37));
  const uint32_t clean = WordChecksum(bytes);
  for (size_t byte = 0; byte < bytes.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string flipped = bytes;
      flipped[byte] = static_cast<char>(flipped[byte] ^ (1 << bit));
      EXPECT_NE(WordChecksum(flipped), clean)
          << "byte " << byte << " bit " << bit;
    }
  }
  // The length is mixed in: trailing zero bytes are not padding.
  EXPECT_NE(WordChecksum(std::string(3, '\0')),
            WordChecksum(std::string(4, '\0')));
}

TEST_F(PageStoreTest, VersionOnePackOpensAsUnsupported) {
  // A format-1 header page as that version wrote it: FNV-1a checksum over
  // type, next page, payload length and payload. Its checksum no longer
  // verifies, so the version must be read before the checksum is.
  std::string payload = {'Q', 'V', 'P', 'A', 'C', 'K', '1', '\n'};
  AppendU32(&payload, 1);          // format version
  AppendU32(&payload, kPageSize);  // page size
  AppendU32(&payload, 1);          // page count
  AppendU32(&payload, 0);          // directory page
  uint32_t fnv = 2166136261u;
  auto mix = [&fnv](uint8_t byte) {
    fnv ^= byte;
    fnv *= 16777619u;
  };
  mix(static_cast<uint8_t>(PageType::kHeader));
  for (int shift = 0; shift < 32; shift += 8) {
    mix(static_cast<uint8_t>((kInvalidPage >> shift) & 0xff));
  }
  for (int shift = 0; shift < 32; shift += 8) {
    mix(static_cast<uint8_t>((payload.size() >> shift) & 0xff));
  }
  for (char c : payload) mix(static_cast<uint8_t>(c));
  std::string frame;
  AppendU32(&frame, fnv);
  AppendU32(&frame, static_cast<uint32_t>(payload.size()));
  AppendU32(&frame, kInvalidPage);
  frame.push_back(static_cast<char>(PageType::kHeader));
  frame.append(3, '\0');
  frame += payload;
  frame.resize(kPageSize, '\0');
  {
    std::ofstream f(path_, std::ios::binary);
    f << frame;
  }
  auto file = PagedFile::Open(path_);
  ASSERT_FALSE(file.ok());
  EXPECT_EQ(file.status().code(), StatusCode::kUnsupported) << file.status();
  EXPECT_NE(file.status().message().find("version 1"), std::string::npos)
      << file.status();
  EXPECT_NE(file.status().message().find("quickview_cli pack"),
            std::string::npos)
      << file.status();
}

TEST_F(PageStoreTest, OpenRejectsNonPackFiles) {
  {
    std::ofstream f(path_, std::ios::binary);
    f << "this is not a packed database";
  }
  auto file = PagedFile::Open(path_);
  ASSERT_FALSE(file.ok());
  EXPECT_EQ(file.status().code(), StatusCode::kInvalidArgument);

  auto missing = PagedFile::Open(path_ + ".does-not-exist");
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);
}

TEST_F(PageStoreTest, ChainSpansPages) {
  std::string blob;
  for (int i = 0; i < 3000; ++i) blob += "chunk-" + std::to_string(i) + ";";
  ASSERT_GT(blob.size(), 2 * kPagePayloadSize);

  PageId first;
  ChainWriter::Pos mid;
  size_t mid_offset_in_stream = blob.size() / 2;
  {
    auto writer = PagedFileWriter::Create(path_);
    ASSERT_TRUE(writer.ok());
    ChainWriter chain(writer->get(), PageType::kNodeRecords);
    ASSERT_TRUE(chain.Append(blob.substr(0, mid_offset_in_stream)).ok());
    mid = chain.Tell();
    ASSERT_TRUE(chain.Append(blob.substr(mid_offset_in_stream)).ok());
    auto root = chain.Finish();
    ASSERT_TRUE(root.ok());
    first = *root;
    ASSERT_TRUE((*writer)->Finish(first).ok());
  }

  auto file = PagedFile::Open(path_);
  ASSERT_TRUE(file.ok());
  BufferPool pool(file->get());

  std::string round_trip;
  ChainReader reader(&pool, first, 0, nullptr);
  ASSERT_TRUE(reader.Read(blob.size(), &round_trip).ok());
  EXPECT_EQ(round_trip, blob);

  // A Tell() position addresses the byte the next Append wrote.
  std::string tail;
  ChainReader mid_reader(&pool, mid.page, mid.offset, nullptr);
  ASSERT_TRUE(
      mid_reader.Read(blob.size() - mid_offset_in_stream, &tail).ok());
  EXPECT_EQ(tail, blob.substr(mid_offset_in_stream));

  // Reading past the end of the chain is an error, not silence.
  ChainReader over_reader(&pool, first, 0, nullptr);
  std::string sink;
  EXPECT_FALSE(over_reader.Read(blob.size() + 1, &sink).ok());
}

TEST_F(PageStoreTest, DiskBTreeGetAndScanWithOverflow) {
  std::map<std::string, std::string> expected;
  for (int i = 0; i < 2000; ++i) {
    char key[16];
    std::snprintf(key, sizeof(key), "key%05d", i);
    // Every 97th value is pushed past the inline limit to exercise
    // posting-run overflow chains (some span multiple pages).
    std::string value = (i % 97 == 0)
                            ? std::string(kMaxInlineValue * 5 + i, 'v')
                            : "value-" + std::to_string(i * 3);
    expected[key] = value;
  }

  PageId root;
  {
    auto writer = PagedFileWriter::Create(path_);
    ASSERT_TRUE(writer.ok());
    DiskBTreeBuilder builder(writer->get());
    for (const auto& [key, value] : expected) {
      ASSERT_TRUE(builder.Add(key, value).ok()) << key;
    }
    auto built = builder.Finish();
    ASSERT_TRUE(built.ok()) << built.status();
    root = *built;
    ASSERT_TRUE((*writer)->Finish(root).ok());
  }

  auto file = PagedFile::Open(path_);
  ASSERT_TRUE(file.ok());
  BufferPool pool(file->get(), BufferPoolOptions{64});
  DiskBTree tree(&pool, root);

  // Point lookups: every present key, and misses on both sides.
  for (const auto& [key, value] : expected) {
    std::string got;
    auto found = tree.Get(key, &got);
    ASSERT_TRUE(found.ok()) << found.status();
    ASSERT_TRUE(*found) << key;
    EXPECT_EQ(got, value) << key;
  }
  std::string got;
  auto missing = tree.Get("key99999", &got);
  ASSERT_TRUE(missing.ok());
  EXPECT_FALSE(*missing);
  missing = tree.Get("aaa", &got);
  ASSERT_TRUE(missing.ok());
  EXPECT_FALSE(*missing);

  // Range scan from a mid key reproduces the tail of the map in order.
  std::vector<std::string> scanned;
  Status scan = tree.ScanFrom(
      "key01500",
      [&](std::string_view key, const DiskBTree::ValueRef& value)
          -> Result<bool> {
        auto bytes = value.Read();
        if (!bytes.ok()) return bytes.status();
        EXPECT_EQ(*bytes, expected[std::string(key)]);
        scanned.emplace_back(key);
        return true;
      });
  ASSERT_TRUE(scan.ok()) << scan;
  ASSERT_EQ(scanned.size(), 500u);
  EXPECT_EQ(scanned.front(), "key01500");
  EXPECT_EQ(scanned.back(), "key01999");
  EXPECT_TRUE(std::is_sorted(scanned.begin(), scanned.end()));

  // Early-terminated scan stops where the callback says.
  size_t visited = 0;
  scan = tree.ScanFrom("key00000",
                       [&](std::string_view, const DiskBTree::ValueRef&)
                           -> Result<bool> { return ++visited < 10; });
  ASSERT_TRUE(scan.ok());
  EXPECT_EQ(visited, 10u);
}

TEST_F(PageStoreTest, DiskBTreeRejectsUnsortedKeys) {
  auto writer = PagedFileWriter::Create(path_);
  ASSERT_TRUE(writer.ok());
  DiskBTreeBuilder builder(writer->get());
  ASSERT_TRUE(builder.Add("b", "1").ok());
  Status out_of_order = builder.Add("a", "2");
  EXPECT_EQ(out_of_order.code(), StatusCode::kInvalidArgument);
  Status duplicate = builder.Add("b", "3");
  EXPECT_EQ(duplicate.code(), StatusCode::kInvalidArgument);
}

TEST_F(PageStoreTest, EmptyDiskBTree) {
  PageId root;
  {
    auto writer = PagedFileWriter::Create(path_);
    ASSERT_TRUE(writer.ok());
    DiskBTreeBuilder builder(writer->get());
    auto built = builder.Finish();
    ASSERT_TRUE(built.ok());
    root = *built;
    ASSERT_TRUE((*writer)->Finish(root).ok());
  }
  auto file = PagedFile::Open(path_);
  ASSERT_TRUE(file.ok());
  BufferPool pool(file->get());
  DiskBTree tree(&pool, root);
  std::string got;
  auto found = tree.Get("anything", &got);
  ASSERT_TRUE(found.ok());
  EXPECT_FALSE(*found);
  size_t visited = 0;
  ASSERT_TRUE(tree.ScanFrom("", [&](std::string_view,
                                    const DiskBTree::ValueRef&)
                                    -> Result<bool> {
                    ++visited;
                    return true;
                  }).ok());
  EXPECT_EQ(visited, 0u);
}

}  // namespace
}  // namespace quickview::pagestore
