// Pack -> open round trips: queries over a packed .qvpack database must
// be byte-identical to the same queries over the in-memory database —
// including cursor paging across buffer-pool eviction at tiny frame
// budgets — while reading only the pages they actually touch. The
// acceptance property of the paged storage engine lives here: on a
// ~1000-match query, Open + FetchNext(10) reads strictly fewer pages
// than a full drain, and per-query pages_read / buffer_hits surface
// through SearchStats.
#include <algorithm>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/strings.h"
#include "engine/result_cursor.h"
#include "engine/view_search_engine.h"
#include "index/index_builder.h"
#include "obs/metrics.h"
#include "pagestore/pack.h"
#include "pagestore/packed_db.h"
#include "service/query_service.h"
#include "storage/document_store.h"
#include "storage/shard_set.h"
#include "workload/bookrev_generator.h"
#include "xml/serializer.h"

namespace quickview {
namespace {

/// Everything needed to serve queries from a packed file: a one-shard
/// paged set, plus its pack and store for direct inspection.
struct PackedRuntime {
  std::unique_ptr<storage::ShardSet> corpus;
  std::shared_ptr<const pagestore::PackedDb> db;
  const storage::DocumentStore* store = nullptr;
  std::unique_ptr<service::QueryService> service;
};

struct Corpus {
  std::shared_ptr<xml::Database> db;
  std::unique_ptr<index::DatabaseIndexes> indexes;
  std::unique_ptr<storage::DocumentStore> store;
  std::unique_ptr<storage::ShardSet> in_memory;  // one shard over `db`
  std::string pack_path;
};

class PackedDbTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    corpus_ = new Corpus();
    // Large enough that the four-term disjunctive query below matches on
    // the order of 1000 view results (the paper's top-k regime).
    workload::BookRevOptions opts;
    opts.num_books = 1800;
    opts.max_reviews_per_book = 4;
    corpus_->db = workload::GenerateBookRevDatabase(opts);
    corpus_->indexes = index::BuildDatabaseIndexes(*corpus_->db);
    corpus_->store = std::make_unique<storage::DocumentStore>(*corpus_->db);
    corpus_->in_memory = std::make_unique<storage::ShardSet>(
        storage::ShardSet::FromDatabase(corpus_->db));
    corpus_->pack_path = ::testing::TempDir() + "/qvpack_bookrev.qvpack";
    Status packed = pagestore::PackDatabase(*corpus_->db, *corpus_->indexes,
                                            corpus_->pack_path);
    ASSERT_TRUE(packed.ok()) << packed;
  }

  static void TearDownTestSuite() {
    std::filesystem::remove(corpus_->pack_path);
    delete corpus_;
    corpus_ = nullptr;
  }

  static std::unique_ptr<service::QueryService> MakeMemService(
      int threads = 1) {
    service::QueryServiceOptions options;
    options.threads = threads;
    auto mem_service = std::make_unique<service::QueryService>(
        corpus_->in_memory.get(), options);
    EXPECT_TRUE(
        mem_service->RegisterView("bookrev", workload::BookRevView()).ok());
    return mem_service;
  }

  static PackedRuntime OpenPacked(size_t frames, int threads = 1) {
    PackedRuntime runtime;
    auto opened = storage::ShardSet::FromPack(corpus_->pack_path, frames);
    EXPECT_TRUE(opened.ok()) << opened.status();
    runtime.corpus = std::make_unique<storage::ShardSet>(std::move(*opened));
    runtime.db = runtime.corpus->shard(0).packed;
    runtime.store = runtime.corpus->shard(0).store.get();
    service::QueryServiceOptions options;
    options.threads = threads;
    runtime.service = std::make_unique<service::QueryService>(
        runtime.corpus.get(), options);
    EXPECT_TRUE(
        runtime.service->RegisterView("bookrev", workload::BookRevView())
            .ok());
    return runtime;
  }

  static engine::SearchRequest MakeQuery(std::vector<std::string> keywords,
                                         bool conjunctive, size_t top_k) {
    engine::SearchRequest query;
    query.view = "bookrev";
    query.keywords = std::move(keywords);
    query.options.conjunctive = conjunctive;
    query.options.top_k = top_k;
    return query;
  }

  static void ExpectIdentical(const engine::SearchResponse& mem,
                              const engine::SearchResponse& paged,
                              const std::string& label) {
    ASSERT_EQ(mem.hits.size(), paged.hits.size()) << label;
    for (size_t i = 0; i < mem.hits.size(); ++i) {
      EXPECT_EQ(mem.hits[i].score, paged.hits[i].score) << label << " #" << i;
      EXPECT_EQ(mem.hits[i].tf, paged.hits[i].tf) << label << " #" << i;
      EXPECT_EQ(mem.hits[i].byte_length, paged.hits[i].byte_length)
          << label << " #" << i;
      EXPECT_EQ(mem.hits[i].xml, paged.hits[i].xml) << label << " #" << i;
    }
    EXPECT_EQ(mem.stats.view_results, paged.stats.view_results) << label;
    EXPECT_EQ(mem.stats.matching_results, paged.stats.matching_results)
        << label;
    EXPECT_EQ(mem.stats.view_bytes, paged.stats.view_bytes) << label;
    EXPECT_EQ(mem.stats.store_fetches, paged.stats.store_fetches) << label;
    EXPECT_EQ(mem.stats.store_bytes, paged.stats.store_bytes) << label;
    EXPECT_EQ(mem.stats.pdt.ids_processed, paged.stats.pdt.ids_processed)
        << label;
    EXPECT_EQ(mem.stats.pdt.nodes_emitted, paged.stats.pdt.nodes_emitted)
        << label;
    EXPECT_EQ(mem.stats.pdt.index_probes, paged.stats.pdt.index_probes)
        << label;
    EXPECT_EQ(mem.stats.pdt.pdt_bytes, paged.stats.pdt.pdt_bytes) << label;
    // The in-memory run never touches pages.
    EXPECT_EQ(mem.stats.pages_read, 0u) << label;
  }

  /// Builds the exact child-axis pattern for a full data path such as
  /// "/books/book/isbn".
  static index::PathPattern PatternForPath(const std::string& path) {
    index::PathPattern pattern;
    for (std::string_view segment :
         SplitString(std::string_view(path).substr(1), '/')) {
      pattern.push_back(index::PathStep{false, std::string(segment)});
    }
    return pattern;
  }

  static Corpus* corpus_;
};

Corpus* PackedDbTest::corpus_ = nullptr;

TEST_F(PackedDbTest, OpenListsDocuments) {
  PackedRuntime packed = OpenPacked(64);
  std::vector<std::string> names = packed.db->document_names();
  ASSERT_EQ(names.size(), corpus_->db->documents().size());
  for (const std::string& name : names) {
    EXPECT_NE(corpus_->db->GetDocument(name), nullptr) << name;
    EXPECT_TRUE(packed.db->GetView(name).has_value()) << name;
  }
  EXPECT_FALSE(packed.db->GetView("no-such-doc").has_value());
}

TEST_F(PackedDbTest, PagedIndexViewsMatchInMemory) {
  PackedRuntime packed = OpenPacked(64);
  for (const auto& [name, doc] : corpus_->db->documents()) {
    (void)doc;
    std::optional<index::DocumentIndexView> mem_view =
        corpus_->indexes->GetView(name);
    std::optional<index::DocumentIndexView> paged_view =
        packed.db->GetView(name);
    ASSERT_TRUE(mem_view.has_value());
    ASSERT_TRUE(paged_view.has_value());

    for (const index::PathPattern& pattern :
         {index::PathPattern{{false, "books"}, {true, "book"}},
          index::PathPattern{{true, "isbn"}},
          index::PathPattern{{false, "reviews"}, {true, "content"}},
          index::PathPattern{{true, "no_such_tag"}}}) {
      auto mem_rows = mem_view->paths->LookUpPerPath(pattern, true);
      auto paged_rows = paged_view->paths->LookUpPerPath(pattern, true);
      ASSERT_TRUE(mem_rows.ok());
      ASSERT_TRUE(paged_rows.ok()) << paged_rows.status();
      ASSERT_EQ(mem_rows->size(), paged_rows->size());
      for (size_t r = 0; r < mem_rows->size(); ++r) {
        EXPECT_EQ((*mem_rows)[r].path, (*paged_rows)[r].path);
        ASSERT_EQ((*mem_rows)[r].entries.size(),
                  (*paged_rows)[r].entries.size());
        for (size_t e = 0; e < (*mem_rows)[r].entries.size(); ++e) {
          EXPECT_EQ((*mem_rows)[r].entries[e].id,
                    (*paged_rows)[r].entries[e].id);
          EXPECT_EQ((*mem_rows)[r].entries[e].byte_length,
                    (*paged_rows)[r].entries[e].byte_length);
          EXPECT_EQ((*mem_rows)[r].entries[e].value,
                    (*paged_rows)[r].entries[e].value);
        }
      }
    }

    for (const std::string& term :
         {std::string("xml"), std::string("search"),
          std::string("never-seen-term")}) {
      auto mem_postings = mem_view->terms->Lookup(term);
      auto paged_postings = paged_view->terms->Lookup(term);
      ASSERT_TRUE(mem_postings.ok());
      ASSERT_TRUE(paged_postings.ok()) << paged_postings.status();
      ASSERT_EQ(mem_postings->size(), paged_postings->size()) << term;
      for (size_t i = 0; i < mem_postings->size(); ++i) {
        EXPECT_EQ((*mem_postings)[i].id, (*paged_postings)[i].id);
        EXPECT_EQ((*mem_postings)[i].tf, (*paged_postings)[i].tf);
      }
    }
  }
}

TEST_F(PackedDbTest, DocumentFetchesMatchInMemory) {
  PackedRuntime packed = OpenPacked(64);
  for (const auto& [name, doc] : corpus_->db->documents()) {
    const index::DocumentIndexes* doc_indexes = corpus_->indexes->Get(name);
    ASSERT_NE(doc_indexes, nullptr);
    uint32_t root = doc->root_component();

    // Sample elements on every distinct data path of the document.
    for (const std::string& path :
         doc_indexes->path_index.distinct_path_list()) {
      std::vector<index::PathEntry> entries =
          doc_indexes->path_index.LookUpId(PatternForPath(path));
      ASSERT_FALSE(entries.empty()) << path;
      size_t step = std::max<size_t>(1, entries.size() / 5);
      for (size_t i = 0; i < entries.size(); i += step) {
        const xml::DeweyId& id = entries[i].id;

        storage::DocumentStore::Stats mem_stats, paged_stats;
        xml::Document mem_copy(root), paged_copy(root);
        Status mem_status = corpus_->store->CopySubtree(
            root, id, &mem_copy, xml::kInvalidNode, &mem_stats);
        Status paged_status = packed.store->CopySubtree(
            root, id, &paged_copy, xml::kInvalidNode, &paged_stats);
        ASSERT_TRUE(mem_status.ok()) << mem_status;
        ASSERT_TRUE(paged_status.ok()) << paged_status;
        EXPECT_EQ(xml::Serialize(mem_copy), xml::Serialize(paged_copy));
        EXPECT_EQ(mem_stats.bytes_fetched, paged_stats.bytes_fetched);
        EXPECT_EQ(mem_stats.fetch_calls, paged_stats.fetch_calls);
        EXPECT_GT(paged_stats.pages_read + paged_stats.buffer_hits, 0u);
        EXPECT_EQ(mem_stats.pages_read, 0u);

        uint64_t mem_len = 0, paged_len = 0;
        ASSERT_TRUE(
            corpus_->store->GetSubtreeLength(root, id, &mem_len).ok());
        ASSERT_TRUE(
            packed.store->GetSubtreeLength(root, id, &paged_len).ok());
        EXPECT_EQ(mem_len, paged_len);

        std::string mem_value, paged_value;
        ASSERT_TRUE(corpus_->store->GetValue(root, id, &mem_value).ok());
        ASSERT_TRUE(packed.store->GetValue(root, id, &paged_value).ok());
        EXPECT_EQ(mem_value, paged_value);
      }
    }

    // Misses keep the in-memory error contract.
    xml::Document sink(root);
    Status missing = packed.store->CopySubtree(
        root, xml::DeweyId({root, 999999u}), &sink, xml::kInvalidNode);
    EXPECT_EQ(missing.code(), StatusCode::kNotFound);
    uint64_t len_sink = 0;
    Status bad_root = packed.store->GetSubtreeLength(
        775533u, xml::DeweyId({775533u}), &len_sink);
    EXPECT_EQ(bad_root.code(), StatusCode::kNotFound);
  }
}

TEST_F(PackedDbTest, SearchBatchByteIdenticalToInMemory) {
  std::unique_ptr<service::QueryService> mem_service = MakeMemService();
  PackedRuntime packed = OpenPacked(128);

  std::vector<engine::SearchRequest> batch = {
      MakeQuery({"xml", "search"}, true, 10),
      MakeQuery({"database"}, true, 5),
      MakeQuery({"xml", "web", "database"}, false, 25),
      MakeQuery({"search"}, false, 50),
      MakeQuery({"xml", "search", "web", "database"}, false, 10),
      MakeQuery({"nonexistentterm"}, true, 10),
  };
  std::vector<Result<engine::SearchResponse>> mem_responses =
      mem_service->SearchBatch(batch);
  std::vector<Result<engine::SearchResponse>> paged_responses =
      packed.service->SearchBatch(batch);
  ASSERT_EQ(mem_responses.size(), paged_responses.size());
  for (size_t i = 0; i < batch.size(); ++i) {
    ASSERT_TRUE(mem_responses[i].ok()) << mem_responses[i].status();
    ASSERT_TRUE(paged_responses[i].ok()) << paged_responses[i].status();
    ExpectIdentical(*mem_responses[i], *paged_responses[i],
                    "query " + std::to_string(i));
  }

  // The packed run surfaces its I/O through its buffer pool's registry
  // series (labelled shard="0" on a one-shard corpus); the in-memory run
  // has no pool and registers none.
  EXPECT_GT(packed.db->pool().stats().misses, 0u);
  obs::MetricsRegistry packed_registry;
  ASSERT_TRUE(packed.service->RegisterMetrics(&packed_registry).ok());
  EXPECT_NE(packed_registry.TextExposition().find(
                "qv_bufferpool_misses_total{shard=\"0\"} " +
                std::to_string(packed.db->pool().stats().misses)),
            std::string::npos)
      << packed_registry.TextExposition();
  obs::MetricsRegistry mem_registry;
  ASSERT_TRUE(mem_service->RegisterMetrics(&mem_registry).ok());
  EXPECT_EQ(mem_registry.TextExposition().find("qv_bufferpool_"),
            std::string::npos);
}

TEST_F(PackedDbTest, ConcurrentPackedBatchesAreIdentical) {
  std::unique_ptr<service::QueryService> mem_service = MakeMemService();
  PackedRuntime packed = OpenPacked(32, /*threads=*/4);

  std::vector<engine::SearchRequest> batch;
  for (int r = 0; r < 4; ++r) {
    batch.push_back(MakeQuery({"xml", "search"}, true, 10));
    batch.push_back(MakeQuery({"web"}, false, 20));
    batch.push_back(MakeQuery({"database", "search"}, false, 15));
  }
  std::vector<Result<engine::SearchResponse>> mem_responses =
      mem_service->SearchBatch(batch);
  std::vector<Result<engine::SearchResponse>> paged_responses =
      packed.service->SearchBatch(batch);
  for (size_t i = 0; i < batch.size(); ++i) {
    ASSERT_TRUE(paged_responses[i].ok()) << paged_responses[i].status();
    ExpectIdentical(*mem_responses[i], *paged_responses[i],
                    "concurrent query " + std::to_string(i));
  }
}

TEST_F(PackedDbTest, CursorPagingAcrossEvictionMatchesInMemoryDrain) {
  // Four frames: every B-tree descent and record fetch cycles the pool,
  // so paging correctness cannot lean on residency.
  PackedRuntime packed = OpenPacked(4);
  std::unique_ptr<service::QueryService> mem_service = MakeMemService();
  engine::SearchRequest query =
      MakeQuery({"xml", "search", "web"}, false, 200);

  auto mem_response = mem_service->SearchOne(query);
  ASSERT_TRUE(mem_response.ok());

  auto cursor = packed.service->OpenSearch(query);
  ASSERT_TRUE(cursor.ok()) << cursor.status();
  std::vector<engine::SearchHit> paged_hits;
  while (!(*cursor)->Done()) {
    auto page = (*cursor)->FetchNext(7);
    ASSERT_TRUE(page.ok()) << page.status();
    for (engine::SearchHit& hit : *page) {
      paged_hits.push_back(std::move(hit));
    }
  }
  ASSERT_EQ(paged_hits.size(), mem_response->hits.size());
  for (size_t i = 0; i < paged_hits.size(); ++i) {
    EXPECT_EQ(paged_hits[i].score, mem_response->hits[i].score) << i;
    EXPECT_EQ(paged_hits[i].xml, mem_response->hits[i].xml) << i;
  }
  pagestore::BufferPoolStats pool_stats = packed.db->pool().stats();
  EXPECT_GT(pool_stats.evictions, 0u);
}

TEST_F(PackedDbTest, LazyPageIoFirstPageReadsStrictlyFewerPagesThanDrain) {
  engine::SearchRequest query =
      MakeQuery({"xml", "search", "web", "database"}, false, 1u << 20);

  // Cursor A: open + one page of 10.
  PackedRuntime first_page_run = OpenPacked(256);
  auto cursor = first_page_run.service->OpenSearch(query);
  ASSERT_TRUE(cursor.ok()) << cursor.status();
  ASSERT_GT((*cursor)->stats().search.matching_results, 900u)
      << "acceptance query must match on the order of 1000 results";
  // The lazy-I/O guarantee at open: no node-record page has been read
  // for materialization yet (store fetches == 0 => pages_read == 0).
  EXPECT_EQ((*cursor)->stats().search.store_fetches, 0u);
  EXPECT_EQ((*cursor)->stats().search.pages_read, 0u);

  auto page = (*cursor)->FetchNext(10);
  ASSERT_TRUE(page.ok());
  ASSERT_EQ(page->size(), 10u);
  uint64_t first_page_pages = (*cursor)->stats().search.pages_read;
  uint64_t first_page_hits = (*cursor)->stats().search.buffer_hits;
  EXPECT_GT(first_page_pages + first_page_hits, 0u);

  // Cursor B (fresh pool, same budget): full drain.
  PackedRuntime drain_run = OpenPacked(256);
  auto drain_cursor = drain_run.service->OpenSearch(query);
  ASSERT_TRUE(drain_cursor.ok());
  auto everything = (*drain_cursor)->FetchNext((*drain_cursor)->pending());
  ASSERT_TRUE(everything.ok());
  ASSERT_EQ(everything->size(), (*drain_cursor)->stats().search.matching_results);
  uint64_t drain_pages = (*drain_cursor)->stats().search.pages_read;

  EXPECT_LT(first_page_pages, drain_pages)
      << "FetchNext(10) must read strictly fewer pages than materializing "
      << "all " << everything->size() << " matches";
}

// Atomic values far beyond one page must pack: the disk path index keys
// rows by (path, ordinal) and keeps the value in the row payload, so a
// multi-KB text node spills to posting-run chains instead of blowing
// the one-page leaf-entry limit (regression: pack used to fail with
// InvalidArgument on any document holding ~4 KB of text in one node).
TEST(PackedDbLongValues, MultiPageTextNodesRoundTrip) {
  const std::string pack_path =
      ::testing::TempDir() + "/qvpack_long_values.qvpack";
  std::string huge(3 * pagestore::kPageSize + 123, 'x');
  for (size_t i = 0; i < huge.size(); i += 97) huge[i] = ' ';

  xml::Database db;
  auto doc = std::make_shared<xml::Document>(1);
  xml::NodeIndex root = doc->CreateRoot("reviews");
  xml::NodeIndex review = doc->AddChild(root, "review");
  doc->node(doc->AddChild(review, "content")).text = huge;
  doc->node(doc->AddChild(review, "rate")).text = "5";
  db.AddDocument("reviews.xml", doc);
  auto indexes = index::BuildDatabaseIndexes(db);

  Status packed = pagestore::PackDatabase(db, *indexes, pack_path);
  ASSERT_TRUE(packed.ok()) << packed;
  auto opened = pagestore::PackedDb::Open(pack_path,
                                          pagestore::BufferPoolOptions{8});
  ASSERT_TRUE(opened.ok()) << opened.status();

  // The huge value survives both surfaces: path-index rows (value in
  // the row payload) and node records (GetValue).
  std::optional<index::DocumentIndexView> view =
      (*opened)->GetView("reviews.xml");
  ASSERT_TRUE(view.has_value());
  index::PathPattern pattern{{false, "reviews"},
                             {false, "review"},
                             {false, "content"}};
  auto rows = view->paths->LookUpPerPath(pattern, /*with_values=*/true);
  ASSERT_TRUE(rows.ok()) << rows.status();
  ASSERT_EQ(rows->size(), 1u);
  ASSERT_EQ((*rows)[0].entries.size(), 1u);
  EXPECT_EQ((*rows)[0].entries[0].value, huge);

  storage::DocumentStore paged_store(*opened);
  std::string value;
  ASSERT_TRUE(
      paged_store.GetValue(1, (*rows)[0].entries[0].id, &value).ok());
  EXPECT_EQ(value, huge);

  std::filesystem::remove(pack_path);
}

}  // namespace
}  // namespace quickview
