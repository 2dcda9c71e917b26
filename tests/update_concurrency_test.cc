// Live updates under concurrency: mutator threads insert/replace/remove
// documents through QueryService while query threads search, so version
// publication, the per-document versions in cache keys, and the corpus
// versions that queries and cursors pin all get exercised cross-thread.
// Runs under the TSan CI leg. The correctness claims:
//   - mutations of documents no registered view reads never perturb
//     query responses (and never invalidate their cached PDTs);
//   - every response under concurrent replacement equals the response of
//     exactly one corpus version — never a torn mix of two (snapshot
//     atomicity);
//   - a cursor opened before the storm drains the corpus version it was
//     opened against;
//   - a pinned version never blocks a writer, even one on the pinning
//     thread;
//   - concurrent writers on a WAL-attached database leave a corpus that
//     replaying the WAL reproduces exactly, root Dewey components
//     included.
#include <atomic>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "engine/result_cursor.h"
#include "engine/view_search_engine.h"
#include "index/index_builder.h"
#include "service/query_service.h"
#include "storage/document_store.h"
#include "storage/live_database.h"
#include "xml/dewey_id.h"
#include "xml/parser.h"

namespace quickview {
namespace {

std::string BooksXml(int generation, int count) {
  std::string out = "<books>";
  for (int i = 0; i < count; ++i) {
    out += "<book><isbn>isbn-" + std::to_string(i) +
           "</isbn><title>xml search generation " +
           std::to_string(generation) +
           "</title><year>2001</year></book>";
  }
  out += "</books>";
  return out;
}

const std::string kBooksView =
    "for $b in fn:doc(books.xml)/books//book return $b";

/// Serial ground truth for one corpus version, computed with a fresh
/// from-scratch engine.
engine::SearchResponse ExpectedFor(const std::string& books_xml,
                                   const std::vector<std::string>& keywords,
                                   const engine::SearchOptions& options) {
  auto db = std::make_shared<xml::Database>();
  auto parsed = xml::ParseXml(books_xml, 1);
  EXPECT_TRUE(parsed.ok());
  db->AddDocument("books.xml", *parsed);
  auto indexes = index::BuildDatabaseIndexes(*db);
  storage::DocumentStore store(*db);
  engine::ViewSearchEngine engine(db.get(), indexes.get(), &store);
  engine::SearchRequest request;
  request.view = kBooksView;
  request.keywords = keywords;
  request.options = options;
  auto response = engine.Execute(request);
  EXPECT_TRUE(response.ok()) << response.status().ToString();
  return std::move(*response);
}

bool SameHits(const engine::SearchResponse& expected,
              const engine::SearchResponse& actual) {
  if (expected.hits.size() != actual.hits.size()) return false;
  for (size_t i = 0; i < expected.hits.size(); ++i) {
    if (expected.hits[i].xml != actual.hits[i].xml) return false;
    if (expected.hits[i].score != actual.hits[i].score) return false;
  }
  return expected.stats.view_results == actual.stats.view_results &&
         expected.stats.matching_results == actual.stats.matching_results;
}

TEST(UpdateConcurrencyTest, UnrelatedMutationsNeverPerturbQueries) {
  storage::LiveDatabase live;
  service::QueryServiceOptions options;
  options.threads = 4;
  service::QueryService service(&live, options);
  ASSERT_TRUE(service.InsertDocument("books.xml", BooksXml(0, 6)).ok());
  ASSERT_TRUE(service.RegisterView("books", kBooksView).ok());

  service::BatchQuery query{"books", {"xml", "search"},
                            engine::SearchOptions{}};
  engine::SearchResponse expected =
      ExpectedFor(BooksXml(0, 6), query.keywords, query.options);
  // Warm the single plan serially so the miss counter below is exact
  // (no warm-up race between the reader threads); the cache admits a
  // plan on its second sighting.
  ASSERT_TRUE(service.SearchOne(query).ok());
  ASSERT_TRUE(service.SearchOne(query).ok());
  ASSERT_EQ(service.stats().cache.misses, 2u);

  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};
  // Mutators hammer documents the view never reads: inserts, in-place
  // replacements and removals, all invisible to the query results.
  std::vector<std::thread> mutators;
  for (int m = 0; m < 2; ++m) {
    mutators.emplace_back([&service, &failures, m] {
      for (int i = 0; i < 60; ++i) {
        std::string name = "scratch" + std::to_string(m) + ".xml";
        if (!service
                 .InsertDocument(name, "<notes><note>v" +
                                           std::to_string(i) +
                                           "</note></notes>")
                 .ok()) {
          failures.fetch_add(1);
        }
        if (i % 5 == 4 && !service.RemoveDocument(name).ok()) {
          failures.fetch_add(1);
        }
      }
    });
  }
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&service, &query, &expected, &failures, &stop] {
      while (!stop.load(std::memory_order_relaxed)) {
        auto response = service.SearchOne(query);
        if (!response.ok() || !SameHits(expected, *response)) {
          failures.fetch_add(1);
          return;
        }
      }
    });
  }
  for (std::thread& t : mutators) t.join();
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& t : readers) t.join();
  EXPECT_EQ(failures.load(), 0);
  // The view's documents never changed: the warm PDT entry stayed valid
  // through 100+ unrelated mutations.
  EXPECT_EQ(service.stats().cache.misses, 2u);
  EXPECT_GE(service.stats().documents_inserted, 120u);
}

// A query pins the corpus version it reads and holds no lock, so a
// writer on the query's own thread commits while the pin is held — the
// ordering that deadlocks when a reader holds the corpus lock shared
// across its query. The pinned version keeps answering from the old
// document through its own store and indexes; a fresh pin sees the new
// one. Run without and with a WAL (whose remove pre-check reads the
// current version too).
TEST(UpdateConcurrencyTest, PinnedVersionNeverBlocksAWriter) {
  const std::string wal_path =
      (std::filesystem::path(::testing::TempDir()) / "pinned_writer.wal")
          .string();
  engine::SearchRequest request;
  request.view = kBooksView;
  request.keywords = {"xml", "search"};
  const engine::SearchResponse old_answer =
      ExpectedFor(BooksXml(0, 4), request.keywords, request.options);
  const engine::SearchResponse new_answer =
      ExpectedFor(BooksXml(1, 6), request.keywords, request.options);
  for (bool with_wal : {false, true}) {
    SCOPED_TRACE(with_wal ? "with WAL" : "without WAL");
    std::filesystem::remove(wal_path);
    storage::LiveDatabase live;
    if (with_wal) {
      ASSERT_TRUE(live.OpenWal(wal_path).ok());
    }
    ASSERT_TRUE(live.CommitInsert("books.xml", BooksXml(0, 4)).ok());
    std::shared_ptr<const storage::CorpusVersion> pinned = live.Pin();

    ASSERT_TRUE(live.CommitInsert("books.xml", BooksXml(1, 6)).ok());
    ASSERT_TRUE(
        live.CommitInsert("notes.xml", "<notes><note>xml</note></notes>")
            .ok());
    ASSERT_TRUE(live.CommitRemove("notes.xml").ok());

    engine::ViewSearchEngine pinned_engine(
        &pinned->database, &pinned->indexes, &pinned->store);
    auto from_pin = pinned_engine.Execute(request);
    ASSERT_TRUE(from_pin.ok()) << from_pin.status().ToString();
    EXPECT_TRUE(SameHits(old_answer, *from_pin));
    EXPECT_EQ(pinned->DocumentNames(), std::vector<std::string>{"books.xml"});

    std::shared_ptr<const storage::CorpusVersion> fresh = live.Pin();
    engine::ViewSearchEngine fresh_engine(&fresh->database, &fresh->indexes,
                                          &fresh->store);
    auto from_fresh = fresh_engine.Execute(request);
    ASSERT_TRUE(from_fresh.ok()) << from_fresh.status().ToString();
    EXPECT_TRUE(SameHits(new_answer, *from_fresh));
    EXPECT_EQ(fresh->DocumentNames(), std::vector<std::string>{"books.xml"});
    // Commits count from 1: the pin holds commit 1's books.xml, commit 2
    // replaced it, and commits 3 and 4 inserted and removed notes.xml.
    EXPECT_EQ(pinned->DocumentVersion("books.xml"), 1u);
    EXPECT_EQ(fresh->DocumentVersion("books.xml"), 2u);
    EXPECT_EQ(fresh->sequence, 4u);
  }
  std::filesystem::remove(wal_path);
}

TEST(UpdateConcurrencyTest, ConcurrentReplacementsAreSnapshotAtomic) {
  constexpr int kVersions = 4;
  storage::LiveDatabase live;
  service::QueryServiceOptions options;
  options.threads = 4;
  service::QueryService service(&live, options);
  ASSERT_TRUE(service.InsertDocument("books.xml", BooksXml(0, 4)).ok());
  ASSERT_TRUE(service.RegisterView("books", kBooksView).ok());

  service::BatchQuery query{"books", {"xml"}, engine::SearchOptions{}};
  query.options.top_k = 16;
  // Each corpus version has a distinct book count AND generation marker,
  // so any torn read (indexes of one version, store of another) could
  // not reproduce any expected response.
  std::vector<engine::SearchResponse> expected;
  for (int v = 0; v < kVersions; ++v) {
    expected.push_back(
        ExpectedFor(BooksXml(v, 4 + v), query.keywords, query.options));
  }

  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};
  std::thread mutator([&service, &failures] {
    for (int i = 0; i < 40; ++i) {
      int v = i % kVersions;
      if (!service.InsertDocument("books.xml", BooksXml(v, 4 + v)).ok()) {
        failures.fetch_add(1);
      }
    }
  });
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&service, &query, &expected, &failures, &stop] {
      while (!stop.load(std::memory_order_relaxed)) {
        auto response = service.SearchOne(query);
        if (!response.ok()) {
          failures.fetch_add(1);
          return;
        }
        bool matched = false;
        for (const engine::SearchResponse& candidate : expected) {
          if (SameHits(candidate, *response)) {
            matched = true;
            break;
          }
        }
        if (!matched) {
          failures.fetch_add(1);
          return;
        }
      }
    });
  }
  mutator.join();
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& t : readers) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(service.stats().documents_inserted, 41u);
}

TEST(UpdateConcurrencyTest, CursorDrainsItsSnapshotThroughTheStorm) {
  storage::LiveDatabase live;
  service::QueryServiceOptions options;
  options.threads = 2;
  service::QueryService service(&live, options);
  ASSERT_TRUE(service.InsertDocument("books.xml", BooksXml(0, 8)).ok());
  ASSERT_TRUE(service.RegisterView("books", kBooksView).ok());

  service::BatchQuery query{"books", {"xml"}, engine::SearchOptions{}};
  query.options.top_k = 8;
  engine::SearchResponse expected =
      ExpectedFor(BooksXml(0, 8), query.keywords, query.options);

  auto cursor = service.OpenSearch(query);
  ASSERT_TRUE(cursor.ok()) << cursor.status().ToString();
  auto first = (*cursor)->FetchNext(2);
  ASSERT_TRUE(first.ok());

  // Replace and finally REMOVE the very document the cursor reads,
  // while draining it page by page from this thread.
  std::thread mutator([&service] {
    for (int i = 1; i <= 10; ++i) {
      ASSERT_TRUE(
          service.InsertDocument("books.xml", BooksXml(i, 3)).ok());
    }
    ASSERT_TRUE(service.RemoveDocument("books.xml").ok());
  });

  std::vector<engine::SearchHit> drained = std::move(*first);
  while (!(*cursor)->Done()) {
    auto page = (*cursor)->FetchNext(1);
    ASSERT_TRUE(page.ok()) << page.status().ToString();
    for (engine::SearchHit& hit : *page) drained.push_back(std::move(hit));
  }
  mutator.join();

  ASSERT_EQ(drained.size(), expected.hits.size());
  for (size_t i = 0; i < drained.size(); ++i) {
    EXPECT_EQ(drained[i].xml, expected.hits[i].xml) << "hit " << i;
    EXPECT_EQ(drained[i].score, expected.hits[i].score) << "hit " << i;
  }
  // The corpus the cursor saw is gone for new queries.
  auto after = service.SearchOne(query);
  ASSERT_FALSE(after.ok());
  EXPECT_EQ(after.status().code(), StatusCode::kNotFound);
}

/// Every path-index entry and posting of every document, with FULL
/// Dewey ids (root component included) — unlike the masked dumps of
/// update_differential_test and wal_crash_test, this one tells two
/// corpora apart when they assigned roots in different orders.
using FullIndexDump = std::vector<
    std::tuple<std::string, std::string, std::string, std::vector<uint32_t>,
               uint64_t>>;

FullIndexDump DumpWithRoots(const index::DatabaseIndexes& indexes) {
  FullIndexDump out;
  auto ids = [](const xml::DeweyId& id) {
    return std::vector<uint32_t>(id.components().begin(),
                                 id.components().end());
  };
  for (const auto& [name, doc] : indexes.all()) {
    doc->path_index.ForEachRow(
        [&, doc_name = name](const std::string& path, const std::string& value,
                             const std::vector<index::PathEntry>& entries) {
          for (const index::PathEntry& entry : entries) {
            out.emplace_back(doc_name, "path:" + path, value, ids(entry.id),
                             entry.byte_length);
          }
        });
    doc->inverted_index.ForEachPosting(
        [&, doc_name = name](const std::string& term, const xml::DeweyId& id,
                             uint32_t tf) {
          out.emplace_back(doc_name, "term:" + term, "", ids(id), tf);
        });
  }
  return out;
}

struct CorpusState {
  std::map<std::string, uint32_t> roots;  // document name -> root component
  FullIndexDump indexes;
};

CorpusState CaptureState(const storage::LiveDatabase& live) {
  std::shared_ptr<const storage::CorpusVersion> version = live.Pin();
  CorpusState state;
  for (const auto& [name, doc] : version->database.documents()) {
    state.roots[name] = doc->root_component();
  }
  state.indexes = DumpWithRoots(version->indexes);
  return state;
}

TEST(UpdateConcurrencyTest, ConcurrentWritersReplayToTheIdenticalCorpus) {
  constexpr int kWriters = 4;
  constexpr int kRounds = 12;
  const std::string wal_path =
      (std::filesystem::path(::testing::TempDir()) / "concurrent_writers.wal")
          .string();
  std::filesystem::remove(wal_path);

  service::BatchQuery query{"books", {"xml"}, engine::SearchOptions{}};
  query.options.top_k = 16;
  // books.xml is the one name every writer replaces: writer w writes
  // version w, and the corpus starts at version 0.
  std::vector<engine::SearchResponse> expected;
  for (int v = 0; v < kWriters; ++v) {
    expected.push_back(
        ExpectedFor(BooksXml(v, 4 + v), query.keywords, query.options));
  }

  CorpusState written;
  uint64_t commits = 0;
  {
    storage::LiveDatabase live;
    ASSERT_TRUE(live.OpenWal(wal_path).ok());
    service::QueryServiceOptions options;
    options.threads = 2;
    service::QueryService service(&live, options);
    ASSERT_TRUE(service.InsertDocument("books.xml", BooksXml(0, 4)).ok());
    ASSERT_TRUE(service.RegisterView("books", kBooksView).ok());

    std::atomic<bool> stop{false};
    std::atomic<int> failures{0};
    std::atomic<uint64_t> acked{1};
    // Each writer inserts fresh names, replaces the shared books.xml every
    // third round and removes its own names two rounds later, so removals
    // free root components that racing inserts then compete for.
    std::vector<std::thread> writers;
    for (int w = 0; w < kWriters; ++w) {
      writers.emplace_back([&service, &failures, &acked, w] {
        auto name = [w](int round) {
          return "w" + std::to_string(w) + "-" + std::to_string(round) + ".xml";
        };
        auto commit = [&failures, &acked](const Status& status) {
          if (status.ok()) {
            acked.fetch_add(1);
          } else {
            failures.fetch_add(1);
          }
        };
        for (int i = 0; i < kRounds; ++i) {
          std::string note = "<notes><note>writer " + std::to_string(w) +
                             " round " + std::to_string(i) + "</note></notes>";
          commit(service.InsertDocument(name(i), note));
          if (i % 3 == 0) {
            commit(service.InsertDocument("books.xml", BooksXml(w, 4 + w)));
          }
          if (i >= 2) commit(service.RemoveDocument(name(i - 2)));
        }
      });
    }
    std::vector<std::thread> readers;
    for (int r = 0; r < 2; ++r) {
      readers.emplace_back([&service, &query, &expected, &failures, &stop] {
        while (!stop.load(std::memory_order_relaxed)) {
          auto response = service.SearchOne(query);
          bool matched = false;
          for (const engine::SearchResponse& candidate : expected) {
            if (response.ok() && SameHits(candidate, *response)) {
              matched = true;
              break;
            }
          }
          if (!matched) {
            failures.fetch_add(1);
            return;
          }
        }
      });
    }
    for (std::thread& t : writers) t.join();
    stop.store(true, std::memory_order_relaxed);
    for (std::thread& t : readers) t.join();
    ASSERT_EQ(failures.load(), 0);
    written = CaptureState(live);
    commits = acked.load();
  }

  storage::LiveDatabase replayed;
  ASSERT_TRUE(replayed.OpenWal(wal_path).ok());
  EXPECT_EQ(replayed.wal()->replay().payloads.size(), commits);
  CorpusState recovered = CaptureState(replayed);
  // Same names with the same root per name, and identical index
  // contents down to the root component of every Dewey id.
  EXPECT_EQ(recovered.roots, written.roots);
  EXPECT_EQ(recovered.indexes, written.indexes);
  EXPECT_EQ(written.roots.size(), 1u + kWriters * 2);
  std::filesystem::remove(wal_path);
}

}  // namespace
}  // namespace quickview
