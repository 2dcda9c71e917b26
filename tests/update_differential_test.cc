// Differential proof of the live update path: a corpus mutated through
// InsertDocument/RemoveDocument — documents, path indexes, inverted
// indexes and store, in corpus versions published one mutation at a
// time — must be indistinguishable from a corpus rebuilt from scratch.
// The harness interleaves hundreds of seeded random insert/remove/query
// steps on a bookrev-shaped corpus and, after EVERY mutation, checks
//   (a) structural index-state equality against a fresh rebuild (row for
//       row, posting for posting; Dewey ids compared modulo the root
//       component, which legitimately differs between incremental
//       assignment order and rebuild order), and
//   (b) byte-identical SearchBatch responses (hits, scores, tf vectors,
//       materialized XML, fetch accounting) through a live QueryService
//       vs a fresh engine over the rebuilt corpus — including identical
//       errors while a referenced document is absent.
// A second suite proves the packed-database delta story: a .qvpack plus
// delta side log answers queries byte-identically to an in-memory engine
// over the folded corpus, and `compact` output is byte-identical — as a
// file — to packing the final corpus directly.
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <random>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "common/sync.h"
#include "engine/result_cursor.h"
#include "engine/view_search_engine.h"
#include "index/index_builder.h"
#include "pagestore/delta_log.h"
#include "pagestore/pack.h"
#include "pagestore/packed_db.h"
#include "service/query_service.h"
#include "storage/document_store.h"
#include "storage/live_database.h"
#include "storage/shard_set.h"
#include "workload/bookrev_generator.h"
#include "xml/parser.h"

namespace quickview {
namespace {

// ---------------------------------------------------------------------------
// Corpus model: the ground truth the live database is diffed against.
// ---------------------------------------------------------------------------

const char* const kTerms[] = {"xml",      "search",  "web",     "database",
                              "services", "systems", "queries", "index"};

struct Book {
  int id = 0;
  std::string title;
  int year = 1990;
};

struct Review {
  int book_id = 0;
  std::string content;
};

std::string Isbn(int id) { return "isbn-" + std::to_string(1000 + id); }

std::string BooksXml(const std::vector<Book>& books) {
  std::string out = "<books>";
  for (const Book& book : books) {
    out += "<book><isbn>" + Isbn(book.id) + "</isbn><title>" + book.title +
           "</title><publisher>Morgan Kaufmann</publisher><year>" +
           std::to_string(book.year) + "</year></book>";
  }
  out += "</books>";
  return out;
}

std::string ReviewsXml(const std::vector<Review>& reviews) {
  std::string out = "<reviews>";
  for (const Review& review : reviews) {
    out += "<review><isbn>" + Isbn(review.book_id) +
           "</isbn><rate>Good</rate><content>" + review.content +
           "</content><reviewer>reviewer</reviewer></review>";
  }
  out += "</reviews>";
  return out;
}

/// The whole corpus state as (document name -> XML text): what the
/// fresh-rebuild side parses from scratch.
struct CorpusModel {
  std::vector<Book> books;
  std::vector<Review> reviews;
  bool reviews_doc_present = true;
  std::map<std::string, std::string> aux_docs;

  std::map<std::string, std::string> Documents() const {
    std::map<std::string, std::string> out = aux_docs;
    out["books.xml"] = BooksXml(books);
    if (reviews_doc_present) out["reviews.xml"] = ReviewsXml(reviews);
    return out;
  }
};

std::shared_ptr<xml::Database> BuildFromCorpus(
    const std::map<std::string, std::string>& docs) {
  auto db = std::make_shared<xml::Database>();
  uint32_t next_root = 1;
  for (const auto& [name, text] : docs) {
    auto parsed = xml::ParseXml(text, next_root++);
    EXPECT_TRUE(parsed.ok()) << parsed.status().ToString();
    db->AddDocument(name, *parsed);
  }
  return db;
}

/// A from-scratch engine over the model: the oracle every live state is
/// compared against.
struct RebuiltEngine {
  std::shared_ptr<xml::Database> db;
  std::unique_ptr<index::DatabaseIndexes> indexes;
  std::unique_ptr<storage::DocumentStore> store;
  std::unique_ptr<engine::ViewSearchEngine> engine;

  explicit RebuiltEngine(const CorpusModel& model)
      : db(BuildFromCorpus(model.Documents())),
        indexes(index::BuildDatabaseIndexes(*db)),
        store(std::make_unique<storage::DocumentStore>(*db)),
        engine(std::make_unique<engine::ViewSearchEngine>(
            db.get(), indexes.get(), store.get())) {}
};

// ---------------------------------------------------------------------------
// Structural index comparison (root Dewey component masked)
// ---------------------------------------------------------------------------

std::vector<uint32_t> TailComponents(const xml::DeweyId& id) {
  std::span<const uint32_t> all = id.components();
  return std::vector<uint32_t>(all.begin() + (all.empty() ? 0 : 1),
                               all.end());
}

using PathDump = std::vector<
    std::tuple<std::string, std::string, std::vector<uint32_t>, uint64_t>>;
using TermDump =
    std::vector<std::tuple<std::string, std::vector<uint32_t>, uint32_t>>;

PathDump DumpPathIndex(const index::PathIndex& paths) {
  PathDump out;
  paths.ForEachRow([&](const std::string& path, const std::string& value,
                       const std::vector<index::PathEntry>& entries) {
    for (const index::PathEntry& entry : entries) {
      out.emplace_back(path, value, TailComponents(entry.id),
                       entry.byte_length);
    }
  });
  return out;
}

TermDump DumpInvertedIndex(const index::InvertedIndex& terms) {
  TermDump out;
  terms.ForEachPosting(
      [&](const std::string& term, const xml::DeweyId& id, uint32_t tf) {
        out.emplace_back(term, TailComponents(id), tf);
      });
  return out;
}

void ExpectSameIndexState(const index::DatabaseIndexes& incremental,
                          const index::DatabaseIndexes& rebuilt,
                          const std::string& context) {
  ASSERT_EQ(incremental.all().size(), rebuilt.all().size()) << context;
  for (const auto& [name, fresh] : rebuilt.all()) {
    const index::DocumentIndexes* live = incremental.Get(name);
    ASSERT_NE(live, nullptr) << context << ": missing indexes for " << name;
    EXPECT_EQ(live->path_index.distinct_path_list(),
              fresh->path_index.distinct_path_list())
        << context << ": path dictionary diverged for " << name;
    EXPECT_EQ(DumpPathIndex(live->path_index),
              DumpPathIndex(fresh->path_index))
        << context << ": path index diverged for " << name;
    EXPECT_EQ(DumpInvertedIndex(live->inverted_index),
              DumpInvertedIndex(fresh->inverted_index))
        << context << ": inverted index diverged for " << name;
  }
}

// ---------------------------------------------------------------------------
// Response comparison
// ---------------------------------------------------------------------------

void ExpectSameResponse(const Result<engine::SearchResponse>& expected,
                        const Result<engine::SearchResponse>& actual,
                        const std::string& context) {
  ASSERT_EQ(expected.ok(), actual.ok())
      << context << ": " << expected.status().ToString() << " vs "
      << actual.status().ToString();
  if (!expected.ok()) {
    EXPECT_EQ(expected.status().code(), actual.status().code()) << context;
    EXPECT_EQ(expected.status().message(), actual.status().message())
        << context;
    return;
  }
  ASSERT_EQ(expected->hits.size(), actual->hits.size()) << context;
  for (size_t i = 0; i < expected->hits.size(); ++i) {
    EXPECT_EQ(expected->hits[i].xml, actual->hits[i].xml)
        << context << " hit " << i;
    EXPECT_EQ(expected->hits[i].score, actual->hits[i].score)
        << context << " hit " << i;
    EXPECT_EQ(expected->hits[i].tf, actual->hits[i].tf)
        << context << " hit " << i;
    EXPECT_EQ(expected->hits[i].byte_length, actual->hits[i].byte_length)
        << context << " hit " << i;
  }
  EXPECT_EQ(expected->stats.view_results, actual->stats.view_results)
      << context;
  EXPECT_EQ(expected->stats.matching_results, actual->stats.matching_results)
      << context;
  EXPECT_EQ(expected->stats.view_bytes, actual->stats.view_bytes) << context;
  EXPECT_EQ(expected->stats.store_fetches, actual->stats.store_fetches)
      << context;
  EXPECT_EQ(expected->stats.store_bytes, actual->stats.store_bytes)
      << context;
  EXPECT_EQ(expected->stats.pdt.ids_processed, actual->stats.pdt.ids_processed)
      << context;
  EXPECT_EQ(expected->stats.pdt.nodes_emitted, actual->stats.pdt.nodes_emitted)
      << context;
  EXPECT_EQ(expected->stats.pdt.index_probes, actual->stats.pdt.index_probes)
      << context;
  EXPECT_EQ(expected->stats.pdt.pdt_bytes, actual->stats.pdt.pdt_bytes)
      << context;
}

const std::vector<std::vector<std::string>>& QueryKeywordSets() {
  static const auto* kSets = new std::vector<std::vector<std::string>>{
      {"xml", "search"}, {"database"}, {"web", "xml"}, {"queries"}};
  return *kSets;
}

std::vector<service::BatchQuery> MakeQueryBatch(const std::string& view) {
  std::vector<service::BatchQuery> batch;
  for (size_t i = 0; i < QueryKeywordSets().size(); ++i) {
    service::BatchQuery query;
    query.view = view;
    query.keywords = QueryKeywordSets()[i];
    query.options.top_k = 5;
    query.options.conjunctive = i % 2 == 0;
    batch.push_back(std::move(query));
  }
  return batch;
}

std::string TestPath(const std::string& leaf) {
  return (std::filesystem::path(::testing::TempDir()) / leaf).string();
}

// ---------------------------------------------------------------------------
// The randomized differential harness
// ---------------------------------------------------------------------------

constexpr int kMutationSteps = 240;

TEST(UpdateDifferentialTest, RandomizedUpdatesMatchFreshRebuild) {
  std::mt19937_64 rng(20260727);
  auto pick_term = [&rng] { return kTerms[rng() % 8]; };

  CorpusModel model;
  for (int i = 0; i < 8; ++i) {
    model.books.push_back(Book{i,
                               std::string(pick_term()) + " " + pick_term() +
                                   " in practice",
                               1990 + static_cast<int>(rng() % 16)});
    model.reviews.push_back(
        Review{i, std::string("about ") + pick_term() + " and " +
                      pick_term() + ", easy to read"});
  }
  int next_book_id = 8;
  int next_aux_id = 0;

  storage::LiveDatabase live;
  // Every mutation step below goes through the durable WAL path: the
  // service routes InsertDocument/RemoveDocument through
  // CommitInsert/CommitRemove, which group-commit to this log before
  // applying. The cold replay at the end proves the log alone rebuilds
  // the final corpus.
  const std::string wal_path = TestPath("update_differential.wal");
  std::filesystem::remove(wal_path);
  ASSERT_TRUE(live.OpenWal(wal_path).ok());
  service::QueryServiceOptions options;
  options.threads = 2;
  service::QueryService service(&live, options);
  for (const auto& [name, text] : model.Documents()) {
    ASSERT_TRUE(service.InsertDocument(name, text).ok()) << name;
  }
  ASSERT_TRUE(
      service.RegisterView("bookrev", workload::BookRevView()).ok());
  const std::string books_only_view =
      "for $b in fn:doc(books.xml)/books//book return $b";
  ASSERT_TRUE(service.RegisterView("allbooks", books_only_view).ok());

  int mutations = 0;
  for (int step = 0; step < kMutationSteps; ++step) {
    // --- one random mutation, applied to the model and the live db ------
    const std::string context = "step " + std::to_string(step);
    switch (rng() % 6) {
      case 0: {  // grow books.xml (replacement under the same name)
        model.books.push_back(Book{next_book_id++,
                                   std::string(pick_term()) + " " +
                                       pick_term() + " in practice",
                                   1990 + static_cast<int>(rng() % 16)});
        ASSERT_TRUE(
            service.InsertDocument("books.xml", BooksXml(model.books)).ok())
            << context;
        break;
      }
      case 1: {  // add (or resurrect) a review
        int target = model.books.empty()
                         ? 0
                         : model.books[rng() % model.books.size()].id;
        model.reviews.push_back(
            Review{target, std::string("about ") + pick_term() + " and " +
                               pick_term() + ", easy to read"});
        model.reviews_doc_present = true;
        ASSERT_TRUE(service
                        .InsertDocument("reviews.xml",
                                        ReviewsXml(model.reviews))
                        .ok())
            << context;
        break;
      }
      case 2: {  // shrink books.xml
        if (model.books.size() > 1) {
          model.books.erase(model.books.begin() +
                            static_cast<long>(rng() % model.books.size()));
        }
        ASSERT_TRUE(
            service.InsertDocument("books.xml", BooksXml(model.books)).ok())
            << context;
        break;
      }
      case 3: {  // insert or replace an unrelated aux document
        std::string name =
            "aux" + std::to_string(rng() % 4) + ".xml";
        std::string text = std::string("<notes><note>") + pick_term() +
                           " scratch " + std::to_string(next_aux_id++) +
                           "</note></notes>";
        model.aux_docs[name] = text;
        ASSERT_TRUE(service.InsertDocument(name, text).ok()) << context;
        break;
      }
      case 4: {  // remove an aux document (NotFound when none is live)
        if (model.aux_docs.empty()) {
          EXPECT_EQ(service.RemoveDocument("aux-gone.xml").code(),
                    StatusCode::kNotFound)
              << context;
          continue;  // nothing changed; skip the (identical) re-check
        }
        auto it = model.aux_docs.begin();
        std::advance(it, static_cast<long>(rng() % model.aux_docs.size()));
        std::string name = it->first;
        model.aux_docs.erase(it);
        ASSERT_TRUE(service.RemoveDocument(name).ok()) << context;
        break;
      }
      case 5: {  // drop reviews.xml entirely: bookrev queries must fail
                 // identically on both sides until a review re-adds it
        if (!model.reviews_doc_present) continue;
        model.reviews_doc_present = false;
        model.reviews.clear();
        ASSERT_TRUE(service.RemoveDocument("reviews.xml").ok()) << context;
        break;
      }
    }
    ++mutations;

    // --- differential check against a from-scratch rebuild --------------
    RebuiltEngine fresh(model);
    // Direct index access outside the service: read a pinned version,
    // as any reader of a LiveDatabase does.
    ExpectSameIndexState(live.Pin()->indexes, *fresh.indexes, context);

    std::vector<service::BatchQuery> batch = MakeQueryBatch("bookrev");
    std::vector<Result<engine::SearchResponse>> responses =
        service.SearchBatch(batch);
    ASSERT_EQ(responses.size(), batch.size());
    for (size_t i = 0; i < batch.size(); ++i) {
      engine::SearchRequest oracle;
      oracle.view = workload::BookRevView();
      oracle.keywords = batch[i].keywords;
      oracle.options = batch[i].options;
      Result<engine::SearchResponse> expected = fresh.engine->Execute(oracle);
      ExpectSameResponse(expected, responses[i],
                         context + " query " + std::to_string(i));
    }
    if (HasFatalFailure() || HasNonfatalFailure()) {
      FAIL() << "differential divergence at " << context;
    }
  }
  EXPECT_GE(mutations, 200);
  EXPECT_GE(service.stats().documents_inserted, 100u);
  EXPECT_GE(service.stats().documents_removed, 10u);
  // Every acknowledged mutation is in the WAL, fdatasync'd before its
  // ack. A cold replay must rebuild exactly the final corpus.
  EXPECT_GE(live.wal()->appended_records(),
            service.stats().documents_inserted);
  storage::LiveDatabase recovered;
  ASSERT_TRUE(recovered.OpenWal(wal_path).ok());
  RebuiltEngine final_oracle(model);
  ExpectSameIndexState(recovered.Pin()->indexes, *final_oracle.indexes,
                       "cold WAL replay");
}

TEST(UpdateDifferentialTest, MutationInvalidatesOnlyReferencingViews) {
  storage::LiveDatabase live;
  service::QueryServiceOptions options;
  options.threads = 1;
  service::QueryService service(&live, options);
  CorpusModel model;
  model.books.push_back(Book{0, "xml search in practice", 2000});
  model.reviews.push_back(Review{0, "about xml and search, easy to read"});
  for (const auto& [name, text] : model.Documents()) {
    ASSERT_TRUE(service.InsertDocument(name, text).ok());
  }
  ASSERT_TRUE(service.RegisterView("bookrev", workload::BookRevView()).ok());
  ASSERT_TRUE(service
                  .RegisterView("allbooks",
                                "for $b in fn:doc(books.xml)/books//book "
                                "return $b")
                  .ok());
  service::BatchQuery books_query{"allbooks", {"xml"},
                                  engine::SearchOptions{}};
  service::BatchQuery rev_query{"bookrev", {"xml"}, engine::SearchOptions{}};
  // Two sightings each: the cache admits a plan on its second.
  ASSERT_TRUE(service.SearchOne(books_query).ok());
  ASSERT_TRUE(service.SearchOne(rev_query).ok());
  ASSERT_TRUE(service.SearchOne(books_query).ok());
  ASSERT_TRUE(service.SearchOne(rev_query).ok());
  uint64_t misses = service.stats().cache.misses;

  // reviews.xml is not read by "allbooks": its cached PDTs must survive
  // the mutation, while "bookrev"'s are invalidated.
  model.reviews.push_back(Review{0, "about web and database, easy to read"});
  ASSERT_TRUE(
      service.InsertDocument("reviews.xml", ReviewsXml(model.reviews)).ok());
  ASSERT_TRUE(service.SearchOne(books_query).ok());
  EXPECT_EQ(service.stats().cache.misses, misses);  // hit: still valid
  ASSERT_TRUE(service.SearchOne(rev_query).ok());
  EXPECT_EQ(service.stats().cache.misses, misses + 1);  // rebuilt

  // And a books.xml mutation invalidates both views.
  model.books.push_back(Book{1, "database systems in practice", 1999});
  ASSERT_TRUE(
      service.InsertDocument("books.xml", BooksXml(model.books)).ok());
  ASSERT_TRUE(service.SearchOne(books_query).ok());
  ASSERT_TRUE(service.SearchOne(rev_query).ok());
  EXPECT_EQ(service.stats().cache.misses, misses + 3);
}

// The view's keyword-free PDT skeleton is keyed by the same versions as
// its bundles: a write to a document the view reads makes the
// next query rebuild it from the new state, and a write to any other
// document leaves it in place.
TEST(UpdateDifferentialTest, WriteInvalidatesOnlyTheReadViewsSkeleton) {
  storage::LiveDatabase live;
  service::QueryServiceOptions options;
  options.threads = 1;
  service::QueryService service(&live, options);
  CorpusModel model;
  model.books.push_back(Book{0, "xml search in practice", 2000});
  model.books.push_back(Book{1, "web database systems", 2003});
  model.reviews.push_back(Review{0, "about xml and search, easy to read"});
  model.aux_docs["notes.xml"] = "<notes><note>xml web</note></notes>";
  for (const auto& [name, text] : model.Documents()) {
    ASSERT_TRUE(service.InsertDocument(name, text).ok());
  }
  ASSERT_TRUE(service.RegisterView("bookrev", workload::BookRevView()).ok());

  // Each query uses a keyword set not seen before, so it misses the
  // bundle level and goes to the skeleton; its answer must equal a fresh
  // engine's over the model.
  int query_number = 0;
  auto query_and_check = [&](const std::string& context) {
    const std::vector<std::string>& keywords =
        QueryKeywordSets()[static_cast<size_t>(query_number) %
                           QueryKeywordSets().size()];
    service::BatchQuery query{"bookrev", keywords, engine::SearchOptions{}};
    query.options.conjunctive = (query_number / 4) % 2 == 0;
    ++query_number;
    RebuiltEngine rebuilt(model);
    engine::SearchRequest request;
    request.view = workload::BookRevView();
    request.keywords = query.keywords;
    request.options = query.options;
    ExpectSameResponse(rebuilt.engine->Execute(request),
                       service.SearchOne(query), context);
  };
  query_and_check("first sighting");
  query_and_check("second sighting");  // admits the skeleton
  query_and_check("skeleton hit");
  service::PreparedQueryCache::Stats cache = service.stats().cache;
  EXPECT_EQ(cache.skeleton_misses, 2u);
  EXPECT_EQ(cache.skeleton_insertions, 1u);
  EXPECT_EQ(cache.skeleton_hits, 1u);

  // notes.xml is not read by the view: the skeleton stays.
  ASSERT_TRUE(service
                  .InsertDocument("notes.xml",
                                  "<notes><note>search database</note></notes>")
                  .ok());
  model.aux_docs["notes.xml"] = "<notes><note>search database</note></notes>";
  query_and_check("after an unrelated write");
  cache = service.stats().cache;
  EXPECT_EQ(cache.skeleton_misses, 2u);
  EXPECT_EQ(cache.skeleton_hits, 2u);

  // reviews.xml is: the next query misses the skeleton and answers from
  // the new state (book 1 gains an "xml" review, so a stale skeleton
  // would answer differently); the rebuilt skeleton, sighted before, is
  // admitted.
  model.reviews.push_back(Review{1, "about xml and web, easy to read"});
  ASSERT_TRUE(
      service.InsertDocument("reviews.xml", ReviewsXml(model.reviews)).ok());
  query_and_check("after a write to reviews.xml");
  cache = service.stats().cache;
  EXPECT_EQ(cache.skeleton_misses, 3u);
  EXPECT_EQ(cache.skeleton_insertions, 2u);
  query_and_check("rebuilt skeleton hit");
  EXPECT_EQ(service.stats().cache.skeleton_hits, 3u);
}

TEST(UpdateDifferentialTest, CursorOpenedBeforeUpdateDrainsItsSnapshot) {
  storage::LiveDatabase live;
  service::QueryService service(&live, service::QueryServiceOptions{});
  CorpusModel model;
  for (int i = 0; i < 6; ++i) {
    model.books.push_back(Book{i, "xml search in practice", 2000});
    model.reviews.push_back(Review{i, "about xml and search, easy to read"});
  }
  for (const auto& [name, text] : model.Documents()) {
    ASSERT_TRUE(service.InsertDocument(name, text).ok());
  }
  ASSERT_TRUE(service.RegisterView("bookrev", workload::BookRevView()).ok());

  service::BatchQuery query{"bookrev", {"xml", "search"},
                            engine::SearchOptions{}};
  query.options.top_k = 100;
  // Capture the pre-update truth, then open a second cursor and update
  // under it: the half-drained cursor must keep materializing the old
  // corpus (its pinned corpus version), even though the documents it
  // reads were replaced and removed from the live database.
  auto expected = service.SearchOne(query);
  ASSERT_TRUE(expected.ok());
  ASSERT_GE(expected->hits.size(), 4u);

  auto cursor = service.OpenSearch(query);
  ASSERT_TRUE(cursor.ok()) << cursor.status().ToString();
  auto first = (*cursor)->FetchNext(2);
  ASSERT_TRUE(first.ok());

  ASSERT_TRUE(service.RemoveDocument("reviews.xml").ok());
  model.books.clear();
  model.books.push_back(Book{99, "systems queries in practice", 1991});
  ASSERT_TRUE(
      service.InsertDocument("books.xml", BooksXml(model.books)).ok());

  auto rest = (*cursor)->FetchNext((*cursor)->pending());
  ASSERT_TRUE(rest.ok()) << rest.status().ToString();
  std::vector<engine::SearchHit> drained = std::move(*first);
  for (engine::SearchHit& hit : *rest) drained.push_back(std::move(hit));
  ASSERT_EQ(drained.size(), expected->hits.size());
  for (size_t i = 0; i < drained.size(); ++i) {
    EXPECT_EQ(drained[i].xml, expected->hits[i].xml) << "hit " << i;
    EXPECT_EQ(drained[i].score, expected->hits[i].score) << "hit " << i;
  }

  // A cursor opened now sees the new corpus: reviews.xml is gone.
  auto after = service.SearchOne(query);
  ASSERT_FALSE(after.ok());
  EXPECT_EQ(after.status().code(), StatusCode::kNotFound);
}

// ---------------------------------------------------------------------------
// Packed database: delta overlay + compaction parity
// ---------------------------------------------------------------------------

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(static_cast<bool>(in)) << path;
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

TEST(UpdateDeltaLogTest, OverlayAndCompactMatchDirectPack) {
  std::mt19937_64 rng(4242);
  auto pick_term = [&rng] { return kTerms[rng() % 8]; };

  CorpusModel model;
  for (int i = 0; i < 10; ++i) {
    model.books.push_back(Book{i,
                               std::string(pick_term()) + " " + pick_term() +
                                   " in practice",
                               1990 + static_cast<int>(rng() % 16)});
    model.reviews.push_back(
        Review{i, std::string("about ") + pick_term() + " and " +
                      pick_term() + ", easy to read"});
  }

  // Pack the base corpus.
  const std::string base_pack = TestPath("update_delta_base.qvpack");
  std::filesystem::remove(base_pack);
  std::filesystem::remove(pagestore::DeltaLogPath(base_pack));
  {
    std::shared_ptr<xml::Database> db = BuildFromCorpus(model.Documents());
    auto indexes = index::BuildDatabaseIndexes(*db);
    ASSERT_TRUE(pagestore::PackDatabase(*db, *indexes, base_pack).ok());
  }

  // Mutate through the delta log: replace books.xml and reviews.xml,
  // insert aux documents, tombstone one of them again.
  int next_book_id = 10;
  for (int step = 0; step < 12; ++step) {
    switch (rng() % 3) {
      case 0:
        model.books.push_back(Book{next_book_id++,
                                   std::string(pick_term()) + " " +
                                       pick_term() + " in practice",
                                   1990 + static_cast<int>(rng() % 16)});
        ASSERT_TRUE(pagestore::PackAppend(base_pack, "books.xml",
                                          BooksXml(model.books))
                        .ok());
        break;
      case 1:
        model.reviews.push_back(
            Review{static_cast<int>(rng() % 10),
                   std::string("about ") + pick_term() + " and " +
                       pick_term() + ", easy to read"});
        ASSERT_TRUE(pagestore::PackAppend(base_pack, "reviews.xml",
                                          ReviewsXml(model.reviews))
                        .ok());
        break;
      case 2: {
        std::string name = "aux" + std::to_string(rng() % 3) + ".xml";
        if (model.aux_docs.count(name) != 0 && rng() % 2 == 0) {
          model.aux_docs.erase(name);
          ASSERT_TRUE(pagestore::PackTombstone(base_pack, name).ok());
        } else {
          std::string text = std::string("<notes><note>") + pick_term() +
                             " scratch</note></notes>";
          model.aux_docs[name] = text;
          ASSERT_TRUE(pagestore::PackAppend(base_pack, name, text).ok());
        }
        break;
      }
    }
  }

  // (1) The overlaid pack answers queries byte-identically to an
  // in-memory engine over the folded corpus.
  auto packed = storage::ShardSet::FromPack(base_pack);
  ASSERT_TRUE(packed.ok()) << packed.status().ToString();
  EXPECT_GE(packed->shard(0).packed->delta_stats().inserts, 1u);
  service::QueryService packed_service(&*packed);
  ASSERT_TRUE(
      packed_service.RegisterView("bookrev", workload::BookRevView()).ok());

  RebuiltEngine fresh(model);
  std::vector<service::BatchQuery> batch = MakeQueryBatch("bookrev");
  std::vector<Result<engine::SearchResponse>> responses =
      packed_service.SearchBatch(batch);
  for (size_t i = 0; i < batch.size(); ++i) {
    engine::SearchRequest oracle;
    oracle.view = workload::BookRevView();
    oracle.keywords = batch[i].keywords;
    oracle.options = batch[i].options;
    Result<engine::SearchResponse> expected = fresh.engine->Execute(oracle);
    // pages_read/buffer_hits legitimately differ (the packed side reads
    // disk); everything ExpectSameResponse checks must not.
    ExpectSameResponse(expected, responses[i],
                       "delta overlay query " + std::to_string(i));
  }

  // (2) compact output == a direct pack of the final corpus, byte for
  // byte.
  const std::string compacted = TestPath("update_delta_compacted.qvpack");
  const std::string direct = TestPath("update_delta_direct.qvpack");
  std::filesystem::remove(compacted);
  std::filesystem::remove(direct);
  ASSERT_TRUE(pagestore::CompactPack(base_pack, compacted).ok());
  {
    std::shared_ptr<xml::Database> db = BuildFromCorpus(model.Documents());
    auto indexes = index::BuildDatabaseIndexes(*db);
    ASSERT_TRUE(pagestore::PackDatabase(*db, *indexes, direct).ok());
  }
  EXPECT_EQ(ReadFileBytes(compacted), ReadFileBytes(direct))
      << "compacted pack must be byte-identical to a direct pack";

  // (3) Reopening the compacted pack (no delta log) serves the same
  // responses again.
  auto reopened = storage::ShardSet::FromPack(compacted);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ(reopened->shard(0).packed->delta_stats().inserts, 0u);
  service::QueryService reopened_service(&*reopened);
  ASSERT_TRUE(
      reopened_service.RegisterView("bookrev", workload::BookRevView())
          .ok());
  std::vector<Result<engine::SearchResponse>> reopened_responses =
      reopened_service.SearchBatch(batch);
  for (size_t i = 0; i < batch.size(); ++i) {
    engine::SearchRequest oracle;
    oracle.view = workload::BookRevView();
    oracle.keywords = batch[i].keywords;
    oracle.options = batch[i].options;
    Result<engine::SearchResponse> expected = fresh.engine->Execute(oracle);
    ExpectSameResponse(expected, reopened_responses[i],
                       "compacted query " + std::to_string(i));
  }
}

TEST(UpdateDeltaLogTest, MidLogCorruptionFailsOpenLoudly) {
  CorpusModel model;
  model.books.push_back(Book{0, "xml search in practice", 2000});
  const std::string pack = TestPath("update_delta_corrupt.qvpack");
  std::filesystem::remove(pack);
  std::filesystem::remove(pagestore::DeltaLogPath(pack));
  {
    std::shared_ptr<xml::Database> db = BuildFromCorpus(model.Documents());
    auto indexes = index::BuildDatabaseIndexes(*db);
    ASSERT_TRUE(pagestore::PackDatabase(*db, *indexes, pack).ok());
  }
  ASSERT_TRUE(pagestore::PackAppend(pack, "aux.xml",
                                    "<notes><note>x</note></notes>")
                  .ok());
  ASSERT_TRUE(pagestore::PackAppend(pack, "aux2.xml",
                                    "<notes><note>y</note></notes>")
                  .ok());
  // Flip a byte in the FIRST record's payload (offset 20 = its first
  // payload byte, after 8 magic + 12 frame header). Corruption with
  // bytes following is never a torn tail: open must refuse, loudly,
  // rather than silently drop an acknowledged commit and its successors.
  {
    std::fstream log(pagestore::DeltaLogPath(pack),
                     std::ios::binary | std::ios::in | std::ios::out);
    log.seekp(20, std::ios::beg);
    log.put('Z');
  }
  auto opened = pagestore::PackedDb::Open(pack);
  ASSERT_FALSE(opened.ok());
  EXPECT_EQ(opened.status().code(), StatusCode::kParseError);

  // An append rejected at the boundary leaves the log unchanged.
  EXPECT_EQ(pagestore::PackAppend(pack, "bad.xml", "<unclosed>").code(),
            StatusCode::kParseError);
}

TEST(UpdateDeltaLogTest, CorruptFinalRecordRecoversCommittedPrefix) {
  CorpusModel model;
  model.books.push_back(Book{0, "xml search in practice", 2000});
  const std::string pack = TestPath("update_delta_tail.qvpack");
  std::filesystem::remove(pack);
  std::filesystem::remove(pagestore::DeltaLogPath(pack));
  {
    std::shared_ptr<xml::Database> db = BuildFromCorpus(model.Documents());
    auto indexes = index::BuildDatabaseIndexes(*db);
    ASSERT_TRUE(pagestore::PackDatabase(*db, *indexes, pack).ok());
  }
  ASSERT_TRUE(pagestore::PackAppend(pack, "aux.xml",
                                    "<notes><note>x</note></notes>")
                  .ok());
  ASSERT_TRUE(pagestore::PackAppend(pack, "aux2.xml",
                                    "<notes><note>y</note></notes>")
                  .ok());
  // Damage the FINAL record (flip its last byte — part of the frame
  // checksum). With nothing after it this is indistinguishable from a
  // torn append: open recovers the committed prefix instead of bricking
  // the pack.
  {
    auto size = std::filesystem::file_size(pagestore::DeltaLogPath(pack));
    std::fstream log(pagestore::DeltaLogPath(pack),
                     std::ios::binary | std::ios::in | std::ios::out);
    log.seekg(static_cast<std::streamoff>(size) - 1, std::ios::beg);
    char last = static_cast<char>(log.get());
    log.seekp(static_cast<std::streamoff>(size) - 1, std::ios::beg);
    log.put(static_cast<char>(last ^ 0x40));
  }
  auto opened = pagestore::PackedDb::Open(pack);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  EXPECT_EQ((*opened)->delta_stats().inserts, 1u);

  // The next append heals the log for real: the torn tail is truncated
  // on the write path and the new record committed after the survivor.
  ASSERT_TRUE(pagestore::PackAppend(pack, "aux3.xml",
                                    "<notes><note>z</note></notes>")
                  .ok());
  auto healed = pagestore::PackedDb::Open(pack);
  ASSERT_TRUE(healed.ok()) << healed.status().ToString();
  EXPECT_EQ((*healed)->delta_stats().inserts, 2u);
}

TEST(UpdateDeltaLogTest, ZeroByteLogHealsOnNextAppend) {
  // A crash between the creating open and the first write leaves an
  // empty .delta; the next append must write the magic header (not
  // assume an existing file already has one) so the log stays openable.
  CorpusModel model;
  model.books.push_back(Book{0, "xml search in practice", 2000});
  const std::string pack = TestPath("update_delta_empty.qvpack");
  std::filesystem::remove(pack);
  std::filesystem::remove(pagestore::DeltaLogPath(pack));
  {
    std::shared_ptr<xml::Database> db = BuildFromCorpus(model.Documents());
    auto indexes = index::BuildDatabaseIndexes(*db);
    ASSERT_TRUE(pagestore::PackDatabase(*db, *indexes, pack).ok());
  }
  { std::ofstream touch(pagestore::DeltaLogPath(pack)); }
  ASSERT_TRUE(pagestore::PackAppend(pack, "aux.xml",
                                    "<notes><note>x</note></notes>")
                  .ok());
  auto opened = pagestore::PackedDb::Open(pack);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  EXPECT_EQ((*opened)->delta_stats().inserts, 1u);
}

}  // namespace
}  // namespace quickview
