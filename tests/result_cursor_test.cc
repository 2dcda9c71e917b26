// ResultCursor semantics: paged fetches must equal one big fetch,
// Execute(SearchRequest) must stay byte-identical to the pre-cursor
// batch pipeline (reconstructed inline below), and materialization must
// be lazy — store fetches accrue with FetchNext, never up front. Runs
// under the Sanitize CI leg (the cursor pins PDTs and the evaluator
// arena across calls; lifetime bugs here are memory bugs).
#include "engine/result_cursor.h"

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "engine/view_search_engine.h"
#include "index/index_builder.h"
#include "pdt/generate_pdt.h"
#include "scoring/materializer.h"
#include "scoring/scorer.h"
#include "storage/document_store.h"
#include "workload/bookrev_generator.h"
#include "xquery/evaluator.h"

namespace quickview::engine {
namespace {

class ResultCursorTest : public ::testing::Test {
 protected:
  void SetUp() override { Rebuild(workload::BookRevOptions{}); }

  void Rebuild(const workload::BookRevOptions& opts) {
    db_ = workload::GenerateBookRevDatabase(opts);
    indexes_ = index::BuildDatabaseIndexes(*db_);
    store_ = std::make_unique<storage::DocumentStore>(*db_);
    engine_ = std::make_unique<ViewSearchEngine>(db_.get(), indexes_.get(),
                                                 store_.get());
  }

  /// Plans the view-form request for `keywords` and builds its PDTs;
  /// OpenPrepared then opens that request over them.
  Result<std::shared_ptr<const PreparedQuery>> Prepare(
      const std::vector<std::string>& keywords, bool conjunctive) {
    request_ = SearchRequest{};
    request_.view = workload::BookRevView();
    request_.keywords = keywords;
    request_.options.conjunctive = conjunctive;
    auto plan = engine_->PlanQuery(ComposeKeywordQuery(
        workload::BookRevView(), keywords, conjunctive));
    if (!plan.ok()) return plan.status();
    return engine_->BuildPdts(std::move(*plan));
  }

  Result<std::unique_ptr<ResultCursor>> OpenPrepared(
      std::shared_ptr<const PreparedQuery> prepared,
      const SearchOptions& options) {
    SearchRequest request = request_;
    request.options.top_k = options.top_k;
    return engine_->Open(request, {std::move(prepared)});
  }

  static void ExpectSameHits(const std::vector<SearchHit>& expected,
                             const std::vector<SearchHit>& actual) {
    ASSERT_EQ(expected.size(), actual.size());
    for (size_t i = 0; i < expected.size(); ++i) {
      // The materializer reserves byte_length and writes the XML once.
      EXPECT_EQ(expected[i].xml.size(), expected[i].byte_length)
          << "hit " << i;
      EXPECT_EQ(actual[i].xml.size(), actual[i].byte_length) << "hit " << i;
      EXPECT_EQ(expected[i].xml, actual[i].xml) << "hit " << i;
      EXPECT_EQ(expected[i].score, actual[i].score) << "hit " << i;
      EXPECT_EQ(expected[i].tf, actual[i].tf) << "hit " << i;
      EXPECT_EQ(expected[i].byte_length, actual[i].byte_length)
          << "hit " << i;
    }
  }

  std::shared_ptr<xml::Database> db_;
  std::unique_ptr<index::DatabaseIndexes> indexes_;
  std::unique_ptr<storage::DocumentStore> store_;
  std::unique_ptr<ViewSearchEngine> engine_;
  SearchRequest request_;  // the request the last Prepare planned
};

TEST_F(ResultCursorTest, PagedFetchesEqualOneBigFetch) {
  auto prepared = Prepare({"xml", "search"}, /*conjunctive=*/false);
  ASSERT_TRUE(prepared.ok()) << prepared.status();
  SearchOptions options;
  options.top_k = 10;

  auto whole = OpenPrepared(*prepared, options);
  ASSERT_TRUE(whole.ok()) << whole.status();
  auto all = (*whole)->FetchNext(10);
  ASSERT_TRUE(all.ok()) << all.status();
  ASSERT_FALSE(all->empty());

  auto paged = OpenPrepared(*prepared, options);
  ASSERT_TRUE(paged.ok()) << paged.status();
  std::vector<SearchHit> collected;
  while (!(*paged)->Done()) {
    auto page = (*paged)->FetchNext(3);
    ASSERT_TRUE(page.ok()) << page.status();
    ASSERT_FALSE(page->empty()) << "Done() false but page empty";
    EXPECT_LE(page->size(), 3u);
    for (SearchHit& hit : *page) collected.push_back(std::move(hit));
  }
  ExpectSameHits(*all, collected);
  EXPECT_EQ((*whole)->fetched(), (*paged)->fetched());
  EXPECT_EQ((*whole)->stats().search.store_fetches,
            (*paged)->stats().search.store_fetches);
  EXPECT_EQ((*whole)->stats().search.store_bytes, (*paged)->stats().search.store_bytes);
}

// The pre-cursor ExecutePrepared pipeline, reconstructed from its public
// pieces: evaluate -> ScoreResults (full sort) -> TakeTopK -> materialize
// every kept hit. Execute must reproduce it byte for byte.
TEST_F(ResultCursorTest, ExecuteByteIdenticalToBatchPipeline) {
  const std::vector<std::string> keywords{"xml", "search"};
  auto planned = engine_->PlanQuery(ComposeKeywordQuery(
      workload::BookRevView(), keywords, /*conjunctive=*/true));
  ASSERT_TRUE(planned.ok()) << planned.status();
  const QueryPlan& plan = *planned;

  // The PDTs built with the keywords, whose 'c' nodes carry their tf.
  xquery::Evaluator evaluator(db_.get());
  std::vector<std::shared_ptr<xml::Document>> pdts;
  for (const qpt::Qpt& q : plan.qpts) {
    auto pdt =
        pdt::GeneratePdt(q, *indexes_->Get(q.source_doc), plan.kq.keywords);
    ASSERT_TRUE(pdt.ok()) << pdt.status();
    pdts.push_back(std::move(*pdt));
    evaluator.OverrideDocument(q.occurrence_name, pdts.back().get());
  }
  auto view_results = evaluator.Evaluate(plan.kq.view);
  ASSERT_TRUE(view_results.ok()) << view_results.status();
  scoring::ScoringOutcome outcome = scoring::ScoreResults(
      *view_results, plan.kq.keywords, plan.kq.conjunctive);
  scoring::TakeTopK(&outcome.ranked, 5);
  std::vector<SearchHit> reference;
  storage::DocumentStore::Stats fetches;
  for (const scoring::ScoredResult& r : outcome.ranked) {
    SearchHit hit;
    hit.score = r.score;
    hit.tf = r.tf;
    hit.byte_length = r.byte_length;
    auto xml = scoring::MaterializeToXml(r.result, store_.get(), &fetches);
    ASSERT_TRUE(xml.ok()) << xml.status();
    hit.xml = std::move(*xml);
    reference.push_back(std::move(hit));
  }
  ASSERT_FALSE(reference.empty());

  SearchOptions options;
  options.top_k = 5;
  SearchRequest request;
  request.view = workload::BookRevView();
  request.keywords = keywords;
  request.options = options;
  auto wrapped = engine_->Execute(request);
  ASSERT_TRUE(wrapped.ok()) << wrapped.status();
  ExpectSameHits(reference, wrapped->hits);
  EXPECT_EQ(wrapped->stats.store_fetches, fetches.fetch_calls);
  EXPECT_EQ(wrapped->stats.store_bytes, fetches.bytes_fetched);
}

// The acceptance criterion: with >= 100 matches, fetching 10 touches
// base data strictly less than draining everything — unfetched hits cost
// zero store fetches.
TEST_F(ResultCursorTest, FetchTenMaterializesLessThanDrain) {
  workload::BookRevOptions big;
  big.num_books = 400;
  Rebuild(big);
  const std::vector<std::string> keywords{"xml", "search", "web",
                                          "database"};
  auto prepared = Prepare(keywords, /*conjunctive=*/false);
  ASSERT_TRUE(prepared.ok()) << prepared.status();
  SearchOptions options;
  options.top_k = 1u << 20;  // stream everything the query matches

  auto first_page = OpenPrepared(*prepared, options);
  ASSERT_TRUE(first_page.ok()) << first_page.status();
  ASSERT_GE((*first_page)->stats().search.matching_results, 100u);
  EXPECT_EQ((*first_page)->stats().search.store_fetches, 0u)
      << "opening a cursor must not touch base data";
  auto ten = (*first_page)->FetchNext(10);
  ASSERT_TRUE(ten.ok()) << ten.status();
  ASSERT_EQ(ten->size(), 10u);
  uint64_t ten_fetches = (*first_page)->stats().search.store_fetches;
  EXPECT_GT(ten_fetches, 0u);

  auto drained = OpenPrepared(*prepared, options);
  ASSERT_TRUE(drained.ok()) << drained.status();
  auto everything = (*drained)->FetchNext((*drained)->pending());
  ASSERT_TRUE(everything.ok()) << everything.status();
  EXPECT_EQ(everything->size(), (*drained)->stats().search.matching_results);
  EXPECT_LT(ten_fetches, (*drained)->stats().search.store_fetches);

  // And the first ten of the drain are the ten the page returned.
  everything->resize(10);
  ExpectSameHits(*everything, *ten);
}

TEST_F(ResultCursorTest, ExhaustedCursorStaysExhausted) {
  auto prepared = Prepare({"xml"}, /*conjunctive=*/true);
  ASSERT_TRUE(prepared.ok()) << prepared.status();
  SearchOptions options;
  options.top_k = 1u << 20;
  auto cursor = OpenPrepared(*prepared, options);
  ASSERT_TRUE(cursor.ok()) << cursor.status();

  auto all = (*cursor)->FetchNext((*cursor)->pending());
  ASSERT_TRUE(all.ok()) << all.status();
  EXPECT_EQ(all->size(), (*cursor)->stats().search.matching_results);
  EXPECT_TRUE((*cursor)->Done());
  EXPECT_EQ((*cursor)->pending(), 0u);

  uint64_t fetches_before = (*cursor)->stats().search.store_fetches;
  auto empty = (*cursor)->FetchNext(10);
  ASSERT_TRUE(empty.ok()) << empty.status();
  EXPECT_TRUE(empty->empty());
  EXPECT_EQ((*cursor)->fetched(), all->size());
  EXPECT_EQ((*cursor)->stats().search.store_fetches, fetches_before);
}

TEST_F(ResultCursorTest, FetchZeroIsANoOp) {
  auto prepared = Prepare({"xml"}, /*conjunctive=*/true);
  ASSERT_TRUE(prepared.ok()) << prepared.status();
  auto cursor = OpenPrepared(*prepared, SearchOptions{});
  ASSERT_TRUE(cursor.ok()) << cursor.status();
  auto none = (*cursor)->FetchNext(0);
  ASSERT_TRUE(none.ok()) << none.status();
  EXPECT_TRUE(none->empty());
  EXPECT_EQ((*cursor)->fetched(), 0u);
  EXPECT_EQ((*cursor)->stats().search.store_fetches, 0u);
  EXPECT_FALSE((*cursor)->Done());
}

TEST_F(ResultCursorTest, TopKBudgetCapsTheStream) {
  auto prepared = Prepare({"database"}, /*conjunctive=*/true);
  ASSERT_TRUE(prepared.ok()) << prepared.status();
  SearchOptions options;
  options.top_k = 2;
  auto cursor = OpenPrepared(*prepared, options);
  ASSERT_TRUE(cursor.ok()) << cursor.status();
  ASSERT_GT((*cursor)->stats().search.matching_results, 2u);
  auto hits = (*cursor)->FetchNext(100);
  ASSERT_TRUE(hits.ok()) << hits.status();
  EXPECT_EQ(hits->size(), 2u);
  EXPECT_TRUE((*cursor)->Done());
}

TEST_F(ResultCursorTest, CursorOutlivesCallerReferences) {
  // The cursor must pin the PreparedQuery (PDTs) and the evaluator's
  // result arena on its own: drop every caller-side reference before the
  // first fetch and compare against Execute.
  const std::vector<std::string> keywords{"xml", "search"};
  SearchRequest request;
  request.view = workload::BookRevView();
  request.keywords = keywords;
  auto expected = engine_->Execute(request);
  ASSERT_TRUE(expected.ok()) << expected.status();

  auto prepared = Prepare(keywords, /*conjunctive=*/true);
  ASSERT_TRUE(prepared.ok()) << prepared.status();
  auto cursor = OpenPrepared(std::move(*prepared), SearchOptions{});
  ASSERT_TRUE(cursor.ok()) << cursor.status();
  // *prepared was moved into Open; no caller-side owner remains.
  auto hits = (*cursor)->FetchNext((*cursor)->pending());
  ASSERT_TRUE(hits.ok()) << hits.status();
  ExpectSameHits(expected->hits, *hits);
}

TEST_F(ResultCursorTest, TopKZeroIsInvalidArgument) {
  auto prepared = Prepare({"xml"}, /*conjunctive=*/true);
  ASSERT_TRUE(prepared.ok()) << prepared.status();
  SearchOptions options;
  options.top_k = 0;
  auto cursor = OpenPrepared(*prepared, options);
  ASSERT_FALSE(cursor.ok());
  EXPECT_EQ(cursor.status().code(), StatusCode::kInvalidArgument);

  SearchRequest request;
  request.view = workload::BookRevView();
  request.keywords = {"xml"};
  request.options = options;
  auto response = engine_->Execute(request);
  ASSERT_FALSE(response.ok());
  EXPECT_EQ(response.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(ResultCursorTest, EmptyKeywordListIsInvalidArgument) {
  SearchRequest request;
  request.view = workload::BookRevView();
  auto response = engine_->Execute(request);
  ASSERT_FALSE(response.ok());
  EXPECT_EQ(response.status().code(), StatusCode::kInvalidArgument);

  // A keyword query whose ftcontains() lists nothing parses, but
  // PlanQuery rejects it.
  auto plan = engine_->PlanQuery(
      "let $view := " + workload::BookRevView() +
      "\nfor $qv in $view\nwhere $qv ftcontains()\nreturn $qv");
  ASSERT_FALSE(plan.ok());
  EXPECT_EQ(plan.status().code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace quickview::engine
