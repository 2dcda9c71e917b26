// Heap-allocation budget of the evaluator. This binary replaces the global
// operator new with a counting one, so it must stay its own test binary:
// every allocation the process makes is counted, and the assertions
// bracket only evaluation (plus candidate collection, which walks every
// view result once).
//
// The budget pins the evaluator's design: intermediate results are
// appended into reused scratch sequences, variables live on a binding
// stack that pops when a scope exits, constructed elements share the
// NodeStats of the PDT nodes they copy, and the scorer counts keywords in
// place. None of these allocate per step, so a view result costs a small
// constant number of allocations (its constructed nodes' child lists and
// its candidate's tf vector), whatever the corpus size.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <string>

#include "engine/view_search_engine.h"
#include "index/index_builder.h"
#include "pdt/generate_pdt.h"
#include "scoring/scorer.h"
#include "storage/document_store.h"
#include "workload/bookrev_generator.h"
#include "xml/parser.h"
#include "xquery/evaluator.h"
#include "xquery/parser.h"

// The replacements below pair malloc with free by design. Some GCC
// configurations (e.g. the Tsan build) cannot see that every operator new
// in this binary is the counting one and flag the free() calls.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

namespace {
std::atomic<uint64_t> g_allocations{0};

void* CountedAllocNoThrow(std::size_t size) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}

void* CountedAlloc(std::size_t size) {
  if (void* p = CountedAllocNoThrow(size)) return p;
  throw std::bad_alloc();
}
}  // namespace

// Every form a library path can allocate or free through, nothrow
// included: a nothrow new left to the runtime would be freed by the
// delete below, which ASan reports as an alloc-dealloc mismatch.
void* operator new(std::size_t size) { return CountedAlloc(size); }
void* operator new[](std::size_t size) { return CountedAlloc(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return CountedAllocNoThrow(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return CountedAllocNoThrow(size);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace quickview {
namespace {

uint64_t Allocations() {
  return g_allocations.load(std::memory_order_relaxed);
}

// The Fig-2 bookrev view evaluated over its PDTs, the way the engine runs
// a request whose PDTs are cached: evaluate, then collect every view
// result's keyword statistics.
TEST(EvaluatorAllocTest, BookRevViewOverPdtsStaysWithinBudgetPerResult) {
  workload::BookRevOptions opts;
  opts.num_books = 400;
  std::shared_ptr<xml::Database> db = workload::GenerateBookRevDatabase(opts);
  std::unique_ptr<index::DatabaseIndexes> indexes =
      index::BuildDatabaseIndexes(*db);
  storage::DocumentStore store(*db);
  engine::ViewSearchEngine engine(db.get(), indexes.get(), &store);
  auto plan = engine.PlanQuery(engine::ComposeKeywordQuery(
      workload::BookRevView(), {"xml", "search"}, /*conjunctive=*/false));
  ASSERT_TRUE(plan.ok()) << plan.status();
  const engine::QueryPlan& p = *plan;
  // The PDTs built with the keywords, whose 'c' nodes carry their tf.
  std::vector<std::shared_ptr<xml::Document>> pdts;
  for (const qpt::Qpt& q : p.qpts) {
    auto pdt = pdt::GeneratePdt(q, *indexes->Get(q.source_doc), p.kq.keywords);
    ASSERT_TRUE(pdt.ok()) << pdt.status();
    pdts.push_back(std::move(*pdt));
  }

  size_t view_results = 0;
  size_t candidates = 0;
  const uint64_t before = Allocations();
  {
    xquery::Evaluator evaluator(db.get());
    for (size_t i = 0; i < p.qpts.size(); ++i) {
      evaluator.OverrideDocument(p.qpts[i].occurrence_name, pdts[i].get());
    }
    auto results = evaluator.Evaluate(p.kq.view);
    ASSERT_TRUE(results.ok()) << results.status();
    auto set = scoring::CollectCandidates(*results, p.kq.keywords);
    ASSERT_TRUE(set.ok()) << set.status();
    view_results = results->size();
    candidates = set->candidates.size();
  }
  const uint64_t allocations = Allocations() - before;

  ASSERT_GT(view_results, 100u);
  EXPECT_EQ(candidates, view_results);
  EXPECT_LE(allocations, 12 * view_results)
      << allocations << " allocations for " << view_results
      << " view results";
}

// A FLWOR binding reuses its stack slot on every iteration and pops it on
// scope exit, so iterating a longer sequence only adds the logarithmic
// growth steps of the sequences that hold it.
TEST(EvaluatorAllocTest, ForBindingsDoNotAllocatePerIteration) {
  auto allocations_for = [](int length) -> uint64_t {
    std::string xml = "<s>";
    for (int i = 0; i < length; ++i) xml += "<i>" + std::to_string(i) + "</i>";
    xml += "</s>";
    auto doc = xml::ParseXml(xml, 1);
    EXPECT_TRUE(doc.ok()) << doc.status();
    if (!doc.ok()) return 0;
    xml::Database db;
    db.AddDocument("seq.xml", *doc);
    auto query = xquery::ParseQuery(
        "let $seq := fn:doc(seq.xml)/s/i for $x in $seq return $x");
    EXPECT_TRUE(query.ok()) << query.status();
    if (!query.ok()) return 0;
    const uint64_t before = Allocations();
    size_t size = 0;
    {
      xquery::Evaluator evaluator(&db);
      auto result = evaluator.Evaluate(*query);
      EXPECT_TRUE(result.ok()) << result.status();
      if (result.ok()) size = result->size();
    }
    EXPECT_EQ(size, static_cast<size_t>(length));
    return Allocations() - before;
  };
  const uint64_t small = allocations_for(1000);
  const uint64_t large = allocations_for(16000);
  // 16x the iterations is four more doublings of each growing sequence.
  EXPECT_LE(large, small + 20) << "1000 items: " << small
                               << " allocations, 16000 items: " << large;
}

}  // namespace
}  // namespace quickview
