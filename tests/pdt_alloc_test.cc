// Heap-allocation budget of PDT generation. This binary replaces the
// global operator new with a counting one, so it must stay its own test
// binary: every allocation the process makes is counted, and the
// assertions bracket only GeneratePdtFromLists (the merge over prepared
// lists plus PDT assembly), never PrepareLists.
//
// The budget pins the candidate tree's design: its nodes come from a
// per-tree pool that RemoveBottom refills with their vectors' capacity
// intact, parent-list buffers are recycled, and list values are borrowed
// from the PreparedLists until Emit copies them into the output. Once the
// tree has reached its peak size, an id costs no allocation of its own;
// what remains is the output records' values and the assembled document.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "engine/view_search_engine.h"
#include "index/index_builder.h"
#include "pdt/generate_pdt.h"
#include "pdt/prepare_lists.h"
#include "storage/document_store.h"
#include "workload/inex_generator.h"
#include "workload/view_factory.h"

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

struct Totals {
  uint64_t allocations = 0;
  uint64_t ids_processed = 0;
  uint64_t builds = 0;
};

// Cold PDT builds over a 1 MiB INEX corpus: the five BuildInexView views
// (0-4 joins, nesting 2) with every Table-1 tier keyword, alone and
// paired, disjunctive and conjunctive.
TEST(PdtAllocTest, ColdInexBuildsStayWithinBudgetPerId) {
  workload::InexOptions opts;
  opts.target_bytes = 1 << 20;
  std::shared_ptr<xml::Database> db = workload::GenerateInexDatabase(opts);
  std::unique_ptr<index::DatabaseIndexes> indexes =
      index::BuildDatabaseIndexes(*db);
  storage::DocumentStore store(*db);
  engine::ViewSearchEngine engine(db.get(), indexes.get(), &store);

  std::vector<std::vector<std::string>> keyword_sets;
  for (workload::KeywordTier tier :
       {workload::KeywordTier::kLow, workload::KeywordTier::kMedium,
        workload::KeywordTier::kHigh}) {
    std::vector<std::string> pair = workload::KeywordsForTier(tier);
    for (const std::string& term : pair) keyword_sets.push_back({term});
    keyword_sets.push_back(pair);
  }

  Totals totals;
  for (int joins = 0; joins <= 4; ++joins) {
    workload::ViewSpec spec;
    spec.num_joins = joins;
    spec.nesting_level = 2;
    const std::string view = workload::BuildInexView(spec);
    for (const std::vector<std::string>& keywords : keyword_sets) {
      for (bool conjunctive : {false, true}) {
        auto plan = engine.PlanQuery(
            engine::ComposeKeywordQuery(view, keywords, conjunctive));
        ASSERT_TRUE(plan.ok()) << plan.status();
        for (const qpt::Qpt& q : plan->qpts) {
          std::optional<index::DocumentIndexView> source =
              indexes->GetView(q.source_doc);
          ASSERT_TRUE(source.has_value()) << q.source_doc;
          auto lists = pdt::PrepareLists(q, *source, plan->kq.keywords);
          ASSERT_TRUE(lists.ok()) << lists.status();
          pdt::PdtBuildStats stats;
          const uint64_t before = Allocations();
          {
            auto doc = pdt::GeneratePdtFromLists(q, std::move(*lists), &stats);
            ASSERT_TRUE(doc.ok()) << doc.status();
          }
          totals.allocations += Allocations() - before;
          totals.ids_processed += stats.ids_processed;
          ++totals.builds;
        }
      }
    }
  }

  ASSERT_GT(totals.builds, 100u);
  ASSERT_GT(totals.ids_processed, 10000u);
  const double per_id = static_cast<double>(totals.allocations) /
                        static_cast<double>(totals.ids_processed);
  std::printf("%llu allocations for %llu processed ids over %llu builds "
              "(%.2f per id)\n",
              static_cast<unsigned long long>(totals.allocations),
              static_cast<unsigned long long>(totals.ids_processed),
              static_cast<unsigned long long>(totals.builds), per_id);
  EXPECT_LE(totals.allocations, 2 * totals.ids_processed)
      << totals.allocations << " allocations for " << totals.ids_processed
      << " processed ids over " << totals.builds << " builds (" << per_id
      << " per id)";
}

}  // namespace
}  // namespace quickview
