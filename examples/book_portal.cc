// Information-integration scenario (paper §1, "Information Integration"):
// an aggregator exposes a virtual view joining a book service with a
// review service, compares the Efficient engine against the
// materialize-everything Baseline on the same queries, and verifies the
// ranked results agree (Theorem 4.1 live): it exits 1 when they do not.
#include <cstdio>

#include "baseline/naive_engine.h"
#include "engine/view_search_engine.h"
#include "index/index_builder.h"
#include "storage/document_store.h"
#include "workload/bookrev_generator.h"

int main() {
  using namespace quickview;

  workload::BookRevOptions gen;
  gen.num_books = 400;
  gen.max_reviews_per_book = 5;
  auto db = workload::GenerateBookRevDatabase(gen);
  auto indexes = index::BuildDatabaseIndexes(*db);
  storage::DocumentStore store(*db);

  engine::ViewSearchEngine efficient(db.get(), indexes.get(), &store);
  baseline::NaiveEngine naive(db.get());

  const std::string view = workload::BookRevView();
  const std::vector<std::vector<std::string>> queries = {
      {"xml", "search"}, {"database", "index"}, {"web", "read"}};

  bool all_agree = true;
  for (const auto& keywords : queries) {
    engine::SearchOptions options;
    options.top_k = 3;
    engine::SearchRequest request;
    request.view = view;
    request.keywords = keywords;
    request.options = options;
    auto eff = efficient.Execute(request);
    auto base = naive.SearchView(view, keywords, options);
    if (!eff.ok() || !base.ok()) {
      std::fprintf(stderr, "error: %s / %s\n",
                   eff.status().ToString().c_str(),
                   base.status().ToString().c_str());
      return 1;
    }
    std::string label;
    for (const std::string& k : keywords) label += k + " ";
    std::printf("query [%s]  matches=%zu  efficient=%.2fms  baseline=%.2fms"
                "  speedup=%.1fx\n",
                label.c_str(), eff->stats.matching_results,
                eff->timings.total_ms(), base->timings.total_ms(),
                base->timings.total_ms() / eff->timings.total_ms());
    bool agree = eff->hits.size() == base->hits.size();
    for (size_t i = 0; agree && i < eff->hits.size(); ++i) {
      agree = eff->hits[i].xml == base->hits[i].xml &&
              eff->hits[i].score == base->hits[i].score;
    }
    std::printf("  top-%zu identical to materialized view: %s\n",
                eff->hits.size(), agree ? "yes" : "NO (bug!)");
    all_agree = all_agree && agree;
    if (!eff->hits.empty()) {
      std::printf("  best (score %.4f): %.90s...\n", eff->hits[0].score,
                  eff->hits[0].xml.c_str());
    }
  }
  return all_agree ? 0 : 1;
}
