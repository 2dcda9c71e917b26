// Caller-built keyword PDTs: the PreparedQuery a caller outside the
// engine builds for itself, per QPT and per shard — PrepareLists with
// the plan's keywords, then GeneratePdtFromLists, so the PDTs' 'c' nodes
// carry the keywords' term frequencies. The engine evaluates the view
// over such PDTs on every Open, which makes them the oracle of the path
// that scores a skeleton's view with a bundle's term frequencies.
#ifndef QUICKVIEW_TESTS_KEYWORD_PDTS_H_
#define QUICKVIEW_TESTS_KEYWORD_PDTS_H_

#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/result.h"
#include "engine/result_cursor.h"
#include "engine/view_search_engine.h"
#include "index/index_view.h"
#include "pdt/generate_pdt.h"
#include "pdt/prepare_lists.h"

namespace quickview::testing_pdts {

/// Plans `query` and builds its PDTs with its keywords against `indexes`.
inline Result<std::shared_ptr<const engine::PreparedQuery>> BuildKeywordPdts(
    const engine::ViewSearchEngine& engine, const std::string& query,
    const index::IndexSource& indexes) {
  QUICKVIEW_ASSIGN_OR_RETURN(engine::QueryPlan plan, engine.PlanQuery(query));
  auto prepared = std::make_shared<engine::PreparedQuery>();
  prepared->plan = std::move(plan);
  for (const qpt::Qpt& q : prepared->plan.qpts) {
    std::optional<index::DocumentIndexView> view =
        indexes.GetView(q.source_doc);
    if (!view.has_value()) {
      return Status::NotFound("no indexes for document '" + q.source_doc +
                              "'");
    }
    QUICKVIEW_ASSIGN_OR_RETURN(
        pdt::PreparedLists lists,
        pdt::PrepareLists(q, *view, prepared->plan.kq.keywords));
    pdt::PdtBuildStats stats;
    QUICKVIEW_ASSIGN_OR_RETURN(
        std::shared_ptr<xml::Document> doc,
        pdt::GeneratePdtFromLists(q, std::move(lists), &stats));
    prepared->pdt_stats.ids_processed += stats.ids_processed;
    prepared->pdt_stats.nodes_emitted += stats.nodes_emitted;
    prepared->pdt_stats.peak_ct_nodes += stats.peak_ct_nodes;
    prepared->pdt_stats.index_probes += stats.index_probes;
    prepared->pdt_stats.pdt_bytes += stats.pdt_bytes;
    prepared->pdts.push_back(std::move(doc));
  }
  return std::shared_ptr<const engine::PreparedQuery>(std::move(prepared));
}

/// Answers `request` (view form) on `engine`, built over `shards`, from
/// caller-built keyword PDTs: one per executed shard.
inline Result<engine::SearchResponse> ExecuteOverKeywordPdts(
    const engine::ViewSearchEngine& engine,
    const std::vector<engine::ShardContext>& shards,
    const engine::SearchRequest& request) {
  const std::string query = engine::ComposeKeywordQuery(
      request.view, request.keywords, request.options.conjunctive);
  std::vector<std::shared_ptr<const engine::PreparedQuery>> prepared;
  for (size_t s = 0; s < shards.size(); ++s) {
    if (request.shard >= 0 && static_cast<size_t>(request.shard) != s) {
      continue;
    }
    QUICKVIEW_ASSIGN_OR_RETURN(
        std::shared_ptr<const engine::PreparedQuery> entry,
        BuildKeywordPdts(engine, query, *shards[s].indexes));
    prepared.push_back(std::move(entry));
  }
  QUICKVIEW_ASSIGN_OR_RETURN(std::unique_ptr<engine::ResultCursor> cursor,
                             engine.Open(request, std::move(prepared)));
  return engine::DrainToResponse(cursor.get());
}

}  // namespace quickview::testing_pdts

#endif  // QUICKVIEW_TESTS_KEYWORD_PDTS_H_
