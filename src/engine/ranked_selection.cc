#include "engine/ranked_selection.h"

#include <algorithm>
#include <chrono>
#include <cmath>

#include "common/strings.h"
#include "engine/ranked_stream.h"
#include "pdt/generate_pdt.h"
#include "qpt/generate_qpt.h"
#include "scoring/materializer.h"
#include "xquery/evaluator.h"
#include "xquery/parser.h"

namespace quickview::engine {

namespace {

using Clock = std::chrono::steady_clock;

double MsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

/// The monotone shape: one FLWOR, one `for` clause over a doc-rooted
/// path, `return $var`. Predicates/where become QPT leaf predicates; any
/// value join (a 'v' node without predicates) breaks monotonicity.
Status CheckMonotoneShape(const xquery::Query& query,
                          const std::vector<qpt::Qpt>& qpts) {
  if (query.body->kind != xquery::ExprKind::kFlwor) {
    return Status::Unsupported("not a FLWOR selection view");
  }
  const auto& flwor = static_cast<const xquery::FlworExpr&>(*query.body);
  if (flwor.clauses.size() != 1 || flwor.clauses[0].is_let) {
    return Status::Unsupported("selection views have exactly one for");
  }
  if (flwor.ret->kind != xquery::ExprKind::kVar) {
    return Status::Unsupported(
        "selection views return the bound element itself");
  }
  if (qpts.size() != 1) {
    return Status::Unsupported("selection views touch one document");
  }
  int content_nodes = 0;
  for (const qpt::QptNode& node : qpts[0].nodes) {
    if (node.c_ann) ++content_nodes;
    if (node.v_ann && node.preds.empty()) {
      return Status::Unsupported("value joins are non-monotonic");
    }
  }
  if (content_nodes != 1) {
    return Status::Unsupported("selection views output one element kind");
  }
  return Status::OK();
}

}  // namespace

Result<SearchResponse> RankedSelectionSearch(
    const xml::Database& /*database*/, const index::DatabaseIndexes& indexes,
    const storage::DocumentStore* store, const std::string& view_text,
    const std::vector<std::string>& keywords,
    const SearchOptions& options) {
  QUICKVIEW_RETURN_IF_ERROR(ValidateSearchOptions(options));
  if (keywords.empty()) {
    return Status::InvalidArgument(
        "ranked selection requires a non-empty keyword list");
  }
  SearchResponse response;
  Clock::time_point start = Clock::now();
  QUICKVIEW_ASSIGN_OR_RETURN(xquery::Query query,
                             xquery::ParseQuery(view_text));
  QUICKVIEW_ASSIGN_OR_RETURN(std::vector<qpt::Qpt> qpts,
                             qpt::GenerateQpts(&query));
  QUICKVIEW_RETURN_IF_ERROR(CheckMonotoneShape(query, qpts));
  std::vector<std::string> lower;
  for (const std::string& keyword : keywords) {
    lower.push_back(AsciiToLower(keyword));
  }
  response.timings.qpt_ms = MsSince(start);

  start = Clock::now();
  const index::DocumentIndexes* doc_indexes =
      indexes.Get(qpts[0].source_doc);
  if (doc_indexes == nullptr) {
    return Status::NotFound("no indexes for document '" +
                            qpts[0].source_doc + "'");
  }
  pdt::PdtBuildStats build_stats;
  QUICKVIEW_ASSIGN_OR_RETURN(
      std::shared_ptr<xml::Document> pdt,
      pdt::GeneratePdt(qpts[0], *doc_indexes, lower, &build_stats));
  response.stats.pdt = build_stats;
  response.timings.pdt_ms = MsSince(start);

  // No evaluation phase at all: results are the 'c' nodes of the PDT, in
  // document order, with their summarized statistics.
  start = Clock::now();
  struct Candidate {
    xml::NodeIndex node;
    std::vector<uint64_t> tf;
    uint64_t byte_length;
  };
  std::vector<Candidate> matching;
  std::vector<uint64_t> df(lower.size(), 0);
  size_t view_results = 0;
  for (xml::NodeIndex i = 0; i < pdt->size(); ++i) {
    const xml::Node& node = pdt->node(i);
    if (node.stats == nullptr || !node.stats->content_pruned) continue;
    ++view_results;
    Candidate candidate;
    candidate.node = i;
    candidate.byte_length = node.stats->byte_length;
    bool matches = options.conjunctive;
    for (size_t k = 0; k < lower.size(); ++k) {
      uint64_t tf = node.stats->term_tf[k];
      candidate.tf.push_back(tf);
      if (tf > 0) ++df[k];
      if (options.conjunctive) {
        if (tf == 0) matches = false;
      } else if (tf > 0) {
        matches = true;
      }
    }
    response.stats.view_bytes += candidate.byte_length;
    if (matches) matching.push_back(std::move(candidate));
  }
  response.stats.view_results = view_results;
  response.stats.matching_results = matching.size();

  std::vector<double> idf(lower.size(), 0);
  for (size_t k = 0; k < lower.size(); ++k) {
    idf[k] = df[k] == 0
                 ? 0.0
                 : static_cast<double>(view_results) /
                       static_cast<double>(df[k]);
  }
  // Incremental ranked selection over the shared top-k core: only the
  // popped (returned) candidates are ever materialized.
  RankedStream stream;
  stream.Reserve(matching.size());
  for (size_t i = 0; i < matching.size(); ++i) {
    double raw = 0;
    for (size_t k = 0; k < lower.size(); ++k) {
      raw += static_cast<double>(matching[i].tf[k]) * idf[k];
    }
    stream.Push(
        raw / std::sqrt(static_cast<double>(matching[i].byte_length) + 1.0),
        i);
  }

  storage::DocumentStore::Stats fetches;
  size_t take = std::min(options.top_k, stream.Size());
  for (size_t n = 0; n < take; ++n) {
    RankedStream::Entry best = stream.Pop();
    const Candidate& candidate = matching[best.position];
    SearchHit hit;
    hit.score = best.score;
    hit.tf = candidate.tf;
    hit.byte_length = candidate.byte_length;
    QUICKVIEW_ASSIGN_OR_RETURN(
        hit.xml,
        scoring::MaterializeToXml(
            xquery::NodeHandle{pdt.get(), candidate.node}, store,
            &fetches));
    response.hits.push_back(std::move(hit));
  }
  response.stats.store_fetches = fetches.fetch_calls;
  response.stats.store_bytes = fetches.bytes_fetched;
  response.timings.post_ms = MsSince(start);
  return response;
}

}  // namespace quickview::engine
