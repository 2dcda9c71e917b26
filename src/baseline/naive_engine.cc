#include "baseline/naive_engine.h"

#include <chrono>

#include "scoring/scorer.h"
#include "xml/serializer.h"
#include "xquery/evaluator.h"
#include "xquery/parser.h"

namespace quickview::baseline {

namespace {
using Clock = std::chrono::steady_clock;

double MsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}
}  // namespace

Result<engine::SearchResponse> NaiveEngine::Search(
    const std::string& query, const engine::SearchOptions& options) const {
  QV_ASSIGN_OR_RETURN(xquery::KeywordQuery kq,
                      xquery::ParseKeywordQuery(query));
  engine::SearchResponse response;

  // Materialize the entire view (the expensive step the paper measures as
  // "58 seconds spent on materializing the view").
  Clock::time_point start = Clock::now();
  xquery::Evaluator evaluator(database_);
  QV_ASSIGN_OR_RETURN(xquery::Sequence view_results,
                      evaluator.Evaluate(kq.view));
  response.timings.eval_ms = MsSince(start);

  // Tokenize + score the materialized results; serialize the top k.
  start = Clock::now();
  scoring::ScoringOutcome outcome =
      scoring::ScoreResults(view_results, kq.keywords, kq.conjunctive);
  std::vector<scoring::ScoredResult>& scored = outcome.ranked;
  response.stats.view_results = view_results.size();
  response.stats.matching_results = scored.size();
  response.stats.view_bytes = outcome.view_bytes;
  scoring::TakeTopK(&scored, options.top_k);
  for (const scoring::ScoredResult& r : scored) {
    engine::SearchHit hit;
    hit.score = r.score;
    hit.tf = r.tf;
    hit.byte_length = r.byte_length;
    hit.xml = xml::Serialize(*r.result.doc, r.result.effective_index());
    response.hits.push_back(std::move(hit));
  }
  response.timings.post_ms = MsSince(start);
  return response;
}

Result<engine::SearchResponse> NaiveEngine::SearchView(
    const std::string& view_text, const std::vector<std::string>& keywords,
    const engine::SearchOptions& options) const {
  return Search(
      engine::ComposeKeywordQuery(view_text, keywords, options.conjunctive),
      options);
}

}  // namespace quickview::baseline
