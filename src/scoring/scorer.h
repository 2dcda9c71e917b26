// Scoring & Materialization module, scoring half (paper §2.2, §4.2.2.2):
// enforces conjunctive/disjunctive keyword semantics and computes
// element-level TF-IDF scores over the view results. The same code scores
// pruned results (statistics read from NodeStats payloads placed by PDT
// generation) and fully materialized results (statistics recomputed from
// content), which is what makes the Efficient and Baseline engines produce
// *identical* scores and rank order (Theorem 4.1).
#ifndef QUICKVIEW_SCORING_SCORER_H_
#define QUICKVIEW_SCORING_SCORER_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/cancellation.h"
#include "common/result.h"
#include "xquery/evaluator.h"

namespace quickview::scoring {

/// Per-view-result keyword statistics and score.
struct ScoredResult {
  xquery::NodeHandle result;
  size_t view_position = 0;  // position in the view sequence (tie-break)
  std::vector<uint64_t> tf;  // per query keyword
  uint64_t byte_length = 0;
  double score = 0;
};

/// tf(e, k) and len(e) for one result tree. Pruned nodes
/// (NodeStats::content_pruned) contribute their stored subtree statistics
/// and their children are skipped (the children duplicate summarized
/// content); other nodes contribute their direct terms and markup bytes.
void ComputeResultStatistics(const xquery::NodeHandle& result,
                             const std::vector<std::string>& keywords,
                             std::vector<uint64_t>* tf,
                             uint64_t* byte_length);

struct ScoringOutcome {
  /// Keyword-semantics applied. Sorted by ScoreResults; left in view
  /// order by ScoreCandidates (for incremental ranked selection).
  std::vector<ScoredResult> ranked;
  /// Total byte length over ALL view results — the volume a
  /// materialize-first engine has to produce and tokenize.
  uint64_t view_bytes = 0;
};

/// Scores the whole view-result sequence:
///  - keeps results containing every keyword (conjunctive) or at least one
///    (disjunctive);
///  - idf(k) = |V(D)| / |{e in V(D) : contains(e,k)}| over the *entire*
///    view (computed before filtering), exactly as if the view were
///    materialized;
///  - score(e) = sum_k tf(e,k) * idf(k), normalized by sqrt(len(e))
///    (a standard byte-length normalization from the similarity-space
///    family the paper cites [40]).
/// Results are returned sorted by descending score; ties break by view
/// position (the paper breaks ties arbitrarily; we fix an order so the
/// two engines agree exactly).
ScoringOutcome ScoreResults(const xquery::Sequence& view_results,
                            const std::vector<std::string>& keywords,
                            bool conjunctive);

/// ScoreResults without the final sort: scores and filters every view
/// result but leaves `ranked` in view order. Feed the scores into an
/// engine::RankedStream to pop them incrementally — the stream's
/// (score desc, position asc) order reproduces ScoreResults exactly,
/// without paying O(n log n) when only a few results are fetched.
ScoringOutcome ScoreCandidates(const xquery::Sequence& view_results,
                               const std::vector<std::string>& keywords,
                               bool conjunctive);

// ---------------------------------------------------------------------
// Phased scoring — the shard-composable decomposition of ScoreCandidates.
//
// idf must be computed over the ENTIRE view sequence, so a sharded
// engine cannot score shard-locally: each shard collects raw statistics
// (phase 1), the coordinator sums the integer counts and derives idf
// once (phase 2), then each shard's candidates are filtered and scored
// against the global idf (phase 3). Because all cross-shard aggregation
// happens on integers, the derived doubles — and therefore every score —
// are bit-identical to the single-sequence path, which is itself
// recomposed from the same three phases.

/// Phase-1 output: the node-valued view results in view order, with
/// view_position local to the walked sequence (a sharded coordinator
/// re-bases it by the shard's cumulative offset), their byte lengths
/// and, when collected without keywords, what their term frequencies
/// sum. The term frequencies themselves live beside it, flat, one row of
/// keywords.size() entries per candidate.
struct ViewStatistics {
  /// One node-valued view result.
  struct Candidate {
    xquery::NodeHandle result;
    size_t view_position = 0;
    uint64_t byte_length = 0;
    /// End of this candidate's run in `content_refs`; the run begins
    /// where the previous candidate's ends.
    uint32_t content_end = 0;
  };
  std::vector<Candidate> candidates;
  /// Keyword-free collection only (CollectViewStatistics): per candidate
  /// run, the ordinals of the pruned nodes whose stored term frequencies
  /// its statistics sum, repeats kept.
  std::vector<uint32_t> content_refs;
  /// Keyword-free collection only: lowercased direct term of the
  /// candidates' unpruned nodes -> (candidate, occurrences), candidates
  /// ascending.
  std::unordered_map<std::string, std::vector<std::pair<uint32_t, uint32_t>>>
      direct_terms;
  /// Length of the walked sequence INCLUDING atomic items that never
  /// become candidates — the |V(D)| the stats surface reports.
  size_t sequence_size = 0;
  /// Total byte length over the walked view results (ScoringOutcome
  /// semantics, per shard).
  uint64_t view_bytes = 0;
};

/// Phase 1: walks every view result, filling `view`'s candidates,
/// sequence_size and view_bytes and appending keywords.size() term
/// frequencies per candidate to `tf`. Polls `cancel` (if non-null)
/// between results and returns its typed status when it fires.
Status CollectCandidates(const xquery::Sequence& view_results,
                         const std::vector<std::string>& keywords,
                         ViewStatistics* view, std::vector<uint64_t>* tf,
                         const CancellationToken* cancel = nullptr);

/// Phase 2a: folds the per-keyword document frequencies of flat term
/// frequencies, df.size() entries per candidate, into `df`.
void AccumulateDf(const std::vector<uint64_t>& tf, std::vector<uint64_t>* df);

/// Phase 2b: idf(k) = total_candidates / df(k), 0 when df(k) == 0 —
/// the exact arithmetic of ScoreCandidates, fed with globally summed
/// integer counts.
std::vector<double> ComputeIdf(uint64_t total_candidates,
                               const std::vector<uint64_t>& df);

/// Phase 3: applies conjunctive/disjunctive keyword semantics and the
/// TF-IDF score to `view`'s candidates and their flat term frequencies
/// (idf.size() entries per candidate) against a (possibly global) idf
/// vector, appending the survivors to `kept` in view order (a sharded
/// caller appends shard after shard). Polls `cancel` between candidates
/// like phase 1.
Status FilterAndScore(const ViewStatistics& view,
                      const std::vector<uint64_t>& tf,
                      const std::vector<double>& idf, bool conjunctive,
                      std::vector<ScoredResult>* kept,
                      const CancellationToken* cancel = nullptr);

// ---------------------------------------------------------------------
// Keyword-free phase 1: collected once per view evaluated over PDT
// skeletons (PDTs built with no keywords).
//
// Everything CollectCandidates computes is independent of the keywords
// except the term frequencies, and those are sums: a candidate's tf(k)
// adds the stored subtree tf of every pruned node the walk reaches and
// the occurrences of k among the direct terms of its other nodes.
// CollectViewStatistics records those summands once, so any keyword
// set's term frequencies follow from the pruned nodes' term frequencies
// alone (TermFrequencies) — with no evaluation and no walk — and phases
// 2 and 3 run over them as over CollectCandidates' own.

/// Keyword-free phase 1: walks every view result as CollectCandidates
/// does. `content_ordinals` numbers the NodeStats of every pruned node a
/// result can reach; one it does not number is an Internal error.
Result<ViewStatistics> CollectViewStatistics(
    const xquery::Sequence& view_results,
    const std::unordered_map<const xml::NodeStats*, uint32_t>&
        content_ordinals,
    const CancellationToken* cancel = nullptr);

/// The term frequencies of `view`'s candidates for `keywords`
/// (lowercased), keywords.size() entries per candidate, in candidate
/// order: what CollectCandidates collects over PDTs built with those
/// keywords. `content_tf` holds keywords.size() entries per pruned-node
/// ordinal.
std::vector<uint64_t> TermFrequencies(const ViewStatistics& view,
                                      const std::vector<std::string>& keywords,
                                      const std::vector<uint32_t>& content_tf);

/// Truncates a scored list to the top k (list is already sorted).
void TakeTopK(std::vector<ScoredResult>* results, size_t k);

}  // namespace quickview::scoring

#endif  // QUICKVIEW_SCORING_SCORER_H_
