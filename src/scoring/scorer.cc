#include "scoring/scorer.h"

#include <algorithm>
#include <cmath>

#include "xml/serializer.h"
#include "xml/tokenizer.h"

namespace quickview::scoring {

namespace {

void Walk(const xml::Document& doc, xml::NodeIndex index,
          const std::vector<std::string>& keywords, std::vector<uint64_t>* tf,
          uint64_t* byte_length) {
  const xml::Node& node = doc.node(index);
  if (node.stats != nullptr && node.stats->content_pruned) {
    // Summarized subtree: statistics were computed from indices during PDT
    // generation; the node's children (if any) duplicate summarized
    // content and must not be counted again.
    for (size_t k = 0; k < keywords.size(); ++k) {
      (*tf)[k] += k < node.stats->term_tf.size() ? node.stats->term_tf[k] : 0;
    }
    *byte_length += node.stats->byte_length;
    return;
  }
  xml::ForEachDirectTerm(node, [&keywords, tf](std::string_view run) {
    for (size_t k = 0; k < keywords.size(); ++k) {
      if (xml::TokenEquals(run, keywords[k])) ++(*tf)[k];
    }
  });
  *byte_length += xml::OwnByteLength(node);
  for (xml::NodeIndex child : node.children) {
    Walk(doc, child, keywords, tf, byte_length);
  }
}

}  // namespace

void ComputeResultStatistics(const xquery::NodeHandle& result,
                             const std::vector<std::string>& keywords,
                             std::vector<uint64_t>* tf,
                             uint64_t* byte_length) {
  tf->assign(keywords.size(), 0);
  *byte_length = 0;
  Walk(*result.doc, result.effective_index(), keywords, tf, byte_length);
}

Result<CandidateSet> CollectCandidates(
    const xquery::Sequence& view_results,
    const std::vector<std::string>& keywords,
    const CancellationToken* cancel) {
  CandidateSet set;
  set.sequence_size = view_results.size();
  set.candidates.reserve(view_results.size());
  for (size_t i = 0; i < view_results.size(); ++i) {
    if (cancel != nullptr && cancel->Fired()) return cancel->ToStatus();
    const xquery::NodeHandle* handle =
        std::get_if<xquery::NodeHandle>(&view_results[i]);
    if (handle == nullptr) continue;  // atomic items are never results
    ScoredResult r;
    r.result = *handle;
    r.view_position = i;
    ComputeResultStatistics(*handle, keywords, &r.tf, &r.byte_length);
    set.view_bytes += r.byte_length;
    set.candidates.push_back(std::move(r));
  }
  return set;
}

void AccumulateDf(const CandidateSet& set, std::vector<uint64_t>* df) {
  if (!set.candidates.empty() && df->size() < set.candidates[0].tf.size()) {
    df->resize(set.candidates[0].tf.size(), 0);
  }
  for (const ScoredResult& r : set.candidates) {
    for (size_t k = 0; k < r.tf.size(); ++k) {
      if (r.tf[k] > 0) ++(*df)[k];
    }
  }
}

std::vector<double> ComputeIdf(uint64_t total_candidates,
                               const std::vector<uint64_t>& df) {
  const double total = static_cast<double>(total_candidates);
  std::vector<double> idf(df.size(), 0.0);
  for (size_t k = 0; k < df.size(); ++k) {
    idf[k] = df[k] == 0 ? 0.0 : total / static_cast<double>(df[k]);
  }
  return idf;
}

Result<std::vector<ScoredResult>> FilterAndScore(
    std::vector<ScoredResult> candidates, const std::vector<double>& idf,
    bool conjunctive, const CancellationToken* cancel) {
  std::vector<ScoredResult> kept;
  for (ScoredResult& r : candidates) {
    if (cancel != nullptr && cancel->Fired()) return cancel->ToStatus();
    bool matches = conjunctive;
    for (size_t k = 0; k < r.tf.size(); ++k) {
      if (conjunctive) {
        if (r.tf[k] == 0) {
          matches = false;
          break;
        }
      } else if (r.tf[k] > 0) {
        matches = true;
      }
    }
    if (!matches) continue;
    double raw = 0;
    for (size_t k = 0; k < r.tf.size(); ++k) {
      raw += static_cast<double>(r.tf[k]) * idf[k];
    }
    r.score = raw / std::sqrt(static_cast<double>(r.byte_length) + 1.0);
    kept.push_back(std::move(r));
  }
  return kept;
}

ScoringOutcome ScoreCandidates(const xquery::Sequence& view_results,
                               const std::vector<std::string>& keywords,
                               bool conjunctive) {
  // Recomposed from the phased API so the one-shard path and the sharded
  // path run literally the same arithmetic. No cancellation token: the
  // synchronous path cannot fail, so the Results below are always values.
  Result<CandidateSet> collected =
      CollectCandidates(view_results, keywords, /*cancel=*/nullptr);
  CandidateSet set;
  if (collected.ok()) set = std::move(collected).value();

  std::vector<uint64_t> df(keywords.size(), 0);
  AccumulateDf(set, &df);
  const std::vector<double> idf =
      ComputeIdf(static_cast<uint64_t>(set.candidates.size()), df);

  ScoringOutcome outcome;
  outcome.view_bytes = set.view_bytes;
  Result<std::vector<ScoredResult>> kept = FilterAndScore(
      std::move(set.candidates), idf, conjunctive, /*cancel=*/nullptr);
  if (kept.ok()) outcome.ranked = std::move(kept).value();
  return outcome;
}

ScoringOutcome ScoreResults(const xquery::Sequence& view_results,
                            const std::vector<std::string>& keywords,
                            bool conjunctive) {
  ScoringOutcome outcome =
      ScoreCandidates(view_results, keywords, conjunctive);
  std::sort(outcome.ranked.begin(), outcome.ranked.end(),
            [](const ScoredResult& a, const ScoredResult& b) {
              if (a.score != b.score) return a.score > b.score;
              return a.view_position < b.view_position;
            });
  return outcome;
}

void TakeTopK(std::vector<ScoredResult>* results, size_t k) {
  if (results->size() > k) results->resize(k);
}

}  // namespace quickview::scoring
