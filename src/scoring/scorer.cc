#include "scoring/scorer.h"

#include <algorithm>
#include <cctype>
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

// Walk without keywords: records the summands Walk adds for a result,
// as candidate `candidate` of `view`.
Status RecordWalk(const xml::Document& doc, xml::NodeIndex index,
                  const std::unordered_map<const xml::NodeStats*, uint32_t>&
                      content_ordinals,
                  uint32_t candidate, ViewStatistics* view,
                  uint64_t* byte_length, std::string* term) {
  const xml::Node& node = doc.node(index);
  if (node.stats != nullptr && node.stats->content_pruned) {
    auto ordinal = content_ordinals.find(node.stats.get());
    if (ordinal == content_ordinals.end()) {
      return Status::Internal("view result reaches a pruned node of no PDT");
    }
    view->content_refs.push_back(ordinal->second);
    *byte_length += node.stats->byte_length;
    return Status::OK();
  }
  xml::ForEachDirectTerm(node, [&](std::string_view run) {
    // Lowercased as TokenEquals compares: a keyword equals the run iff it
    // equals this term.
    term->assign(run);
    for (char& c : *term) {
      c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    }
    auto& postings = view->direct_terms[*term];
    if (postings.empty() || postings.back().first != candidate) {
      postings.emplace_back(candidate, 0);
    }
    ++postings.back().second;
  });
  *byte_length += xml::OwnByteLength(node);
  for (xml::NodeIndex child : node.children) {
    QV_RETURN_IF_ERROR(RecordWalk(doc, child, content_ordinals, candidate,
                                  view, byte_length, term));
  }
  return Status::OK();
}

// Phase 3 for one candidate's `width` term frequencies: keyword semantics,
// then the TF-IDF score. Both FilterAndScore forms run exactly this.
bool Matches(const uint64_t* tf, size_t width, bool conjunctive) {
  bool matches = conjunctive;
  for (size_t k = 0; k < width; ++k) {
    if (conjunctive) {
      if (tf[k] == 0) return false;
    } else if (tf[k] > 0) {
      matches = true;
    }
  }
  return matches;
}

double Score(const uint64_t* tf, size_t width, const std::vector<double>& idf,
             uint64_t byte_length) {
  double raw = 0;
  for (size_t k = 0; k < width; ++k) {
    raw += static_cast<double>(tf[k]) * idf[k];
  }
  return raw / std::sqrt(static_cast<double>(byte_length) + 1.0);
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
    if (!Matches(r.tf.data(), r.tf.size(), conjunctive)) continue;
    r.score = Score(r.tf.data(), r.tf.size(), idf, r.byte_length);
    kept.push_back(std::move(r));
  }
  return kept;
}

Result<ViewStatistics> CollectViewStatistics(
    const xquery::Sequence& view_results,
    const std::unordered_map<const xml::NodeStats*, uint32_t>&
        content_ordinals,
    const CancellationToken* cancel) {
  ViewStatistics view;
  view.sequence_size = view_results.size();
  view.candidates.reserve(view_results.size());
  std::string term;
  for (size_t i = 0; i < view_results.size(); ++i) {
    if (cancel != nullptr && cancel->Fired()) return cancel->ToStatus();
    const xquery::NodeHandle* handle =
        std::get_if<xquery::NodeHandle>(&view_results[i]);
    if (handle == nullptr) continue;  // atomic items are never results
    ViewStatistics::Candidate candidate;
    candidate.result = *handle;
    candidate.view_position = i;
    QV_RETURN_IF_ERROR(RecordWalk(
        *handle->doc, handle->effective_index(), content_ordinals,
        static_cast<uint32_t>(view.candidates.size()), &view,
        &candidate.byte_length, &term));
    candidate.content_end = static_cast<uint32_t>(view.content_refs.size());
    view.view_bytes += candidate.byte_length;
    view.candidates.push_back(candidate);
  }
  return view;
}

std::vector<uint64_t> TermFrequencies(const ViewStatistics& view,
                                      const std::vector<std::string>& keywords,
                                      const std::vector<uint32_t>& content_tf) {
  const size_t width = keywords.size();
  std::vector<uint64_t> tf(view.candidates.size() * width, 0);
  uint32_t begin = 0;
  for (size_t c = 0; c < view.candidates.size(); ++c) {
    uint64_t* row = tf.data() + c * width;
    const uint32_t end = view.candidates[c].content_end;
    for (uint32_t r = begin; r < end; ++r) {
      const uint32_t* stored =
          content_tf.data() + size_t{view.content_refs[r]} * width;
      for (size_t k = 0; k < width; ++k) row[k] += stored[k];
    }
    begin = end;
  }
  for (size_t k = 0; k < width; ++k) {
    auto postings = view.direct_terms.find(keywords[k]);
    if (postings == view.direct_terms.end()) continue;
    for (const auto& [candidate, occurrences] : postings->second) {
      tf[size_t{candidate} * width + k] += occurrences;
    }
  }
  return tf;
}

void AccumulateDf(const std::vector<uint64_t>& tf, std::vector<uint64_t>* df) {
  const size_t width = df->size();
  for (size_t i = 0; i < tf.size(); ++i) {
    if (tf[i] > 0) ++(*df)[i % width];
  }
}

Result<std::vector<ScoredResult>> FilterAndScore(
    const ViewStatistics& view, const std::vector<uint64_t>& tf,
    const std::vector<double>& idf, bool conjunctive,
    const CancellationToken* cancel) {
  const size_t width = idf.size();
  std::vector<ScoredResult> kept;
  for (size_t c = 0; c < view.candidates.size(); ++c) {
    if (cancel != nullptr && cancel->Fired()) return cancel->ToStatus();
    const uint64_t* row = tf.data() + c * width;
    if (!Matches(row, width, conjunctive)) continue;
    const ViewStatistics::Candidate& candidate = view.candidates[c];
    ScoredResult r;
    r.result = candidate.result;
    r.view_position = candidate.view_position;
    r.tf.assign(row, row + width);
    r.byte_length = candidate.byte_length;
    r.score = Score(row, width, idf, candidate.byte_length);
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
