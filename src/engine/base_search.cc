#include "engine/base_search.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <set>
#include <utility>

#include "engine/ranked_stream.h"
#include "pdt/prepare_lists.h"
#include "xml/serializer.h"

namespace quickview::engine {

namespace {

/// Candidate answer elements for one document: every ancestor-or-self of
/// a posting of any query keyword.
std::set<xml::DeweyId> CollectCandidates(
    const std::vector<pdt::InvList>& lists) {
  std::set<xml::DeweyId> out;
  for (const pdt::InvList& list : lists) {
    for (const index::Posting& posting : list.postings) {
      for (size_t depth = 1; depth <= posting.id.depth(); ++depth) {
        out.insert(posting.id.Prefix(depth));
      }
    }
  }
  return out;
}

}  // namespace

Result<std::vector<BaseSearchHit>> SearchBaseDocuments(
    const xml::Database& database, const index::DatabaseIndexes& indexes,
    const std::vector<std::string>& keywords,
    const SearchOptions& options) {
  if (keywords.empty()) {
    return Status::InvalidArgument("base search requires keywords");
  }
  QV_RETURN_IF_ERROR(ValidateSearchOptions(options));
  std::vector<BaseSearchHit> qualifying;
  for (const auto& [name, doc] : database.documents()) {
    const index::DocumentIndexes* doc_indexes = indexes.Get(name);
    if (doc_indexes == nullptr) {
      return Status::NotFound("no indexes for document '" + name + "'");
    }
    QV_ASSIGN_OR_RETURN(std::vector<pdt::InvList> lists,
                        pdt::PrepareInvLists(doc_indexes->View(), keywords));
    // Elements whose subtree satisfies the keyword semantics.
    std::vector<BaseSearchHit> matching;
    for (const xml::DeweyId& id : CollectCandidates(lists)) {
      BaseSearchHit hit;
      hit.document = name;
      hit.id = id;
      bool matches = options.conjunctive;
      for (const pdt::InvList& list : lists) {
        uint64_t tf = list.SubtreeTf(id);
        hit.tf.push_back(tf);
        if (options.conjunctive) {
          if (tf == 0) matches = false;
        } else if (tf > 0) {
          matches = true;
        }
      }
      if (matches) matching.push_back(std::move(hit));
    }
    // Keep the deepest matches: drop any element with a matching proper
    // descendant (XRank answer granularity). Matching ids are sorted; a
    // descendant follows its ancestor, so one backward scan suffices.
    for (size_t i = 0; i < matching.size(); ++i) {
      bool has_deeper = i + 1 < matching.size() &&
                        matching[i].id.IsAncestorOf(matching[i + 1].id);
      if (!has_deeper) qualifying.push_back(std::move(matching[i]));
    }
  }

  // Score with the shared TF-IDF shape: idf over qualifying elements.
  const double total = static_cast<double>(qualifying.size());
  std::vector<double> idf(keywords.size(), 0);
  for (size_t k = 0; k < keywords.size(); ++k) {
    uint64_t df = 0;
    for (const BaseSearchHit& hit : qualifying) {
      if (hit.tf[k] > 0) ++df;
    }
    idf[k] = df == 0 ? 0.0 : total / static_cast<double>(df);
  }
  // Incremental ranked selection over the shared top-k core; only the
  // popped hits are serialized.
  RankedStream stream;
  stream.Reserve(qualifying.size());
  for (size_t i = 0; i < qualifying.size(); ++i) {
    BaseSearchHit& hit = qualifying[i];
    const xml::Document* doc = database.GetDocument(hit.document);
    xml::NodeIndex node = doc->FindByDewey(hit.id);
    hit.byte_length = xml::SubtreeByteLength(*doc, node);
    double raw = 0;
    for (size_t k = 0; k < keywords.size(); ++k) {
      raw += static_cast<double>(hit.tf[k]) * idf[k];
    }
    hit.score = raw / std::sqrt(static_cast<double>(hit.byte_length) + 1.0);
    stream.Push(hit.score, i);
  }
  std::vector<BaseSearchHit> top;
  size_t take = std::min(options.top_k, stream.Size());
  top.reserve(take);
  for (size_t n = 0; n < take; ++n) {
    BaseSearchHit hit = std::move(qualifying[stream.Pop().position]);
    // Materialize only the returned hits.
    const xml::Document* doc = database.GetDocument(hit.document);
    hit.xml = xml::Serialize(*doc, doc->FindByDewey(hit.id));
    top.push_back(std::move(hit));
  }
  return top;
}

}  // namespace quickview::engine
