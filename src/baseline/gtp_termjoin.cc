#include "baseline/gtp_termjoin.h"

#include <algorithm>
#include <chrono>

#include "qpt/generate_qpt.h"
#include "scoring/materializer.h"
#include "scoring/scorer.h"
#include "xquery/evaluator.h"
#include "xquery/parser.h"

namespace quickview::baseline {

namespace {

using Clock = std::chrono::steady_clock;
using xml::DeweyId;

double MsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

struct GtpEntry {
  DeweyId id;
  uint64_t byte_length = 0;
  std::optional<std::string> value;
};

/// Stack-style structural semijoin: parents that have at least one element
/// of `children` as a child ('/') or descendant ('//'). Both inputs are
/// Dewey-ordered; parent ranges may nest, so each parent binary-searches
/// its subtree range.
std::vector<GtpEntry> HasDescendant(const std::vector<GtpEntry>& parents,
                                    const std::vector<GtpEntry>& children,
                                    bool parent_child) {
  std::vector<GtpEntry> out;
  for (const GtpEntry& p : parents) {
    auto lo = std::lower_bound(children.begin(), children.end(), p.id,
                               [](const GtpEntry& e, const DeweyId& key) {
                                 return e.id < key;
                               });
    bool found = false;
    // p's subtree is the run of ids it prefixes, starting at `lo`.
    for (auto it = lo; it != children.end() && p.id.IsPrefixOf(it->id); ++it) {
      if (!p.id.IsAncestorOf(it->id)) continue;
      if (!parent_child || it->id.depth() == p.id.depth() + 1) {
        found = true;
        break;
      }
    }
    if (found) out.push_back(p);
  }
  return out;
}

/// Children that have some element of `parents` as parent ('/') or
/// ancestor ('//').
std::vector<GtpEntry> HasAncestor(const std::vector<GtpEntry>& children,
                                  const std::vector<GtpEntry>& parents,
                                  bool parent_child) {
  std::vector<DeweyId> parent_ids;
  parent_ids.reserve(parents.size());
  for (const GtpEntry& p : parents) parent_ids.push_back(p.id);
  auto contains = [&parent_ids](const DeweyId& id) {
    return std::binary_search(parent_ids.begin(), parent_ids.end(), id);
  };
  std::vector<GtpEntry> out;
  for (const GtpEntry& c : children) {
    bool found = false;
    if (parent_child) {
      if (c.id.depth() >= 2) found = contains(c.id.Parent());
    } else {
      for (size_t depth = 1; depth < c.id.depth(); ++depth) {
        if (contains(c.id.Prefix(depth))) {
          found = true;
          break;
        }
      }
    }
    if (found) out.push_back(c);
  }
  return out;
}

}  // namespace

Result<std::shared_ptr<xml::Document>> BuildGtpPrunedDocument(
    const qpt::Qpt& qpt, const index::DocumentIndexes& indexes,
    const storage::DocumentStore* store,
    const std::vector<std::string>& keywords,
    storage::DocumentStore::Stats* fetch_stats) {
  const size_t n = qpt.nodes.size();
  std::vector<std::vector<GtpEntry>> streams(n);

  // Tag streams: all elements with the node's tag, regardless of path.
  for (size_t i = 1; i < n; ++i) {
    const qpt::QptNode& node = qpt.nodes[i];
    index::PathPattern tag_pattern{index::PathStep{true, node.tag}};
    for (index::PathEntry& e : indexes.path_index.LookUpId(tag_pattern)) {
      streams[i].push_back(GtpEntry{std::move(e.id), e.byte_length, {}});
    }
    // Values for predicates and 'v' nodes come from base storage.
    if (node.v_ann || !node.preds.empty()) {
      std::vector<GtpEntry> kept;
      for (GtpEntry& e : streams[i]) {
        std::string value;
        QV_RETURN_IF_ERROR(
            store->GetValue(e.id.component(0), e.id, &value, fetch_stats));
        bool passes = true;
        for (const qpt::QptPredicate& pred : node.preds) {
          if (!pred.Matches(value)) {
            passes = false;
            break;
          }
        }
        if (!passes) continue;
        if (node.v_ann) e.value = std::move(value);
        kept.push_back(std::move(e));
      }
      streams[i] = std::move(kept);
    }
  }

  // CE bottom-up: children have larger indices than parents by
  // construction, so a reverse scan visits children first.
  std::vector<std::vector<GtpEntry>> ce(n);
  for (size_t i = n; i-- > 1;) {
    std::vector<GtpEntry> current = std::move(streams[i]);
    for (int child : qpt.nodes[i].children) {
      if (!qpt.nodes[child].parent_mandatory) continue;
      current = HasDescendant(current, ce[child],
                              !qpt.nodes[child].parent_descendant);
    }
    ce[i] = std::move(current);
  }

  // PE top-down.
  std::vector<std::vector<GtpEntry>> pe(n);
  for (size_t i = 1; i < n; ++i) {
    const qpt::QptNode& node = qpt.nodes[i];
    if (node.parent == 0) {
      // Edge from the virtual document root: '/' pins the element to the
      // document root (depth 1); '//' admits any depth.
      for (GtpEntry& e : ce[i]) {
        if (node.parent_descendant || e.id.depth() == 1) {
          pe[i].push_back(std::move(e));
        }
      }
    } else {
      pe[i] = HasAncestor(ce[i], pe[node.parent], !node.parent_descendant);
    }
  }

  // Assemble, fetching byte lengths for 'c' nodes from base storage and
  // keyword statistics from the inverted index (TermJoin's integration).
  std::vector<pdt::PdtElement> elements;
  for (size_t i = 1; i < n; ++i) {
    const qpt::QptNode& node = qpt.nodes[i];
    for (GtpEntry& e : pe[i]) {
      elements.push_back(pdt::PdtElement{std::move(e.id), node.tag,
                                         std::move(e.value), 0, node.c_ann});
    }
  }
  pdt::SortAndFoldPdtElements(&elements);
  for (pdt::PdtElement& out : elements) {
    if (!out.content) continue;
    QV_RETURN_IF_ERROR(store->GetSubtreeLength(
        out.id.component(0), out.id, &out.byte_length, fetch_stats));
  }
  QV_ASSIGN_OR_RETURN(std::vector<pdt::InvList> inv_lists,
                      pdt::PrepareInvLists(indexes.View(), keywords));
  return pdt::AssemblePdtDocument(std::move(elements), inv_lists);
}

Result<engine::SearchResponse> GtpTermJoinEngine::Search(
    const std::string& query, const engine::SearchOptions& options) const {
  QV_ASSIGN_OR_RETURN(xquery::KeywordQuery kq,
                      xquery::ParseKeywordQuery(query));
  engine::SearchResponse response;
  Clock::time_point start = Clock::now();
  QV_ASSIGN_OR_RETURN(std::vector<qpt::Qpt> qpts,
                      qpt::GenerateQpts(&kq.view));
  response.timings.qpt_ms = MsSince(start);

  start = Clock::now();
  storage::DocumentStore::Stats fetches;
  std::vector<std::shared_ptr<xml::Document>> pruned;
  for (const qpt::Qpt& q : qpts) {
    const index::DocumentIndexes* doc_indexes = indexes_->Get(q.source_doc);
    if (doc_indexes == nullptr) {
      return Status::NotFound("no indexes for document '" + q.source_doc +
                              "'");
    }
    QV_ASSIGN_OR_RETURN(
        std::shared_ptr<xml::Document> doc,
        BuildGtpPrunedDocument(q, *doc_indexes, store_, kq.keywords,
                               &fetches));
    pruned.push_back(std::move(doc));
  }
  response.timings.pdt_ms = MsSince(start);

  start = Clock::now();
  xquery::Evaluator evaluator(database_);
  for (size_t i = 0; i < qpts.size(); ++i) {
    evaluator.OverrideDocument(qpts[i].occurrence_name, pruned[i].get());
  }
  QV_ASSIGN_OR_RETURN(xquery::Sequence view_results,
                      evaluator.Evaluate(kq.view));
  response.timings.eval_ms = MsSince(start);

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
    hit.xml.reserve(hit.byte_length);
    QV_RETURN_IF_ERROR(
        scoring::MaterializeInto(r.result, store_, &hit.xml, &fetches));
    response.hits.push_back(std::move(hit));
  }
  response.stats.store_fetches = fetches.fetch_calls;
  response.stats.store_bytes = fetches.bytes_fetched;
  response.timings.post_ms = MsSince(start);
  return response;
}

Result<engine::SearchResponse> GtpTermJoinEngine::SearchView(
    const std::string& view_text, const std::vector<std::string>& keywords,
    const engine::SearchOptions& options) const {
  return Search(
      engine::ComposeKeywordQuery(view_text, keywords, options.conjunctive),
      options);
}

}  // namespace quickview::baseline
