// The quickview public facade: ranked keyword search over virtual XML
// views, implementing the full architecture of paper Fig 3 —
//   parse -> QPT generation -> PDT generation (indices only)
//         -> unmodified evaluation over PDTs -> scoring -> top-k
//         -> materialization (the only base-data access).
//
// One engine serves one corpus, which may be a single (database, indexes,
// store) triple or an ordered list of shards of one logical corpus. The
// unified entry point is Open(SearchRequest): it validates once, fans
// planning + PDT generation + evaluation + statistics collection out per
// shard (on the engine's ThreadPool when it has one), folds the integer
// keyword statistics into ONE global idf, and returns a ResultCursor
// whose one ranked stream pops hits in exactly the order the unsharded
// engine would produce — sharding is an execution strategy, never a
// semantic: every request searches every shard, and responses are
// byte-identical at any shard count.
//
// The pipeline stays split into cacheable stages:
//   PlanQuery       parse + QPT generation + canonical plan signature
//                   (cost proportional to the query, never the data);
//   BuildPdts       the PDT skeleton of ONE shard: PrepareLists +
//                   GeneratePdt per QPT with no keywords (the
//                   data-dependent stage), then the unmodified view
//                   evaluated over those PDTs once, with the summands of
//                   each view result's term frequencies recorded — all of
//                   it the same for every keyword set. Then the annotated
//                   bundle: the skeleton plus one keyword set's term
//                   frequencies per view result, from the keywords'
//                   inverted lists alone. Both are PreparedQuery values,
//                   immutable and shareable;
//   Open            candidates from a bundle + global-idf scoring +
//                   ranked merge, returning a ResultCursor: a bundle is
//                   never evaluated again. Hits are materialized lazily,
//                   per ResultCursor::FetchNext call, shard by shard.
#ifndef QUICKVIEW_ENGINE_VIEW_SEARCH_ENGINE_H_
#define QUICKVIEW_ENGINE_VIEW_SEARCH_ENGINE_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/result.h"
#include "engine/engine_stats.h"
#include "engine/search_request.h"
#include "index/index_builder.h"
#include "pdt/generate_pdt.h"
#include "scoring/scorer.h"
#include "storage/document_store.h"
#include "xml/dom.h"
#include "xquery/ast.h"

namespace quickview {
class ThreadPool;  // common/thread_pool.h
}  // namespace quickview

namespace quickview::storage {
class ShardSet;        // storage/shard_set.h
struct CorpusVersion;  // storage/live_database.h
}  // namespace quickview::storage

namespace quickview::engine {

/// One ranked, fully materialized result.
struct SearchHit {
  double score = 0;
  std::vector<uint64_t> tf;  // per query keyword
  uint64_t byte_length = 0;
  std::string xml;  // serialized materialized result
};

struct SearchResponse {
  std::vector<SearchHit> hits;
  ModuleTimings timings;
  SearchStats stats;
};

/// A planned query: the parsed keyword query with its view rewritten over
/// PDT occurrence names, the generated QPTs, and canonical signatures
/// that identify which PDTs the plan needs — the cache key material of
/// the service layer.
struct QueryPlan {
  xquery::KeywordQuery kq;
  std::vector<qpt::Qpt> qpts;
  /// PlanSignature: QPT shapes, keywords and semantics.
  std::string signature;
  /// PdtSignature: QPT shapes only, what a PDT skeleton depends on.
  std::string pdt_signature;
  double qpt_ms = 0;
};

/// A view evaluated once over a skeleton's keyword-free PDTs: the
/// evaluator's arena and, per view result, what scoring needs from it
/// regardless of the keywords.
struct EvaluatedView {
  /// Elements the evaluator constructed. Published immutable: the
  /// candidates point into it (or into the skeleton's PDTs), and any
  /// number of cursors read it at once.
  std::shared_ptr<const xml::Document> arena;
  scoring::ViewStatistics statistics;
};

/// A plan plus its generated PDTs — for ONE shard (an unsharded corpus
/// is the one-shard case). Immutable once built; any number of threads
/// may open cursors against one instance. It comes in three kinds:
///  - a skeleton (is_skeleton()): the plan's PDTs built with no keywords
///    and the plan's view evaluated over them (`view`). Its plan is the
///    one that built it: the rewritten view and the QPTs. Every keyword
///    set over the same QPTs shares it;
///  - an annotated bundle (is_bundle()): a skeleton plus one keyword
///    set's term frequencies for each of the skeleton's candidates
///    (`tf`). Its plan holds only the keyword set's facts: the
///    signatures, the keywords and the connective. Open builds the
///    candidates from the two and evaluates nothing;
///  - caller-built PDTs (neither): a full plan and PDTs whose 'c' nodes
///    carry the plan's keywords' term frequencies (GeneratePdt with the
///    keywords). Open evaluates the view over them on every request.
struct PreparedQuery {
  QueryPlan plan;
  /// A skeleton's or caller-built PDTs; empty on a bundle.
  std::vector<std::shared_ptr<xml::Document>> pdts;
  /// Aggregated over all QPTs. A bundle reports its skeleton's figures.
  pdt::PdtBuildStats pdt_stats;
  double pdt_ms = 0;
  /// Approximate resident footprint, for cache accounting: a skeleton
  /// counts its PDTs, its arena and its view statistics; a bundle counts
  /// only its term frequencies (the cache keeps a cached bundle's
  /// skeleton cached too, so it counts that skeleton once).
  uint64_t memory_bytes = 0;
  /// Skeleton only: the view evaluated over `pdts`.
  std::optional<EvaluatedView> view;
  /// Bundle only: the skeleton it scores, which it keeps alive.
  std::shared_ptr<const PreparedQuery> skeleton;
  /// Bundle only: plan.kq.keywords.size() term frequencies per candidate
  /// of the skeleton's view, in candidate order.
  std::vector<uint64_t> tf;

  bool is_skeleton() const { return view.has_value(); }
  bool is_bundle() const { return skeleton != nullptr; }
};

/// `bundle`'s keyword set and term frequencies over `skeleton`, another
/// build of the bundle's own skeleton from the same inputs (and so
/// identical to it): how a cache that keeps one skeleton per key keeps
/// the bundles of a duplicate that a concurrent request built.
std::shared_ptr<const PreparedQuery> RebindBundle(
    const PreparedQuery& bundle, std::shared_ptr<const PreparedQuery> skeleton);

/// Canonical signature of the keyword-free PDT inputs: QPT shapes (tags,
/// axes, annotations, predicates). Two plans with equal PDT signatures
/// have byte-identical PDT skeletons (per shard).
std::string PdtSignature(const std::vector<qpt::Qpt>& qpts);

/// Canonical signature of the PDT inputs: PdtSignature plus keywords and
/// conjunctive flag. Two queries with equal signatures need
/// byte-identical PDTs (per shard).
std::string PlanSignature(const std::vector<qpt::Qpt>& qpts,
                          const std::vector<std::string>& keywords,
                          bool conjunctive);

/// Renders the canonical Fig-2 keyword query for a view text and keyword
/// list (keywords are lowercased). Shared by the request path and the
/// service layer so cache keys and executed queries cannot drift apart.
std::string ComposeKeywordQuery(const std::string& view_text,
                                const std::vector<std::string>& keywords,
                                bool conjunctive);

/// One shard of the corpus: its own database, indexes and store, all
/// outliving the engine. `database` may be nullptr when every queried
/// document is rewritten over PDTs (the packed path, where base
/// documents exist only as node-record pages). Shards must be listed in
/// corpus order — the ordered contiguous partition is what makes the
/// merged ranked order equal the unsharded order.
struct ShardContext {
  const xml::Database* database = nullptr;
  const index::IndexSource* indexes = nullptr;
  const storage::DocumentStore* store = nullptr;
};

/// One context per shard of `shards`, in corpus order; the set must
/// outlive every engine built over the result.
std::vector<ShardContext> ShardContexts(const storage::ShardSet& shards);

/// The one context of a live corpus version; the caller's pin must
/// outlive every engine built over the result.
std::vector<ShardContext> ShardContexts(const storage::CorpusVersion& version);

class ResultCursor;  // engine/result_cursor.h

class ViewSearchEngine {
 public:
  /// Unsharded corpus: one (database, indexes, store) triple, all
  /// outliving the engine and treated as immutable. The engine itself is
  /// stateless beyond these pointers, so one engine may serve queries
  /// from many threads at once. `indexes` is any IndexSource — the
  /// in-memory DatabaseIndexes or a packed on-disk database
  /// (pagestore::PackedDb).
  ViewSearchEngine(const xml::Database* database,
                   const index::IndexSource* indexes,
                   const storage::DocumentStore* store)
      : shards_{ShardContext{database, indexes, store}} {}

  /// Sharded corpus, in corpus order. `pool` (may be nullptr: shards run
  /// sequentially on the calling thread) executes per-shard work; it is
  /// shared infrastructure and must outlive the engine. Every shard's
  /// structures must outlive the engine and any cursor opened from it.
  explicit ViewSearchEngine(std::vector<ShardContext> shards,
                            ThreadPool* pool = nullptr);

  /// THE search entry point. Validates the request once, plans, builds
  /// (or reuses) per-shard PDTs, evaluates and scores every shard —
  /// concurrently when the engine has a pool — and returns a cursor over
  /// one ranked stream of every shard's candidates. No hit is
  /// materialized (no base data is touched) until FetchNext asks for it.
  /// Open is a barrier: when it returns, stats()/pending() are final
  /// (modulo lazily-growing fetch counters) and no shard work is
  /// running. On cancellation, deadline expiry, or a shard failure,
  /// every sibling shard task is stopped via the request's token before
  /// Open returns the typed error (Cancelled / DeadlineExceeded / the
  /// first shard's error, annotated with its shard number).
  Result<std::unique_ptr<ResultCursor>> Open(const SearchRequest& request) const;

  /// Open with caller-provided per-shard PreparedQueries (the service
  /// layer's cache hits). `prepared` must have exactly one entry per
  /// shard, entry i built against shard i. An entry is one of:
  ///  - null: the shard plans, builds and evaluates its skeleton, then
  ///    annotates it;
  ///  - a skeleton with the request's PDT signature: it is annotated
  ///    with the request's keywords;
  ///  - an annotated bundle with the request's plan signature: its
  ///    candidates are scored as they are;
  ///  - caller-built PDTs: the view is evaluated over them.
  /// A skeleton entry needs the request's keywords, connective and
  /// signature: it is annotated from `plan`, the caller's plan of the
  /// request (only read), and without one Open returns InvalidArgument.
  /// Only a shard that builds a skeleton plans again, since the skeleton
  /// owns its plan.
  /// The bundle shard i ran is the cursor's SharedPrepared(i); a
  /// skeleton a shard built is that bundle's `skeleton`.
  Result<std::unique_ptr<ResultCursor>> Open(
      const SearchRequest& request,
      std::vector<std::shared_ptr<const PreparedQuery>> prepared,
      const QueryPlan* plan = nullptr) const;

  /// Open + drain, for batch callers.
  Result<SearchResponse> Execute(const SearchRequest& request) const;

  /// Stage 1: parse + QPT generation + signature. Shard-independent.
  Result<QueryPlan> PlanQuery(const std::string& query) const;

  /// Stage 2: the skeleton of the plan's view against shard `shard`'s
  /// indexes (0 = the only shard of an unsharded engine) — PDTs for
  /// every QPT, the view evaluated over them — and the bundle annotating
  /// it with the plan's keywords, which is returned.
  Result<std::shared_ptr<const PreparedQuery>> BuildPdts(QueryPlan plan,
                                                         int shard = 0) const;

  int shard_count() const { return static_cast<int>(shards_.size()); }

 private:
  struct ShardEval;  // one shard's evaluation product (defined in .cc)

  /// A skeleton's PDTs, built from `plan` (which the skeleton keeps);
  /// its view is still to be evaluated (EvaluateSkeleton).
  Result<std::shared_ptr<PreparedQuery>> BuildSkeletonPdts(
      QueryPlan plan, size_t shard, const CancellationToken* cancel) const;
  /// Evaluates the skeleton's view over its PDTs and records the view
  /// statistics, completing the skeleton.
  Status EvaluateSkeleton(size_t shard, PreparedQuery* skeleton,
                          const CancellationToken* cancel) const;
  /// The bundle of `skeleton` for the keyword set of `facts` (a plan
  /// whose PDT signature is the skeleton's).
  Result<std::shared_ptr<PreparedQuery>> Annotate(
      std::shared_ptr<const PreparedQuery> skeleton, const QueryPlan& facts,
      size_t shard, const CancellationToken* cancel) const;
  /// Caller-built PDTs: the view evaluated over them for this request.
  Result<ShardEval> EvaluateShard(
      size_t shard, std::shared_ptr<const PreparedQuery> prepared,
      const CancellationToken* cancel) const;
  /// Scores every shard's candidates against the global idf into one
  /// cursor; `evals` and `shard_spans` hold one entry per shard.
  Result<std::unique_ptr<ResultCursor>> FinalizeCursor(
      std::vector<ShardEval> evals, size_t top_k,
      std::shared_ptr<CancellationToken> token,
      std::shared_ptr<obs::Trace> trace,
      std::vector<obs::TraceSpan*> shard_spans) const;

  std::vector<ShardContext> shards_;  // corpus order; size >= 1
  ThreadPool* pool_ = nullptr;        // per-shard execution; may be null
};

}  // namespace quickview::engine

#endif  // QUICKVIEW_ENGINE_VIEW_SEARCH_ENGINE_H_
