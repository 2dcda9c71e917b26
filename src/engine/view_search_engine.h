// The quickview public facade: ranked keyword search over virtual XML
// views, implementing the full architecture of paper Fig 3 —
//   parse -> QPT generation -> PDT generation (indices only)
//         -> unmodified evaluation over PDTs -> scoring -> top-k
//         -> materialization (the only base-data access).
//
// One engine serves one corpus, which may be a single (database, indexes,
// store) triple or an ordered list of shards of one logical corpus. The
// unified entry point is Open(SearchRequest): it validates once, plans
// once, fans PDT generation + evaluation + statistics collection out per
// shard (on the engine's ThreadPool when it has one), folds the integer
// keyword statistics into ONE global idf, and returns a ResultCursor
// whose MergedRankedStream pops hits in exactly the order the unsharded
// engine would produce — sharding is an execution strategy, never a
// semantic: responses are byte-identical at any shard count.
//
// The pipeline stays split into cacheable stages:
//   PlanQuery       parse + QPT generation + canonical plan signature
//                   (cost proportional to the query, never the data);
//   BuildPdts       PrepareLists + GeneratePdt per QPT against ONE
//                   shard's indexes, with no keywords (the PDT skeleton:
//                   the data-dependent stage, the same for every keyword
//                   set), then the keywords' term frequencies added to a
//                   copy (the annotated bundle). Both are PreparedQuery
//                   values, immutable and shareable;
//   Open            evaluation + scoring + ranked merge, returning a
//                   ResultCursor. Hits are materialized lazily, per
//                   ResultCursor::FetchNext call, shard by shard.
#ifndef QUICKVIEW_ENGINE_VIEW_SEARCH_ENGINE_H_
#define QUICKVIEW_ENGINE_VIEW_SEARCH_ENGINE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "engine/engine_stats.h"
#include "engine/search_request.h"
#include "index/index_builder.h"
#include "pdt/generate_pdt.h"
#include "storage/document_store.h"
#include "xml/dom.h"
#include "xquery/ast.h"

namespace quickview {
class ThreadPool;  // common/thread_pool.h
}  // namespace quickview

namespace quickview::storage {
class ShardSet;  // storage/shard_set.h
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

/// A plan plus its generated PDTs — for ONE shard (an unsharded corpus
/// is the one-shard case). Immutable after BuildPdts returns; any number
/// of threads may open cursors against one instance. It comes in two
/// kinds:
///  - an annotated bundle (the default): PDTs whose 'c' nodes carry the
///    plan's keywords' term frequencies, ready to evaluate;
///  - a skeleton: the PDTs built with no keywords, whose 'c' nodes carry
///    no term frequencies. Its plan holds only the PDT signature.
///    Every keyword set over the same QPTs shares it; Open annotates a
///    copy per query.
struct PreparedQuery {
  QueryPlan plan;
  std::vector<std::shared_ptr<xml::Document>> pdts;
  /// Aggregated over all QPTs. An annotated bundle reports its
  /// skeleton's figures: the PDTs are the same nodes.
  pdt::PdtBuildStats pdt_stats;
  double pdt_ms = 0;
  /// Approximate resident footprint of the PDTs, for cache budgets.
  uint64_t memory_bytes = 0;
  bool skeleton = false;
  /// On an annotated bundle whose skeleton was built along with it (not
  /// taken from the caller): that skeleton, so the service can cache it.
  std::shared_ptr<const PreparedQuery> built_skeleton;
};

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
  /// the merged ranked stream. No hit is materialized (no base data is
  /// touched) until FetchNext asks for it. Open is a barrier: when it
  /// returns, stats()/pending() are final (modulo lazily-growing fetch
  /// counters) and no shard work is running. On cancellation, deadline
  /// expiry, or a shard failure, every sibling shard task is stopped via
  /// the request's token before Open returns the typed error
  /// (Cancelled / DeadlineExceeded / the first shard's error, annotated
  /// with its shard number).
  Result<std::unique_ptr<ResultCursor>> Open(const SearchRequest& request) const;

  /// Open with caller-provided per-shard PreparedQueries (the service
  /// layer's cache hits). `prepared` must have exactly one entry per
  /// EXECUTED shard — all of them, or just the hinted one — each built
  /// against that shard. An entry is one of:
  ///  - null: the shard's skeleton is built, then annotated;
  ///  - a skeleton (PreparedQuery::skeleton) with the request's PDT
  ///    signature: it is annotated with the request's keywords;
  ///  - an annotated bundle with the request's plan signature: it is
  ///    evaluated as it is.
  /// The annotated bundle each shard ran is the cursor's
  /// SharedPrepared(slot); it carries the skeleton it built, if any.
  Result<std::unique_ptr<ResultCursor>> Open(
      const SearchRequest& request,
      std::vector<std::shared_ptr<const PreparedQuery>> prepared) const;

  /// Open + drain, for batch callers.
  Result<SearchResponse> Execute(const SearchRequest& request) const;

  /// Stage 1: parse + QPT generation + signature. Shard-independent.
  Result<QueryPlan> PlanQuery(const std::string& query) const;

  /// Stage 2: PDT generation for every QPT of the plan, against shard
  /// `shard`'s indexes (0 = the only shard of an unsharded engine): the
  /// skeleton, then its annotated copy, which is returned.
  Result<std::shared_ptr<const PreparedQuery>> BuildPdts(QueryPlan plan,
                                                         int shard = 0) const;

  int shard_count() const { return static_cast<int>(shards_.size()); }

 private:
  struct ShardEval;  // one shard's evaluation product (defined in .cc)

  /// Annotates `skeleton` with the plan's keywords, building the
  /// skeleton first when it is null.
  Result<std::shared_ptr<const PreparedQuery>> BuildPdtsImpl(
      QueryPlan plan, int shard, std::shared_ptr<const PreparedQuery> skeleton,
      const CancellationToken* cancel) const;
  Result<std::shared_ptr<const PreparedQuery>> BuildSkeleton(
      const QueryPlan& plan, const index::IndexSource& indexes,
      const CancellationToken* cancel) const;
  Result<ShardEval> EvaluateShard(
      size_t shard, std::shared_ptr<const PreparedQuery> prepared,
      const CancellationToken* cancel) const;
  Result<std::unique_ptr<ResultCursor>> FinalizeCursor(
      std::vector<ShardEval> evals, const std::vector<size_t>& shard_ids,
      size_t top_k, std::shared_ptr<CancellationToken> token,
      std::shared_ptr<obs::Trace> trace,
      std::vector<obs::TraceSpan*> shard_spans) const;

  std::vector<ShardContext> shards_;  // corpus order; size >= 1
  ThreadPool* pool_ = nullptr;        // per-shard execution; may be null
};

}  // namespace quickview::engine

#endif  // QUICKVIEW_ENGINE_VIEW_SEARCH_ENGINE_H_
