// QueryService: the multi-query front end over ViewSearchEngine. Views
// are registered once by name; batches of keyword queries against those
// views execute concurrently on a fixed thread pool, sharing one
// PreparedQueryCache at two levels: identical plans (same view, same QPT
// signature, same keywords) reuse an annotated bundle as it is — the
// engine scores it without evaluating anything — and a new keyword set
// over a view's QPTs reuses the view's skeleton (its keyword-free PDTs
// and the view evaluated over them), to which the engine adds only the
// keywords' term frequencies: a view's PDTs are built and its view
// evaluated once per shard, not once per keyword set. Either kind enters
// the cache on its second sighting (PreparedQueryCache::Offer), so a
// one-shot plan never takes cache memory or evicts a plan that recurs; a
// search offers the skeleton it built first, then the bundle with that
// skeleton's key, and the cache keeps a cached bundle's skeleton cached
// with it. A bundle built over a skeleton that lost a race to an
// identical build of another request is rebound to the cached one first
// (engine::RebindBundle). The service plans each request once, for its
// cache keys; the engine annotates a skeleton hit with that plan's
// keyword set, and only a shard that builds a skeleton plans again (the
// skeleton owns its plan).
//
// Requests are the engine's own engine::SearchRequest, whose `view`
// names a registered view; the service swaps in the view text before
// handing the request to the engine, which searches every shard.
//
// The result surface is pull-based: OpenSearch returns a session-handle
// ResultCursor whose FetchNext(n) materializes hits lazily (pagination
// without re-running the pipeline). The cursor pins its PreparedQuery
// via shared_ptr, so cache eviction and view re-registration cannot
// invalidate an open cursor. SearchOne / SearchBatch are thin wrappers
// that drain a cursor into the classic SearchResponse.
//
// Two backends, one cursor path. A static corpus is a storage::ShardSet
// (in memory or packed, one shard or many — an unsharded corpus is the
// one-shard case); a live corpus is a storage::LiveDatabase, of which a
// query pins one immutable storage::CorpusVersion. Either way OpenSearch
// hands PrepareCursor the corpus as engine::ShardContexts and every
// query runs the same plan -> cache -> Open(request, prepared) code.
//
// Cache keys name the corpus state a PDT was built from: the view's
// registration version and, over a live corpus, the version of each
// QPT's source document in the pinned corpus version. A write changes
// only the written document's version, so it invalidates exactly the
// cached PDTs of views that read that document.
//
// Threading model:
//  - in static mode the ShardSet is immutable after construction and
//    shared by every worker;
//  - in live mode (constructed over a storage::LiveDatabase) a query
//    pins the current corpus version once, in OpenSearch, and plans,
//    builds PDTs, evaluates and materializes from that version alone,
//    with no lock held, so it sees the corpus entirely before or
//    entirely after any update — never in between — and a writer never
//    waits for it. The cursor keeps the pin (a ResultCursor lease), so
//    hits fetched after later updates still come from the pinned state;
//  - per-query state (evaluator, scoring, materialization target) lives
//    on the worker's stack;
//  - cached PreparedQuery bundles are immutable and reference-counted,
//    so eviction never invalidates an executing query.
// Results are deterministic: a batch returns, per query, exactly the
// response a serial ViewSearchEngine::Execute call would produce
// against the same corpus state (timings aside).
#ifndef QUICKVIEW_SERVICE_QUERY_SERVICE_H_
#define QUICKVIEW_SERVICE_QUERY_SERVICE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/sync.h"
#include "engine/result_cursor.h"
#include "engine/view_search_engine.h"
#include "service/prepared_query_cache.h"
#include "common/thread_pool.h"
#include "storage/live_database.h"
#include "storage/shard_set.h"

namespace quickview::service {

struct QueryServiceOptions {
  /// Worker threads; 0 = std::thread::hardware_concurrency().
  int threads = 0;
  PreparedQueryCache::Options cache;
};

class QueryService {
 public:
  struct Stats {  // lint:allow(adhoc-stats) snapshot view; service registers obs:: instruments
    uint64_t queries = 0;
    /// Successful live-mode mutations (zero in the static modes).
    uint64_t documents_inserted = 0;
    uint64_t documents_removed = 0;
    PreparedQueryCache::Stats cache;
    /// Search counters summed over every DRAINED query (SearchOne /
    /// SearchBatch — cursors handed out by OpenSearch are not counted).
    /// Buffer-pool counters are registry series (RegisterMetrics), not
    /// part of this snapshot.
    engine::SearchStats search;
  };

  /// Static mode: queries fan out over every shard of `shards` (which
  /// must outlive the service and is treated as immutable) on the
  /// service's thread pool; the merged response is byte-identical at any
  /// shard count. PDTs are cached PER SHARD — the cache key gains a
  /// "/s<i>" suffix — so a corpus of N shards warms N bundles per plan
  /// and N skeletons per view.
  explicit QueryService(const storage::ShardSet* shards,
                        const QueryServiceOptions& options = {});

  /// Live mode: queries and document mutations interleave against `live`
  /// (which must outlive the service). Each query pins one corpus
  /// version; the database synchronizes its own writes. A direct
  /// CommitInsert/CommitRemove is as safe as InsertDocument/
  /// RemoveDocument — it only skips the service's mutation counters.
  explicit QueryService(storage::LiveDatabase* live,
                        const QueryServiceOptions& options = {});

  /// Live mode only: inserts (or replaces) the named document, which
  /// changes the cache keys of exactly the views that read it. In-flight
  /// cursors keep their pinned version. InvalidArgument on a static-mode
  /// service.
  Status InsertDocument(const std::string& name, const std::string& xml_text);

  /// Live mode only: removes the named document. Queries against views
  /// referencing it then fail per-slot with NotFound until it returns.
  Status RemoveDocument(const std::string& name);

  /// Registers (or replaces) a view under `name`. Replacing a view bumps
  /// its cache-key version, so stale PDTs can never serve the new text.
  /// Not intended to race with in-flight batches against the same name.
  Status RegisterView(const std::string& name, const std::string& view_text)
      QV_EXCLUDES(views_mu_);

  /// Opens a cursor over the request's ranked result stream on the
  /// calling thread: plan -> cached (or fresh) PDTs -> evaluate + score.
  /// The request's `view` is the registered view NAME, and it searches
  /// every shard (a live corpus has exactly one). An invalid request
  /// (SearchRequest::Validate) is InvalidArgument. The deadline is
  /// measured from this call. No hit is
  /// materialized until the caller's first FetchNext. The cursor is a
  /// self-contained session handle — it keeps the underlying
  /// PreparedQuery alive, so it stays valid across cache eviction, view
  /// re-registration, and other queries; the service itself (and its
  /// database/index/store) must merely outlive it. The cursor yields at
  /// most request.options.top_k hits.
  Result<std::unique_ptr<engine::ResultCursor>> OpenSearch(
      const engine::SearchRequest& request) QV_EXCLUDES(views_mu_);

  /// Executes the whole batch on the pool; response i answers request i.
  /// Individual failures are per-slot errors, not batch failures.
  /// Implemented as one drained cursor per request.
  std::vector<Result<engine::SearchResponse>> SearchBatch(
      const std::vector<engine::SearchRequest>& requests);

  /// Executes one request on the calling thread (used by the batch
  /// workers; public so callers can bypass the pool): OpenSearch + drain.
  Result<engine::SearchResponse> SearchOne(
      const engine::SearchRequest& request);

  /// Drops all cached PDTs (cold-cache measurements, corpus swaps); plans
  /// sighted before are admitted again on their next miss.
  void ClearCache() { cache_.Clear(); }

  Stats stats() const;
  int threads() const { return pool_.thread_count(); }

  /// Registers the service's instruments (qv_service_*) plus those of
  /// its PDT cache, thread pool, live database and every packed shard's
  /// buffer pool (labelled shard="<i>", also on a one-shard corpus) into
  /// `registry`. Call once, after construction; the service must outlive
  /// the registry reads.
  Status RegisterMetrics(obs::MetricsRegistry* registry,
                         obs::LabelSet labels = {}) const;

 private:
  struct RegisteredView {
    std::string text;
    uint64_t version = 0;  // bumped by RegisterView; part of the cache key
  };

  enum class Mutation { kInsert, kRemove };

  /// Shared body of both mutation entry points: hands the insert or
  /// remove to the live database; on success `counter` advances.
  Status ApplyMutation(Mutation op, const std::string& name,
                       const std::string& xml_text, obs::Counter* counter);

  /// A copy of the registered view, read under views_mu_.
  Result<RegisteredView> SnapshotView(const std::string& name)
      QV_EXCLUDES(views_mu_);

  /// The corpus-state part of a cache key: the view's registration
  /// version and, when `corpus` is set, the version of each QPT's source
  /// document in it ('-' for an absent document).
  static std::string VersionKey(const RegisteredView& view,
                                const storage::CorpusVersion* corpus,
                                const std::vector<qpt::Qpt>& qpts);

  /// The shard-independent cache key prefix: length-prefixed view name,
  /// VersionKey, plan signature (see PrepareCursor for why each part is
  /// there). Per-shard keys append "/s<i>". With `versions` empty the
  /// corpus state is left out: that is the plan's admission key, the
  /// same before and after a re-registration or a write. With
  /// `skeleton`, `signature` is the plan's PDT signature and the key
  /// names the view's keyword-free PDT skeleton.
  static std::string BaseCacheKey(const std::string& view_name,
                                  const std::string& versions,
                                  const std::string& signature,
                                  bool skeleton = false);

  /// The tail of OpenSearch once the corpus is fixed: plan, per-shard
  /// cache lookups, one engine.Open(request, prepared) over `contexts`
  /// (fanned out on the pool), then cache fills for the shards the
  /// engine had to build. In live mode `corpus` is the version the
  /// contexts read, and the cursor keeps it pinned; in static mode it is
  /// null and the contexts are the immutable ShardSet.
  Result<std::unique_ptr<engine::ResultCursor>> PrepareCursor(
      const engine::SearchRequest& query,
      std::vector<engine::ShardContext> contexts,
      std::shared_ptr<const storage::CorpusVersion> corpus)
      QV_EXCLUDES(views_mu_);

  /// Folds one drained cursor's search counters into the service-lifetime
  /// accumulator behind stats().search.
  void FoldSearchStats(const engine::SearchStats& stats)
      QV_EXCLUDES(stats_mu_);

  /// Exactly one of the two is set. In live mode every query pins the
  /// current version of live_.
  const storage::ShardSet* shards_ = nullptr;
  storage::LiveDatabase* live_ = nullptr;
  /// Cumulative search counters over drained queries (Stats::search).
  mutable qv::Mutex stats_mu_;
  engine::SearchStats search_stats_ QV_GUARDED_BY(stats_mu_);
  mutable qv::SharedMutex views_mu_;
  std::map<std::string, RegisteredView> views_ QV_GUARDED_BY(views_mu_);
  PreparedQueryCache cache_;
  // Registry-native counters (stats() is a thin view over them).
  obs::Counter queries_;
  obs::Counter inserts_;
  obs::Counter removes_;
  ThreadPool pool_;  // last: workers must stop before members above die
};

}  // namespace quickview::service

#endif  // QUICKVIEW_SERVICE_QUERY_SERVICE_H_
