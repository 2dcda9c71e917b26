// In-process replay of the benchmark's requests against the same inputs
// the server loads. It calls each layer's public functions in the order
// the server's read path does — plan (qpt), PDT-cache lookup (service),
// PrepareLists (index) + GeneratePdtFromLists (pdt) per QPT on a miss,
// ViewSearchEngine::Open (engine), ResultCursor::FetchNext (storage,
// pagestore), and the wire codecs (server) — wrapping each call in a
// span. Like the server's QueryService, the engine evaluates a sharded
// corpus's shards in parallel on a pool of hardware_concurrency threads;
// PDTs of cache misses are built one QPT at a time on the calling
// thread, so PrepareLists and GeneratePdtFromLists get spans of their
// own. Its answers are the oracle of the output check; with a disabled
// recorder it is also the untraced baseline of bench.trace_overhead.
#ifndef PERFBENCH_QVBENCH_REPLAY_H_
#define PERFBENCH_QVBENCH_REPLAY_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/thread_pool.h"
#include "engine/view_search_engine.h"
#include "index/index_builder.h"
#include "qvbench/answers.h"
#include "qvbench/inputs.h"
#include "qvbench/spans.h"
#include "service/prepared_query_cache.h"
#include "storage/document_store.h"
#include "storage/live_database.h"
#include "storage/shard_set.h"
#include "xml/dom.h"

namespace qvbench {

/// Work counters of replayed reads (layer ratios are formed from these).
struct ReadCounters {
  uint64_t requests = 0;
  uint64_t hits = 0;
  uint64_t index_probes = 0;
  uint64_t ids_processed = 0;
  uint64_t nodes_emitted = 0;
  uint64_t peak_ct_nodes = 0;
  uint64_t pdt_bytes = 0;
  uint64_t pdt_memory_bytes = 0;
  uint64_t view_results = 0;
  uint64_t matching_results = 0;
  uint64_t store_fetches = 0;
  uint64_t store_bytes = 0;
  uint64_t pages_read = 0;
  uint64_t responses = 0;
  uint64_t response_bytes = 0;
  std::vector<double> eval_ms;     // ModuleTimings::eval_ms per request
  std::vector<double> shard_skew;  // slowest shard eval / mean, per request
};

/// The read path over one corpus surface (static, sharded or live).
class ReadExecutor {
 public:
  explicit ReadExecutor(std::vector<std::string> views);

  /// Executes one kSearch / kPaged request over `shards` and returns the
  /// digest of the hits the client would receive. `cache_epoch` is part
  /// of the PDT-cache key (live mode bumps it when the view's data
  /// changes). `spans` / `counters` may be null.
  quickview::Result<Digest> Read(
      const Request& request,
      const std::vector<quickview::engine::ShardContext>& shards,
      uint64_t cache_epoch, uint64_t id, SpanRecorder* spans,
      ReadCounters* counters);

 private:
  quickview::Result<std::shared_ptr<const quickview::engine::PreparedQuery>>
  BuildPdts(quickview::engine::QueryPlan plan,
            const quickview::index::IndexSource* indexes, uint64_t id,
            int parent, SpanRecorder* spans, ReadCounters* counters);

  std::vector<std::string> views_;
  quickview::service::PreparedQueryCache cache_;
  quickview::ThreadPool pool_;  // per-shard evaluation, as the server's
};

/// The static corpus of cold_plans / hot_paged, loaded the way the
/// server loads it: a database directory (in-memory indexes) or a packed
/// shard set with the server's frame budget.
struct StaticCorpus {
  std::shared_ptr<quickview::xml::Database> db;
  std::unique_ptr<quickview::index::DatabaseIndexes> indexes;
  std::unique_ptr<quickview::storage::DocumentStore> store;
  std::unique_ptr<quickview::storage::ShardSet> shards;
  double index_build_s = 0;
  double open_s = 0;

  std::vector<quickview::engine::ShardContext> contexts() const;
};
quickview::Result<std::unique_ptr<StaticCorpus>> OpenStaticCorpus(
    Workload workload, const std::string& setup_dir);

/// live_ingest's replay surface: a LiveDatabase over the same database
/// directory, no WAL. Mutations run under its writer lock (the
/// storage.* spans), reads under its reader lock.
class LiveReplay {
 public:
  static quickview::Result<std::unique_ptr<LiveReplay>> Open(
      const std::string& setup_dir, std::vector<std::string> views);

  /// Insert / remove / replace, in spans xml.parse + storage.<op>.
  quickview::Status Mutate(const Request& op, uint64_t id,
                           SpanRecorder* spans);
  quickview::Result<Digest> Read(const Request& request, uint64_t id,
                                 SpanRecorder* spans, ReadCounters* counters);

  double index_build_s() const { return index_build_s_; }

 private:
  LiveReplay(std::shared_ptr<quickview::xml::Database> db,
             std::vector<std::string> views);

  quickview::storage::LiveDatabase live_;
  ReadExecutor executor_;
  uint64_t view_epoch_ = 0;  // bumped by every reviews.xml mutation
  double index_build_s_ = 0;
};

}  // namespace qvbench

#endif  // PERFBENCH_QVBENCH_REPLAY_H_
