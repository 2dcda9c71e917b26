// The unified stats surface of the engine: EngineStats nests the Fig-14
// wall clock (ModuleTimings), the pipeline counters (SearchStats) and the
// per-shard breakdown (ShardStats), and is what ResultCursor::stats()
// returns. SearchResponse carries the first two; QueryService::stats()
// sums only the SearchStats.
#ifndef QUICKVIEW_ENGINE_ENGINE_STATS_H_
#define QUICKVIEW_ENGINE_ENGINE_STATS_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "pdt/generate_pdt.h"

namespace quickview::engine {

/// Wall-clock per module, for the Fig 14 breakdown. In a sharded run the
/// per-module numbers are the MAX over shards (the wall-clock view of
/// parallel stages); per-shard wall time is in ShardStats.
struct ModuleTimings {
  double qpt_ms = 0;   // parse + QPT generation
  double pdt_ms = 0;   // PrepareLists + GeneratePdt (or baseline analogue)
  double eval_ms = 0;  // query evaluation (incl. any view materialization)
  double post_ms = 0;  // scoring + top-k materialization

  double total_ms() const { return qpt_ms + pdt_ms + eval_ms + post_ms; }
};

/// Pipeline counters, summed over shards in a sharded run.
struct SearchStats {  // lint:allow(adhoc-stats) per-request value type returned with results
  size_t view_results = 0;      // |V(D)|
  size_t matching_results = 0;  // after keyword semantics
  pdt::PdtBuildStats pdt;       // aggregated over all QPTs (and shards)
  uint64_t store_fetches = 0;   // base-data accesses
  uint64_t store_bytes = 0;
  /// Disk-backed execution only (zero over in-memory stores): node-record
  /// pages pulled from the packed file for this query's materialized hits,
  /// and buffer-pool hits those fetches scored. Grows lazily with the
  /// cursor, like store_fetches.
  uint64_t pages_read = 0;
  uint64_t buffer_hits = 0;
  /// Total bytes of the fully materialized view V(D) — what a
  /// materialize-first engine must produce; the Efficient engine's
  /// actual footprint is pdt.pdt_bytes + store_bytes instead.
  uint64_t view_bytes = 0;
};

/// One shard's slice of the query: final pipeline counters at Open,
/// store/page counters growing with the cursor as hits from this shard
/// are materialized. The lazy-materialization guarantee is therefore
/// observable PER SHARD: fetching the global top 10 touches only the
/// pages of the shards those 10 hits live on.
struct ShardStats {  // lint:allow(adhoc-stats) per-request value type returned with results
  size_t view_results = 0;
  size_t matching_results = 0;
  uint64_t store_fetches = 0;
  uint64_t store_bytes = 0;
  uint64_t pages_read = 0;
  uint64_t buffer_hits = 0;
  double pdt_ms = 0;
  double eval_ms = 0;
};

/// The one nested stats answer. `shards[i]` is shard i (a single entry
/// on an unsharded engine). Buffer-pool counters
/// live in the metrics registry (qv_bufferpool_*), not here.
struct EngineStats {  // lint:allow(adhoc-stats) per-request value type returned with results
  SearchStats search;
  ModuleTimings timings;
  std::vector<ShardStats> shards;
};

}  // namespace quickview::engine

#endif  // QUICKVIEW_ENGINE_ENGINE_STATS_H_
