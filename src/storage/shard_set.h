// ShardSet: an ordered partition of one logical corpus into N
// self-contained shards — each with its own Database (or packed file),
// its own indexes and its own DocumentStore — the unit the
// ViewSearchEngine and the QueryService execute over. Every static
// corpus is a ShardSet: an unsharded one is the one-shard case
// (FromDatabase over an in-memory database, FromPack over one .qvpack).
//
// Partition scheme (ordered + contiguous, the property the engine's
// byte-identity guarantee rests on):
//   - The ANCHOR document (lowest root component) has its top-level
//     children split into N contiguous ranges: shard s gets children
//     [s*m/N, (s+1)*m/N). Concatenating the shards in order reproduces
//     the original child sequence exactly.
//   - With a `colocate_tag` (a join-key element tag, e.g. "isbn"), each
//     anchor child's key value is mapped to its shard; later documents'
//     top-level children are routed to the shard of their matching key,
//     so value joins (reviews following their book) stay shard-local.
//     Children with no or unknown key fall back to their document's own
//     contiguous split.
//   - Every shard keeps EVERY document name with its original root
//     component (possibly as a root-only empty document), so views
//     referencing any corpus document evaluate on every shard.
// Views whose outer sequence follows a partitioned document's child
// order (all shipped workloads) therefore produce, per shard, exactly
// the global result subsequence falling in that shard's ranges — in
// order. Cross-document joins must be covered by colocate_tag; a view
// joining on a non-colocated key would lose cross-shard pairs.
#ifndef QUICKVIEW_STORAGE_SHARD_SET_H_
#define QUICKVIEW_STORAGE_SHARD_SET_H_

#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "index/index_builder.h"
#include "index/index_view.h"
#include "pagestore/buffer_pool.h"
#include "pagestore/packed_db.h"
#include "storage/document_store.h"
#include "xml/dom.h"

namespace quickview::storage {

struct ShardingSpec {
  int shards = 1;  // must be >= 1
  /// Join-key element tag for co-location (see file comment). Empty:
  /// every document splits contiguously on its own.
  std::string colocate_tag;
};

/// Splits `database` into spec.shards databases per the scheme above.
/// Returned databases are in shard order; every input document name
/// appears in every output database.
Result<std::vector<std::unique_ptr<xml::Database>>> PartitionDatabase(
    const xml::Database& database, const ShardingSpec& spec);

/// One shard, fully wired: exactly one of `database` (in-memory mode) or
/// `packed` (paged mode) is set, plus the matching index source and a
/// DocumentStore over it. `database` is shared so a one-shard set can
/// serve a database its caller also holds, without a copy.
struct Shard {
  std::shared_ptr<const xml::Database> database;
  std::shared_ptr<const pagestore::PackedDb> packed;
  std::unique_ptr<index::DatabaseIndexes> indexes;  // in-memory mode only
  std::unique_ptr<DocumentStore> store;

  const index::IndexSource* index_source() const {
    if (indexes != nullptr) return indexes.get();
    return packed.get();
  }
};

class ShardSet {
 public:
  /// In-memory mode: partitions `database`, builds per-shard indexes and
  /// stores. The input database is only read.
  static Result<ShardSet> Partition(const xml::Database& database,
                                    const ShardingSpec& spec);

  /// Paged mode: opens the `.qvset` manifest written by
  /// pagestore::PackShardedDb and every shard pack it lists. The frame
  /// budget `total_frames` is divided evenly across the shards' buffer
  /// pools (minimum 8 frames each), so a sharded corpus competes for the
  /// same residency an unsharded one would get.
  static Result<ShardSet> OpenPacked(const std::string& qvset_path,
                                     size_t total_frames = 256);

  /// One-shard in-memory set over `database` itself (shared, not
  /// copied); builds its indexes once.
  static ShardSet FromDatabase(std::shared_ptr<const xml::Database> database);

  /// One-shard paged set over a single .qvpack file (and its delta log,
  /// if any) behind a `frames`-frame buffer pool.
  static Result<ShardSet> FromPack(const std::string& qvpack_path,
                                   size_t frames = 256);

  size_t size() const { return shards_.size(); }
  const Shard& shard(size_t i) const { return shards_[i]; }
  bool paged() const {
    return !shards_.empty() && shards_[0].packed != nullptr;
  }

 private:
  std::vector<Shard> shards_;
};

}  // namespace quickview::storage

#endif  // QUICKVIEW_STORAGE_SHARD_SET_H_
