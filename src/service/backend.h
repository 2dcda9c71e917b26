// OpenBackend: the one place a corpus named on a command line becomes a
// serving QueryService, shared by quickview_cli (serve, page) and
// quickview_server. Every static corpus opens as a storage::ShardSet —
// the built-in demo corpus or a database directory as a one-shard
// in-memory set (or an N-shard partition with `shards`), a .qvpack file
// as a one-shard paged set, a .qvset manifest as its N-shard paged set —
// and `live` wraps an in-memory corpus in a storage::LiveDatabase
// instead. Flag combinations a corpus cannot honour fail with
// InvalidArgument.
#ifndef QUICKVIEW_SERVICE_BACKEND_H_
#define QUICKVIEW_SERVICE_BACKEND_H_

#include <cstddef>
#include <memory>
#include <string>

#include "common/result.h"
#include "service/query_service.h"
#include "storage/live_database.h"
#include "storage/shard_set.h"

namespace quickview::service {

/// True for paths naming a packed single-file database (`.qvpack`).
bool IsPackPath(const std::string& path);

/// True for paths naming a sharded pack-set manifest (`.qvset`).
bool IsShardSetPath(const std::string& path);

/// The in-memory corpus `source` names: the built-in books/reviews
/// corpus when empty, else a database directory.
Result<std::shared_ptr<xml::Database>> LoadCorpus(const std::string& source);

/// The corpus flags the tools parse, one field per flag.
struct BackendOptions {
  /// A database directory, a .qvpack file or a .qvset manifest; empty
  /// serves the built-in books/reviews corpus.
  std::string source;
  /// --view: file holding the view registered as "default"; empty
  /// registers the built-in books/reviews view.
  std::string view_file;
  size_t frames = 256;   // --frames: buffer-pool frame budget (packed)
  int shards = 0;        // --shards: partition an in-memory corpus into N
  std::string colocate;  // --colocate: join-key tag for that partition
  bool live = false;     // --live: Insert/Remove over an in-memory corpus
  std::string wal;       // --wal: durable commit log; requires --live
  int threads = 0;       // --threads: QueryService pool; 0 = all cores
};

/// Everything a serving run needs; `service` points into the corpus
/// members and is declared last, so it is destroyed first.
struct Backend {
  std::unique_ptr<storage::ShardSet> shards;    // static corpora
  std::unique_ptr<storage::LiveDatabase> live;  // --live
  std::unique_ptr<QueryService> service;
  /// What was opened, one "\n"-terminated line each (empty for the
  /// plain in-memory case); the tools print it as their startup banner.
  std::string banner;
};

/// Opens the corpus `options` names and a QueryService over it with the
/// "default" view registered. InvalidArgument for --shards over a
/// .qvpack or .qvset, --shards or a packed source with --live, and --wal
/// without --live.
Result<Backend> OpenBackend(const BackendOptions& options);

}  // namespace quickview::service

#endif  // QUICKVIEW_SERVICE_BACKEND_H_
