#include "service/backend.h"

#include <fstream>
#include <sstream>
#include <string_view>
#include <utility>

#include "pagestore/packed_db.h"
#include "storage/persistence.h"
#include "workload/bookrev_generator.h"

namespace quickview::service {

namespace {

bool HasSuffix(const std::string& path, std::string_view suffix) {
  return path.size() > suffix.size() &&
         path.compare(path.size() - suffix.size(), suffix.size(), suffix) == 0;
}

Result<std::string> ReadViewText(const std::string& view_file) {
  if (view_file.empty()) return workload::BookRevView();
  std::ifstream in(view_file, std::ios::binary);
  if (!in) return Status::NotFound("cannot open " + view_file);
  std::ostringstream content;
  content << in.rdbuf();
  return content.str();
}

/// Rejects the flag combinations no corpus kind can honour.
Status CheckOptions(const BackendOptions& options) {
  const bool packed =
      IsPackPath(options.source) || IsShardSetPath(options.source);
  if (!options.wal.empty() && !options.live) {
    return Status::InvalidArgument("--wal requires --live");
  }
  if (options.live && packed) {
    return Status::InvalidArgument("--live needs an in-memory corpus, not " +
                                   options.source);
  }
  if (options.live && options.shards > 0) {
    return Status::InvalidArgument("--shards cannot partition a --live corpus");
  }
  if (packed && options.shards > 0) {
    return Status::InvalidArgument(
        "--shards partitions an in-memory corpus; " + options.source +
        " is already packed (pack --shards N writes a sharded .qvset)");
  }
  return Status::OK();
}

/// The paged one-shard set and its banner (page count, and the delta
/// log's effect when the pack has one).
Result<storage::ShardSet> OpenPack(const BackendOptions& options,
                                   std::string* banner) {
  QUICKVIEW_ASSIGN_OR_RETURN(
      storage::ShardSet set,
      storage::ShardSet::FromPack(options.source, options.frames));
  const pagestore::PackedDb& packed = *set.shard(0).packed;
  *banner += "opened " + options.source + ": " +
             std::to_string(packed.file().page_count()) + " pages, " +
             std::to_string(packed.document_names().size()) + " documents, " +
             std::to_string(options.frames) + "-frame pool\n";
  const pagestore::PackedDb::DeltaStats& delta = packed.delta_stats();
  if (delta.inserts + delta.tombstones != 0) {
    *banner += "delta log: " + std::to_string(delta.inserts) + " inserts, " +
               std::to_string(delta.tombstones) + " tombstones applied (" +
               std::to_string(delta.overlay_documents) +
               " overlay documents, " +
               std::to_string(delta.masked_base_documents) +
               " packed documents masked)\n";
  }
  return set;
}

}  // namespace

Result<std::shared_ptr<xml::Database>> LoadCorpus(const std::string& source) {
  if (source.empty()) {
    return workload::GenerateBookRevDatabase(workload::BookRevOptions{});
  }
  return storage::LoadDatabase(source);
}

bool IsPackPath(const std::string& path) { return HasSuffix(path, ".qvpack"); }

bool IsShardSetPath(const std::string& path) {
  return HasSuffix(path, ".qvset");
}

Result<Backend> OpenBackend(const BackendOptions& options) {
  QUICKVIEW_RETURN_IF_ERROR(CheckOptions(options));
  QUICKVIEW_ASSIGN_OR_RETURN(std::string view_text,
                             ReadViewText(options.view_file));
  Backend backend;
  if (IsShardSetPath(options.source)) {
    QUICKVIEW_ASSIGN_OR_RETURN(
        storage::ShardSet set,
        storage::ShardSet::OpenPacked(options.source, options.frames));
    backend.banner = "opened " + options.source + ": " +
                     std::to_string(set.size()) + " shards, " +
                     std::to_string(options.frames) + "-frame pool total\n";
    backend.shards = std::make_unique<storage::ShardSet>(std::move(set));
  } else if (IsPackPath(options.source)) {
    QUICKVIEW_ASSIGN_OR_RETURN(storage::ShardSet set,
                               OpenPack(options, &backend.banner));
    backend.shards = std::make_unique<storage::ShardSet>(std::move(set));
  } else {
    QUICKVIEW_ASSIGN_OR_RETURN(std::shared_ptr<xml::Database> db,
                               LoadCorpus(options.source));
    if (options.live) {
      backend.live = std::make_unique<storage::LiveDatabase>(db);
      if (!options.wal.empty()) {
        QUICKVIEW_RETURN_IF_ERROR(backend.live->OpenWal(options.wal));
        const pagestore::WalReplay& replay = backend.live->wal()->replay();
        backend.banner += "wal " + options.wal + ": replayed " +
                          std::to_string(replay.payloads.size()) +
                          " committed records" +
                          (replay.tail_truncated ? " (torn tail truncated)"
                                                 : "") +
                          "\n";
      }
      backend.banner += "live corpus: " +
                        std::to_string(db->documents().size()) +
                        " documents (Insert/Remove enabled" +
                        (options.wal.empty() ? "" : ", durable") + ")\n";
    } else if (options.shards > 0) {
      storage::ShardingSpec spec;
      spec.shards = options.shards;
      spec.colocate_tag = options.colocate;
      QUICKVIEW_ASSIGN_OR_RETURN(storage::ShardSet set,
                                 storage::ShardSet::Partition(*db, spec));
      backend.shards = std::make_unique<storage::ShardSet>(std::move(set));
      backend.banner = "partitioned corpus into " +
                       std::to_string(options.shards) + " shards" +
                       (options.colocate.empty()
                            ? std::string()
                            : " (colocated by <" + options.colocate + ">)") +
                       "\n";
    } else {
      backend.shards = std::make_unique<storage::ShardSet>(
          storage::ShardSet::FromDatabase(std::move(db)));
    }
  }
  QueryServiceOptions service_options;
  service_options.threads = options.threads;
  if (backend.live != nullptr) {
    backend.service =
        std::make_unique<QueryService>(backend.live.get(), service_options);
  } else {
    backend.service =
        std::make_unique<QueryService>(backend.shards.get(), service_options);
  }
  QUICKVIEW_RETURN_IF_ERROR(
      backend.service->RegisterView("default", view_text));
  return backend;
}

}  // namespace quickview::service
