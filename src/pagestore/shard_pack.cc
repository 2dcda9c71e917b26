#include "pagestore/shard_pack.h"

#include <fstream>
#include <sstream>
#include <utility>

#include "pagestore/pack.h"

namespace quickview::pagestore {

namespace {

constexpr char kExtension[] = ".qvset";

std::string BasePath(const std::string& path) {
  const std::string ext(kExtension);
  if (path.size() > ext.size() &&
      path.compare(path.size() - ext.size(), ext.size(), ext) == 0) {
    return path.substr(0, path.size() - ext.size());
  }
  return path;
}

std::string FileName(const std::string& path) {
  size_t slash = path.find_last_of('/');
  return slash == std::string::npos ? path : path.substr(slash + 1);
}

}  // namespace

std::string ShardManifestPath(const std::string& path) {
  return BasePath(path) + kExtension;
}

std::string ShardPackPath(const std::string& path, int shard) {
  return BasePath(path) + ".shard" + std::to_string(shard) + ".qvpack";
}

Status WriteShardManifest(const std::string& path,
                          const ShardManifest& manifest) {
  if (manifest.shards <= 0 ||
      manifest.pack_files.size() != static_cast<size_t>(manifest.shards)) {
    return Status::InvalidArgument(
        "shard manifest needs one pack file per shard");
  }
  std::ofstream out(ShardManifestPath(path),
                    std::ios::binary | std::ios::trunc);
  if (!out) {
    return Status::Internal("cannot write shard manifest '" +
                            ShardManifestPath(path) + "'");
  }
  out << "qvset 1\n";
  out << "shards " << manifest.shards << "\n";
  for (int i = 0; i < manifest.shards; ++i) {
    out << "shard " << i << " " << manifest.pack_files[i] << "\n";
  }
  out.flush();
  if (!out) {
    return Status::Internal("short write on shard manifest '" +
                            ShardManifestPath(path) + "'");
  }
  return Status::OK();
}

Result<ShardManifest> ReadShardManifest(const std::string& path) {
  const std::string manifest_path = ShardManifestPath(path);
  std::ifstream in(manifest_path, std::ios::binary);
  if (!in) {
    return Status::NotFound("no shard manifest at '" + manifest_path + "'");
  }
  std::string magic;
  int version = 0;
  in >> magic >> version;
  if (!in || magic != "qvset" || version != 1) {
    return Status::ParseError("'" + manifest_path +
                              "' is not a qvset v1 manifest");
  }
  ShardManifest manifest;
  std::string keyword;
  in >> keyword >> manifest.shards;
  if (!in || keyword != "shards" || manifest.shards <= 0) {
    return Status::ParseError("'" + manifest_path +
                              "' has a malformed shard count");
  }
  // The count is untrusted: entries are appended as they are read, so a
  // huge count with few entries fails at the first missing one instead
  // of allocating for the claimed size.
  for (int i = 0; i < manifest.shards; ++i) {
    int index = -1;
    std::string file;
    in >> keyword >> index >> file;
    if (!in || keyword != "shard" || index != i || file.empty()) {
      return Status::ParseError("'" + manifest_path +
                                "' has a malformed entry for shard " +
                                std::to_string(i));
    }
    manifest.pack_files.push_back(std::move(file));
  }
  return manifest;
}

Status PackShardedDb(const xml::Database& database,
                     const storage::ShardingSpec& spec,
                     const std::string& path) {
  QUICKVIEW_ASSIGN_OR_RETURN(
      std::vector<std::unique_ptr<xml::Database>> shards,
      storage::PartitionDatabase(database, spec));
  ShardManifest manifest;
  manifest.shards = spec.shards;
  for (int i = 0; i < spec.shards; ++i) {
    const xml::Database& shard_db = *shards[static_cast<size_t>(i)];
    std::unique_ptr<index::DatabaseIndexes> indexes =
        index::BuildDatabaseIndexes(shard_db);
    const std::string pack_path = ShardPackPath(path, i);
    QV_RETURN_IF_ERROR(PackDatabase(shard_db, *indexes, pack_path));
    manifest.pack_files.push_back(FileName(pack_path));
  }
  return WriteShardManifest(path, manifest);
}

}  // namespace quickview::pagestore
