#include "storage/shard_set.h"

#include <algorithm>
#include <map>
#include <utility>

#include "pagestore/shard_pack.h"
#include "xml/serializer.h"

namespace quickview::storage {

namespace {

/// Text value of the first subtree node (pre-order) tagged
/// `colocate_tag`, or empty when absent — the join key that routes a
/// top-level element to its shard.
std::string ColocateValue(const xml::Document& doc, xml::NodeIndex start,
                          const std::string& colocate_tag) {
  for (xml::NodeIndex i : doc.SubtreeNodes(start)) {
    if (doc.node(i).tag == colocate_tag) return doc.node(i).text;
  }
  return std::string();
}

/// Contiguous range assignment: child j of m goes to the shard s with
/// j in [s*m/N, (s+1)*m/N). Concatenating shards 0..N-1 reproduces the
/// original child order.
std::vector<size_t> ContiguousAssignment(size_t m, size_t shards) {
  std::vector<size_t> shard_of(m, 0);
  for (size_t s = 0; s < shards; ++s) {
    size_t begin = s * m / shards;
    size_t end = (s + 1) * m / shards;
    for (size_t j = begin; j < end; ++j) shard_of[j] = s;
  }
  return shard_of;
}

}  // namespace

Result<std::vector<std::unique_ptr<xml::Database>>> PartitionDatabase(
    const xml::Database& database, const ShardingSpec& spec) {
  if (spec.shards < 1) {
    return Status::InvalidArgument("shard count must be at least 1, got " +
                                   std::to_string(spec.shards));
  }
  const size_t shards = static_cast<size_t>(spec.shards);

  // Documents in root-component order: the lowest one is the anchor
  // whose contiguous split seeds the co-location map.
  std::map<uint32_t, std::pair<std::string, const xml::Document*>> by_root;
  for (const auto& [name, doc] : database.documents()) {
    by_root.emplace(doc->root_component(), std::make_pair(name, doc.get()));
  }

  std::vector<std::unique_ptr<xml::Database>> out;
  out.reserve(shards);
  for (size_t s = 0; s < shards; ++s) {
    out.push_back(std::make_unique<xml::Database>());
  }

  std::map<std::string, size_t> route;  // colocate value -> shard
  bool anchor = true;
  for (const auto& [root_component, named] : by_root) {
    const std::string& name = named.first;
    const xml::Document& doc = *named.second;

    // Every shard carries every document name (root-only when no child
    // lands there), so views referencing any document still evaluate.
    std::vector<std::shared_ptr<xml::Document>> pieces;
    pieces.reserve(shards);
    for (size_t s = 0; s < shards; ++s) {
      auto piece = std::make_shared<xml::Document>(root_component);
      if (doc.has_root()) piece->CreateRoot(doc.node(doc.root()).tag);
      pieces.push_back(std::move(piece));
    }

    if (doc.has_root()) {
      const std::vector<xml::NodeIndex>& children =
          doc.node(doc.root()).children;
      const size_t m = children.size();
      std::vector<size_t> shard_of = ContiguousAssignment(m, shards);
      if (!spec.colocate_tag.empty()) {
        if (anchor) {
          // The anchor's contiguous split defines where each key lives.
          for (size_t j = 0; j < m; ++j) {
            std::string key =
                ColocateValue(doc, children[j], spec.colocate_tag);
            if (!key.empty()) route.emplace(std::move(key), shard_of[j]);
          }
        } else {
          // Followers go to their key's shard; keyless or unknown-key
          // children keep their own contiguous slot.
          for (size_t j = 0; j < m; ++j) {
            std::string key =
                ColocateValue(doc, children[j], spec.colocate_tag);
            auto it = route.find(key);
            if (it != route.end()) shard_of[j] = it->second;
          }
        }
      }
      for (size_t j = 0; j < m; ++j) {
        xml::Document* piece = pieces[shard_of[j]].get();
        xml::CopySubtreeInto(doc, children[j], piece, piece->root());
      }
    }

    for (size_t s = 0; s < shards; ++s) {
      out[s]->AddDocument(name, std::move(pieces[s]));
    }
    anchor = false;
  }
  return out;
}

Result<ShardSet> ShardSet::Partition(const xml::Database& database,
                                     const ShardingSpec& spec) {
  QUICKVIEW_ASSIGN_OR_RETURN(
      std::vector<std::unique_ptr<xml::Database>> databases,
      PartitionDatabase(database, spec));
  ShardSet set;
  set.shards_.reserve(databases.size());
  for (std::unique_ptr<xml::Database>& db : databases) {
    Shard shard;
    shard.database = std::move(db);
    shard.indexes = index::BuildDatabaseIndexes(*shard.database);
    shard.store = std::make_unique<DocumentStore>(*shard.database);
    set.shards_.push_back(std::move(shard));
  }
  return set;
}

ShardSet ShardSet::FromDatabase(
    std::shared_ptr<const xml::Database> database) {
  Shard shard;
  shard.database = std::move(database);
  shard.indexes = index::BuildDatabaseIndexes(*shard.database);
  shard.store = std::make_unique<DocumentStore>(*shard.database);
  ShardSet set;
  set.shards_.push_back(std::move(shard));
  return set;
}

Result<ShardSet> ShardSet::FromPack(const std::string& qvpack_path,
                                    size_t frames) {
  pagestore::BufferPoolOptions pool;
  pool.frames = frames;
  Shard shard;
  QUICKVIEW_ASSIGN_OR_RETURN(shard.packed,
                             pagestore::PackedDb::Open(qvpack_path, pool));
  shard.store = std::make_unique<DocumentStore>(shard.packed);
  ShardSet set;
  set.shards_.push_back(std::move(shard));
  return set;
}

Result<ShardSet> ShardSet::OpenPacked(const std::string& qvset_path,
                                      size_t total_frames) {
  QUICKVIEW_ASSIGN_OR_RETURN(pagestore::ShardManifest manifest,
                             pagestore::ReadShardManifest(qvset_path));
  // Resolve pack files relative to the manifest's directory.
  std::string dir;
  size_t slash = qvset_path.find_last_of('/');
  if (slash != std::string::npos) dir = qvset_path.substr(0, slash + 1);

  pagestore::BufferPoolOptions pool;
  pool.frames = std::max<size_t>(
      8, total_frames / static_cast<size_t>(manifest.shards));

  ShardSet set;
  set.shards_.reserve(manifest.pack_files.size());
  for (const std::string& file : manifest.pack_files) {
    QUICKVIEW_ASSIGN_OR_RETURN(
        std::shared_ptr<pagestore::PackedDb> packed,
        pagestore::PackedDb::Open(dir + file, pool));
    Shard shard;
    shard.packed = std::move(packed);
    shard.store = std::make_unique<DocumentStore>(shard.packed);
    set.shards_.push_back(std::move(shard));
  }
  return set;
}

}  // namespace quickview::storage
