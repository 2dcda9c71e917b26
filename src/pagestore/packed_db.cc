#include "pagestore/packed_db.h"

#include <algorithm>
#include <utility>

#include "index/path_index.h"
#include "pagestore/delta_log.h"
#include "xml/parser.h"
#include "xml/serializer.h"

namespace quickview::pagestore {

namespace {

// Separates the path from the row ordinal in disk path-index keys
// (PackDocument writes them).
constexpr char kPathKeySep = '\x01';

struct NodeRecord {
  uint32_t subtree_count = 0;
  uint64_t subtree_bytes = 0;
  uint16_t depth = 0;
  std::string tag;
  std::string text;
};

Status ReadNodeRecord(ChainReader* reader, NodeRecord* out) {
  QUICKVIEW_RETURN_IF_ERROR(reader->ReadU32(&out->subtree_count));
  QUICKVIEW_RETURN_IF_ERROR(reader->ReadU64(&out->subtree_bytes));
  QUICKVIEW_RETURN_IF_ERROR(reader->ReadU16(&out->depth));
  uint16_t tag_len = 0;
  QUICKVIEW_RETURN_IF_ERROR(reader->ReadU16(&tag_len));
  out->tag.clear();
  QUICKVIEW_RETURN_IF_ERROR(reader->Read(tag_len, &out->tag));
  uint32_t text_len = 0;
  QUICKVIEW_RETURN_IF_ERROR(reader->ReadU32(&text_len));
  out->text.clear();
  QUICKVIEW_RETURN_IF_ERROR(reader->Read(text_len, &out->text));
  return Status::OK();
}

/// Splits a disk path-index row payload (value_len | value | entry
/// list) written by PackDocument.
Status SplitPathRow(const std::string& payload, std::string* value,
                    std::string* entries_encoded) {
  size_t pos = 0;
  uint32_t value_len = 0;
  if (!ReadU32(payload, &pos, &value_len) ||
      payload.size() - pos < value_len) {
    return Status::Internal("corrupt path-index row");
  }
  value->assign(payload, pos, value_len);
  entries_encoded->assign(payload, pos + value_len, std::string::npos);
  return Status::OK();
}

Status DecodePostingRun(const std::string& encoded,
                        std::vector<index::Posting>* out) {
  size_t pos = 0;
  uint32_t count = 0;
  if (!ReadU32(encoded, &pos, &count)) {
    return Status::Internal("corrupt posting run");
  }
  out->reserve(out->size() + count);
  for (uint32_t i = 0; i < count; ++i) {
    uint16_t id_len = 0;
    if (!ReadU16(encoded, &pos, &id_len) ||
        encoded.size() - pos < id_len) {
      return Status::Internal("corrupt posting run");
    }
    std::optional<xml::DeweyId> id =
        xml::DeweyId::Decode(std::string_view(encoded).substr(pos, id_len));
    pos += id_len;
    uint32_t tf = 0;
    if (!id.has_value() || !ReadU32(encoded, &pos, &tf)) {
      return Status::Internal("corrupt posting run");
    }
    out->push_back(index::Posting{std::move(*id), tf});
  }
  return Status::OK();
}

}  // namespace

// --------------------------------------------------------------------------
// PagedPathIndex / PagedTermIndex
// --------------------------------------------------------------------------

Result<std::vector<index::PathRows>> PagedPathIndex::LookUpPerPath(
    const index::PathPattern& pattern, bool with_values) const {
  std::vector<index::PathRows> out;
  for (const std::string& path : paths_) {
    if (!index::PatternMatchesPath(pattern, path)) continue;
    index::PathRows rows;
    rows.path = path;
    std::string prefix = path;
    prefix.push_back(kPathKeySep);
    QUICKVIEW_RETURN_IF_ERROR(tree_.ScanFrom(
        prefix,
        [&](std::string_view key,
            const DiskBTree::ValueRef& value) -> Result<bool> {
          if (key.substr(0, prefix.size()) != prefix) return false;
          QUICKVIEW_ASSIGN_OR_RETURN(std::string payload, value.Read());
          std::string row_value;
          std::string entries_encoded;
          QUICKVIEW_RETURN_IF_ERROR(
              SplitPathRow(payload, &row_value, &entries_encoded));
          std::optional<std::string> attach;
          if (with_values) attach = std::move(row_value);
          QUICKVIEW_RETURN_IF_ERROR(index::DecodePathEntryListInto(
              entries_encoded, attach, &rows.entries));
          return true;
        }));
    index::SortByDewey(&rows.entries);
    if (!rows.entries.empty()) out.push_back(std::move(rows));
  }
  return out;
}

Result<std::vector<index::Posting>> PagedTermIndex::Lookup(
    const std::string& term) const {
  std::vector<index::Posting> out;
  std::string encoded;
  QUICKVIEW_ASSIGN_OR_RETURN(bool found, tree_.Get(term, &encoded));
  if (found) QUICKVIEW_RETURN_IF_ERROR(DecodePostingRun(encoded, &out));
  return out;
}

// --------------------------------------------------------------------------
// PackedDb
// --------------------------------------------------------------------------

Result<std::shared_ptr<PackedDb>> PackedDb::Open(
    const std::string& path, const BufferPoolOptions& pool_options) {
  auto db = std::shared_ptr<PackedDb>(new PackedDb());
  QUICKVIEW_ASSIGN_OR_RETURN(db->file_, PagedFile::Open(path));
  db->pool_ = std::make_unique<BufferPool>(db->file_.get(), pool_options);

  ChainReader directory(db->pool_.get(), db->file_->directory_page(), 0,
                        nullptr);
  uint32_t doc_count = 0;
  QUICKVIEW_RETURN_IF_ERROR(directory.ReadU32(&doc_count));
  for (uint32_t d = 0; d < doc_count; ++d) {
    auto doc = std::make_unique<PackedDocument>();
    uint16_t name_len = 0;
    QUICKVIEW_RETURN_IF_ERROR(directory.ReadU16(&name_len));
    QUICKVIEW_RETURN_IF_ERROR(directory.Read(name_len, &doc->name));
    uint32_t locator_root = 0;
    uint32_t path_root = 0;
    uint32_t inv_root = 0;
    QUICKVIEW_RETURN_IF_ERROR(directory.ReadU32(&doc->root_component));
    QUICKVIEW_RETURN_IF_ERROR(directory.ReadU32(&locator_root));
    QUICKVIEW_RETURN_IF_ERROR(directory.ReadU32(&path_root));
    QUICKVIEW_RETURN_IF_ERROR(directory.ReadU32(&inv_root));
    QUICKVIEW_RETURN_IF_ERROR(directory.ReadU64(&doc->node_count));
    uint32_t path_count = 0;
    QUICKVIEW_RETURN_IF_ERROR(directory.ReadU32(&path_count));
    std::vector<std::string> distinct_paths;
    distinct_paths.reserve(path_count);
    for (uint32_t p = 0; p < path_count; ++p) {
      uint16_t len = 0;
      QUICKVIEW_RETURN_IF_ERROR(directory.ReadU16(&len));
      std::string data_path;
      QUICKVIEW_RETURN_IF_ERROR(directory.Read(len, &data_path));
      distinct_paths.push_back(std::move(data_path));
    }

    doc->locator = DiskBTree(db->pool_.get(), locator_root);
    doc->paths = std::make_unique<PagedPathIndex>(
        DiskBTree(db->pool_.get(), path_root), std::move(distinct_paths));
    doc->terms =
        std::make_unique<PagedTermIndex>(DiskBTree(db->pool_.get(), inv_root));

    // Duplicate checks happen before any move: a failed map emplace
    // destroys its moved-from argument, which would leave `doc` (and
    // the by_root_ raw pointer) dangling.
    const PackedDocument* raw = doc.get();
    if (db->by_name_.find(raw->name) != db->by_name_.end()) {
      return Status::InvalidArgument("duplicate document name '" +
                                     raw->name + "' in packed db");
    }
    if (!db->by_root_.emplace(raw->root_component, raw).second) {
      return Status::InvalidArgument("duplicate root component " +
                                     std::to_string(raw->root_component) +
                                     " in packed db");
    }
    db->by_name_.emplace(raw->name, std::move(doc));
  }
  QUICKVIEW_RETURN_IF_ERROR(db->ApplyDeltaLog(path));
  return db;
}

void PackedDb::MaskName(const std::string& name) {
  auto base = by_name_.find(name);
  if (base != by_name_.end()) {
    by_root_.erase(base->second->root_component);
    by_name_.erase(base);
    ++delta_stats_.masked_base_documents;
  }
  auto overlay = overlay_by_name_.find(name);
  if (overlay != overlay_by_name_.end()) {
    overlay_by_root_.erase(overlay->second->doc->root_component());
    overlay_by_name_.erase(overlay);
  }
}

Status PackedDb::ApplyDeltaLog(const std::string& path) {
  QUICKVIEW_ASSIGN_OR_RETURN(std::vector<DeltaRecord> records,
                             ReadDeltaLog(path));
  if (records.empty()) return Status::OK();
  // Overlay documents get root components past every packed one, so the
  // two id spaces can never collide.
  uint32_t next_root = 1;
  for (const auto& [root, doc] : by_root_) {
    next_root = std::max(next_root, root + 1);
  }
  for (const DeltaRecord& record : records) {
    // Either kind of record supersedes every earlier holder of the name.
    MaskName(record.name);
    if (record.tombstone) {
      ++delta_stats_.tombstones;
      continue;
    }
    ++delta_stats_.inserts;
    QUICKVIEW_ASSIGN_OR_RETURN(std::shared_ptr<xml::Document> doc,
                               xml::ParseXml(record.xml, next_root++));
    auto overlay = std::make_unique<OverlayDocument>();
    overlay->name = record.name;
    overlay->indexes = index::BuildDocumentIndexes(*doc);
    overlay->doc = std::move(doc);
    const OverlayDocument* raw = overlay.get();
    overlay_by_root_[raw->doc->root_component()] = raw;
    overlay_by_name_[record.name] = std::move(overlay);
  }
  delta_stats_.overlay_documents = overlay_by_name_.size();
  return Status::OK();
}

std::optional<index::DocumentIndexView> PackedDb::GetView(
    const std::string& doc_name) const {
  auto overlay = overlay_by_name_.find(doc_name);
  if (overlay != overlay_by_name_.end()) {
    return overlay->second->indexes->View();
  }
  auto it = by_name_.find(doc_name);
  if (it == by_name_.end()) return std::nullopt;
  return index::DocumentIndexView{it->second->paths.get(),
                                  it->second->terms.get()};
}

std::vector<std::string> PackedDb::document_names() const {
  std::vector<std::string> out;
  out.reserve(by_name_.size() + overlay_by_name_.size());
  for (const auto& [name, root] : document_roots()) out.push_back(name);
  return out;
}

std::map<std::string, uint32_t> PackedDb::document_roots() const {
  std::map<std::string, uint32_t> out;
  for (const auto& [name, doc] : by_name_) out[name] = doc->root_component;
  for (const auto& [name, doc] : overlay_by_name_) {
    out[name] = doc->doc->root_component();
  }
  return out;
}

const PackedDb::OverlayDocument* PackedDb::OverlayByRoot(
    uint32_t root_component) const {
  auto it = overlay_by_root_.find(root_component);
  return it == overlay_by_root_.end() ? nullptr : it->second;
}

Result<ChainReader> PackedDb::LocateRecord(uint32_t root_component,
                                           const xml::DeweyId& id,
                                           PageAccounting* acct) const {
  auto it = by_root_.find(root_component);
  if (it == by_root_.end()) {
    return Status::NotFound("no document with root component " +
                            std::to_string(root_component));
  }
  std::string value;
  QUICKVIEW_ASSIGN_OR_RETURN(
      bool found, it->second->locator.Get(id.Encode(), &value, acct));
  if (!found) {
    return Status::NotFound("no element " + id.ToString());
  }
  size_t pos = 0;
  uint32_t page = 0;
  uint32_t offset = 0;
  if (!ReadU32(value, &pos, &page) || !ReadU32(value, &pos, &offset)) {
    return Status::Internal("corrupt node locator entry");
  }
  return ChainReader(pool_.get(), page, offset, acct);
}

Status PackedDb::CopySubtree(uint32_t root_component, const xml::DeweyId& id,
                             xml::Document* target,
                             xml::NodeIndex target_parent,
                             uint64_t* fetched_bytes,
                             PageAccounting* acct) const {
  if (const OverlayDocument* overlay = OverlayByRoot(root_component)) {
    xml::NodeIndex source = overlay->doc->FindByDewey(id);
    if (source == xml::kInvalidNode) {
      return Status::NotFound("no element " + id.ToString());
    }
    *fetched_bytes =
        xml::CopySubtreeInto(*overlay->doc, source, target, target_parent);
    return Status::OK();
  }
  QUICKVIEW_ASSIGN_OR_RETURN(ChainReader reader,
                             LocateRecord(root_component, id, acct));
  NodeRecord record;
  QUICKVIEW_RETURN_IF_ERROR(ReadNodeRecord(&reader, &record));
  *fetched_bytes = record.subtree_bytes;

  // Reattach the preorder record run under target_parent, exactly as the
  // in-memory CopyRecursive does (fresh contiguous Dewey ordinals in the
  // target; source structure recovered from record depths).
  xml::NodeIndex root_index = target_parent == xml::kInvalidNode
                                  ? target->CreateRoot(record.tag)
                                  : target->AddChild(target_parent,
                                                     record.tag);
  target->node(root_index).text = std::move(record.text);
  std::vector<std::pair<uint16_t, xml::NodeIndex>> stack;
  stack.emplace_back(record.depth, root_index);
  for (uint32_t i = 1; i < record.subtree_count; ++i) {
    NodeRecord child;
    QUICKVIEW_RETURN_IF_ERROR(ReadNodeRecord(&reader, &child));
    while (!stack.empty() && stack.back().first >= child.depth) {
      stack.pop_back();
    }
    if (stack.empty() || stack.back().first + 1 != child.depth) {
      return Status::Internal("corrupt node-record chain under " +
                              id.ToString());
    }
    xml::NodeIndex child_index =
        target->AddChild(stack.back().second, child.tag);
    target->node(child_index).text = std::move(child.text);
    stack.emplace_back(child.depth, child_index);
  }
  return Status::OK();
}

Status PackedDb::GetValue(uint32_t root_component, const xml::DeweyId& id,
                          std::string* out, PageAccounting* acct) const {
  if (const OverlayDocument* overlay = OverlayByRoot(root_component)) {
    xml::NodeIndex source = overlay->doc->FindByDewey(id);
    if (source == xml::kInvalidNode) {
      return Status::NotFound("no element " + id.ToString());
    }
    *out = overlay->doc->node(source).text;
    return Status::OK();
  }
  QUICKVIEW_ASSIGN_OR_RETURN(ChainReader reader,
                             LocateRecord(root_component, id, acct));
  NodeRecord record;
  QUICKVIEW_RETURN_IF_ERROR(ReadNodeRecord(&reader, &record));
  *out = std::move(record.text);
  return Status::OK();
}

Status PackedDb::GetSubtreeLength(uint32_t root_component,
                                  const xml::DeweyId& id, uint64_t* out,
                                  PageAccounting* acct) const {
  if (const OverlayDocument* overlay = OverlayByRoot(root_component)) {
    xml::NodeIndex source = overlay->doc->FindByDewey(id);
    if (source == xml::kInvalidNode) {
      return Status::NotFound("no element " + id.ToString());
    }
    *out = xml::SubtreeByteLength(*overlay->doc, source);
    return Status::OK();
  }
  QUICKVIEW_ASSIGN_OR_RETURN(ChainReader reader,
                             LocateRecord(root_component, id, acct));
  NodeRecord record;
  QUICKVIEW_RETURN_IF_ERROR(ReadNodeRecord(&reader, &record));
  *out = record.subtree_bytes;
  return Status::OK();
}

}  // namespace quickview::pagestore
