#include "pagestore/pack.h"

#include <cstdio>
#include <filesystem>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "pagestore/delta_log.h"
#include "pagestore/disk_btree.h"
#include "pagestore/packed_db.h"
#include "pagestore/paged_file.h"
#include "pagestore/wal.h"
#include "xml/serializer.h"

namespace quickview::pagestore {

namespace {

/// Fills counts[i] with the subtree node count rooted at i.
uint32_t CountSubtrees(const xml::Document& doc, xml::NodeIndex index,
                       std::vector<uint32_t>* counts) {
  uint32_t total = 1;
  for (xml::NodeIndex child : doc.node(index).children) {
    total += CountSubtrees(doc, child, counts);
  }
  (*counts)[index] = total;
  return total;
}

/// One preorder node record. subtree_count/subtree_bytes let a reader
/// fetch a whole subtree — and account the identical byte count the
/// in-memory store reports — without ever consulting the base document.
Status AppendNodeRecord(const xml::Document& doc, xml::NodeIndex index,
                        uint32_t subtree_count, uint64_t subtree_bytes,
                        ChainWriter* chain) {
  const xml::Node& node = doc.node(index);
  if (node.tag.size() > 0xffff) {
    return Status::InvalidArgument("tag too long to pack: " + node.tag);
  }
  if (node.id.depth() > 0xffff) {
    // Record depth is how readers reattach subtrees; a silent u16 wrap
    // would corrupt parentage, so refuse absurdly deep documents.
    return Status::InvalidArgument("document too deep to pack: depth " +
                                   std::to_string(node.id.depth()));
  }
  std::string record;
  AppendU32(&record, subtree_count);
  AppendU64(&record, subtree_bytes);
  AppendU16(&record, static_cast<uint16_t>(node.id.depth()));
  AppendU16(&record, static_cast<uint16_t>(node.tag.size()));
  record.append(node.tag);
  AppendU32(&record, static_cast<uint32_t>(node.text.size()));
  record.append(node.text);
  return chain->Append(record);
}

struct PackedDocEntry {
  std::string name;
  uint32_t root_component = 0;
  PageId locator_root = kInvalidPage;
  PageId path_root = kInvalidPage;
  PageId inv_root = kInvalidPage;
  uint64_t node_count = 0;
  std::vector<std::string> distinct_paths;
};

Status PackDocument(const std::string& name, const xml::Document& doc,
                    const index::DocumentIndexes& doc_indexes,
                    PagedFileWriter* writer, PackedDocEntry* entry) {
  entry->name = name;
  entry->root_component = doc.root_component();
  entry->node_count = doc.size();
  entry->distinct_paths = doc_indexes.path_index.distinct_path_list();

  // --- Node records (preorder) + locator entries -------------------------
  std::vector<uint32_t> counts(doc.size(), 0);
  std::vector<uint64_t> byte_lengths(doc.size(), 0);
  std::vector<std::pair<std::string, std::string>> locator_rows;
  locator_rows.reserve(doc.size());
  ChainWriter records(writer, PageType::kNodeRecords);
  Status walk_status = Status::OK();
  std::function<void(xml::NodeIndex)> walk = [&](xml::NodeIndex index) {
    if (!walk_status.ok()) return;
    ChainWriter::Pos pos = records.Tell();
    std::string value;
    AppendU32(&value, pos.page);
    AppendU32(&value, pos.offset);
    locator_rows.emplace_back(doc.node(index).id.Encode(), std::move(value));
    walk_status = AppendNodeRecord(doc, index, counts[index],
                                   byte_lengths[index], &records);
    if (!walk_status.ok()) return;
    for (xml::NodeIndex child : doc.node(index).children) walk(child);
  };
  if (doc.has_root()) {
    CountSubtrees(doc, doc.root(), &counts);
    xml::SubtreeByteLengths(doc, doc.root(), &byte_lengths);
    walk(doc.root());
  }
  QUICKVIEW_RETURN_IF_ERROR(walk_status);
  QUICKVIEW_RETURN_IF_ERROR(records.Finish().status());

  DiskBTreeBuilder locator(writer);
  for (const auto& [key, value] : locator_rows) {
    QUICKVIEW_RETURN_IF_ERROR(locator.Add(key, value));
  }
  QUICKVIEW_ASSIGN_OR_RETURN(entry->locator_root, locator.Finish());

  // --- Path index --------------------------------------------------------
  // On disk a row is keyed by (path \x01 ordinal-in-value-order), with
  // the atomic value in the row payload (value_len | value | entry
  // list). Keys stay bounded — a multi-KB text value would blow the
  // one-page leaf-entry limit if it sat in the key — while long values
  // and fat entry lists spill to posting-run chains like any other big
  // B-tree value. Rows arrive in (path, value) order, so prefix scans
  // reproduce the in-memory row order exactly.
  DiskBTreeBuilder paths(writer);
  Status path_status = Status::OK();
  std::string current_path;
  uint32_t path_ordinal = 0;
  doc_indexes.path_index.ForEachRaw([&](const std::string& path,
                                        const std::string& row_value,
                                        const std::string& entries) {
    if (!path_status.ok()) return;
    if (path != current_path) {
      current_path = path;
      path_ordinal = 0;
    }
    std::string disk_key = path;
    disk_key.push_back('\x01');
    AppendU32(&disk_key, path_ordinal++);
    std::string payload;
    AppendU32(&payload, static_cast<uint32_t>(row_value.size()));
    payload.append(row_value);
    payload.append(entries);
    path_status = paths.Add(disk_key, payload);
  });
  QUICKVIEW_RETURN_IF_ERROR(path_status);
  QUICKVIEW_ASSIGN_OR_RETURN(entry->path_root, paths.Finish());

  // --- Inverted index: postings regrouped into per-term runs -------------
  DiskBTreeBuilder terms(writer);
  Status term_status = Status::OK();
  std::string current_term;
  std::string run;
  uint32_t run_count = 0;
  auto flush_term = [&]() {
    if (run_count == 0) return;
    std::string value;
    AppendU32(&value, run_count);
    value.append(run);
    term_status = terms.Add(current_term, value);
    run.clear();
    run_count = 0;
  };
  doc_indexes.inverted_index.ForEachPosting(
      [&](const std::string& term, const xml::DeweyId& id, uint32_t tf) {
        if (!term_status.ok()) return;
        if (term != current_term) {
          flush_term();
          current_term = term;
        }
        if (!term_status.ok()) return;
        std::string id_bytes = id.Encode();
        AppendU16(&run, static_cast<uint16_t>(id_bytes.size()));
        run.append(id_bytes);
        AppendU32(&run, tf);
        ++run_count;
      });
  if (term_status.ok()) flush_term();
  QUICKVIEW_RETURN_IF_ERROR(term_status);
  QUICKVIEW_ASSIGN_OR_RETURN(entry->inv_root, terms.Finish());
  return Status::OK();
}

}  // namespace

Status PackDatabase(const xml::Database& database,
                    const index::DatabaseIndexes& indexes,
                    const std::string& path) {
  QUICKVIEW_ASSIGN_OR_RETURN(std::unique_ptr<PagedFileWriter> writer,
                             PagedFileWriter::Create(path));

  std::vector<PackedDocEntry> entries;
  for (const auto& [name, doc] : database.documents()) {
    const index::DocumentIndexes* doc_indexes = indexes.Get(name);
    if (doc_indexes == nullptr) {
      return Status::NotFound("no indexes for document '" + name +
                              "'; build them before packing");
    }
    PackedDocEntry entry;
    QUICKVIEW_RETURN_IF_ERROR(
        PackDocument(name, *doc, *doc_indexes, writer.get(), &entry));
    entries.push_back(std::move(entry));
  }

  ChainWriter directory(writer.get(), PageType::kDirectory);
  std::string dir;
  AppendU32(&dir, static_cast<uint32_t>(entries.size()));
  QUICKVIEW_RETURN_IF_ERROR(directory.Append(dir));
  for (const PackedDocEntry& entry : entries) {
    std::string record;
    if (entry.name.size() > 0xffff) {
      return Status::InvalidArgument("document name too long to pack: " +
                                     entry.name);
    }
    AppendU16(&record, static_cast<uint16_t>(entry.name.size()));
    record.append(entry.name);
    AppendU32(&record, entry.root_component);
    AppendU32(&record, entry.locator_root);
    AppendU32(&record, entry.path_root);
    AppendU32(&record, entry.inv_root);
    AppendU64(&record, entry.node_count);
    AppendU32(&record, static_cast<uint32_t>(entry.distinct_paths.size()));
    for (const std::string& p : entry.distinct_paths) {
      if (p.size() > 0xffff) {
        return Status::InvalidArgument("data path too long to pack: " + p);
      }
      AppendU16(&record, static_cast<uint16_t>(p.size()));
      record.append(p);
    }
    QUICKVIEW_RETURN_IF_ERROR(directory.Append(record));
  }
  QUICKVIEW_ASSIGN_OR_RETURN(PageId directory_page, directory.Finish());
  return writer->Finish(directory_page);
}

Status CompactPack(const std::string& in_path, const std::string& out_path) {
  // Canonicalize before comparing: the source pack is read lazily while
  // the output is written, so writing over the input — under ANY
  // spelling (relative vs absolute, ./, symlink) — would corrupt both.
  std::error_code ec;
  std::filesystem::path in_canonical =
      std::filesystem::weakly_canonical(in_path, ec);
  if (ec) in_canonical = in_path;
  std::filesystem::path out_canonical =
      std::filesystem::weakly_canonical(out_path, ec);
  if (ec) out_canonical = out_path;
  if (in_canonical == out_canonical) {
    return Status::InvalidArgument(
        "compact cannot write over its input; pick a different output "
        "path and rename afterwards");
  }
  QUICKVIEW_ASSIGN_OR_RETURN(std::shared_ptr<PackedDb> packed,
                             PackedDb::Open(in_path));
  // Reconstruct every surviving document into the canonical numbering
  // (1..N in name order) — CopySubtree assigns fresh contiguous Dewey
  // ordinals under the new root component, exactly what parsing the
  // document under that component would produce, so the repack below is
  // byte-identical to packing the final corpus directly.
  xml::Database database;
  uint32_t next_root = 1;
  for (const auto& [name, root] : packed->document_roots()) {
    auto doc = std::make_shared<xml::Document>(next_root++);
    uint64_t fetched_bytes = 0;
    PageAccounting acct;
    QUICKVIEW_RETURN_IF_ERROR(
        packed->CopySubtree(root, xml::DeweyId({root}), doc.get(),
                            xml::kInvalidNode, &fetched_bytes, &acct));
    database.AddDocument(name, std::move(doc));
  }
  std::unique_ptr<index::DatabaseIndexes> indexes =
      index::BuildDatabaseIndexes(database);
  // Build the output to the side and publish it with one atomic rename:
  // a crash mid-compact must never leave a truncated .qvpack at out_path
  // that is indistinguishable from a complete one. PagedFileWriter
  // fsyncs the temp file in Finish; the rename plus directory fsync make
  // the swap itself durable.
  const std::string tmp_path = out_path + ".compact.tmp";
  std::remove(tmp_path.c_str());
  QUICKVIEW_RETURN_IF_ERROR(PackDatabase(database, *indexes, tmp_path));
  // The compacted pack IS the folded state; an old side log lying next
  // to the output would replay on top of it at the next open. Drop it
  // BEFORE the rename: a crash between the two leaves out_path
  // unpublished (old state intact minus a log that only made sense over
  // the pre-compaction pack), whereas the reverse order could publish
  // the fresh pack with the stale log still replaying on top of it.
  std::remove(DeltaLogPath(out_path).c_str());
  QUICKVIEW_RETURN_IF_ERROR(SyncParentDirectory(out_path));
  if (std::rename(tmp_path.c_str(), out_path.c_str()) != 0) {
    return Status::Internal("cannot rename " + tmp_path + " to " + out_path);
  }
  return SyncParentDirectory(out_path);
}

}  // namespace quickview::pagestore
