#include "index/index_builder.h"

#include <utility>
#include <vector>

#include "xml/serializer.h"

namespace quickview::index {

const DocumentIndexes* DatabaseIndexes::Get(const std::string& doc_name) const {
  auto it = indexes_.find(doc_name);
  return it == indexes_.end() ? nullptr : it->second.get();
}

void DatabaseIndexes::Put(const std::string& doc_name,
                          std::shared_ptr<const DocumentIndexes> idx) {
  indexes_[doc_name] = std::move(idx);
}

std::optional<DocumentIndexView> DatabaseIndexes::GetView(
    const std::string& doc_name) const {
  const DocumentIndexes* doc_indexes = Get(doc_name);
  if (doc_indexes == nullptr) return std::nullopt;
  return doc_indexes->View();
}

namespace {

void IndexSubtree(const xml::Document& doc, xml::NodeIndex index,
                  const std::vector<uint64_t>& byte_lengths, std::string* path,
                  DocumentIndexes* out) {
  const xml::Node& node = doc.node(index);
  size_t path_len = path->size();
  path->push_back('/');
  path->append(node.tag);

  out->path_index.AddEntry(out->path_index.InternPath(*path), node.text,
                           node.id, byte_lengths[index]);

  for (xml::NodeIndex child : node.children) {
    IndexSubtree(doc, child, byte_lengths, path, out);
  }
  path->resize(path_len);
}

}  // namespace

std::unique_ptr<DocumentIndexes> BuildDocumentIndexes(
    const xml::Document& doc) {
  auto out = std::make_unique<DocumentIndexes>();
  if (doc.has_root()) {
    // Every subtree's byte length in one pass (O(n)), not one recursive
    // SubtreeByteLength call per node (O(n x depth)).
    std::vector<uint64_t> byte_lengths(doc.size(), 0);
    xml::SubtreeByteLengths(doc, doc.root(), &byte_lengths);
    std::string path;
    IndexSubtree(doc, doc.root(), byte_lengths, &path, out.get());
    out->inverted_index.AddDocument(doc);
  }
  out->path_index.Finalize();
  return out;
}

std::unique_ptr<DatabaseIndexes> BuildDatabaseIndexes(
    const xml::Database& database) {
  auto out = std::make_unique<DatabaseIndexes>();
  for (const auto& [name, doc] : database.documents()) {
    out->Put(name, BuildDocumentIndexes(*doc));
  }
  return out;
}

}  // namespace quickview::index
