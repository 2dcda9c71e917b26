#include "storage/document_store.h"

#include <utility>

#include "pagestore/packed_db.h"
#include "xml/serializer.h"

namespace quickview::storage {

using xml::Document;
using xml::NodeIndex;

DocumentStore::DocumentStore(const xml::Database& database) {
  for (const auto& [name, doc] : database.documents()) {
    docs_[doc->root_component()] = doc;
  }
}

DocumentStore::DocumentStore(
    std::shared_ptr<const pagestore::PackedDb> packed)
    : packed_(std::move(packed)) {}

DocumentStore::~DocumentStore() = default;

const Document* DocumentStore::Resolve(uint32_t root_component) const {
  auto it = docs_.find(root_component);
  return it == docs_.end() ? nullptr : it->second.get();
}

Status DocumentStore::AppendSubtreeXml(uint32_t root_component,
                                       const xml::DeweyId& id,
                                       std::string* out,
                                       Stats* accounting) const {
  const size_t start = out->size();
  if (packed_ != nullptr) {
    pagestore::PageAccounting pages;
    QV_RETURN_IF_ERROR(
        packed_->AppendSubtreeXml(root_component, id, out, &pages));
    CountFetch(out->size() - start, pages.pages_read, pages.buffer_hits,
               accounting);
    return Status::OK();
  }
  const Document* doc = Resolve(root_component);
  if (doc == nullptr) {
    return Status::NotFound("no document with root component " +
                            std::to_string(root_component));
  }
  NodeIndex source = doc->FindByDewey(id);
  if (source == xml::kInvalidNode) {
    return Status::NotFound("no element " + id.ToString());
  }
  xml::SerializeTo(*doc, source, out);
  CountFetch(out->size() - start, 0, 0, accounting);
  return Status::OK();
}

Status DocumentStore::GetValue(uint32_t root_component,
                               const xml::DeweyId& id, std::string* out,
                               Stats* accounting) const {
  if (packed_ != nullptr) {
    pagestore::PageAccounting pages;
    QV_RETURN_IF_ERROR(packed_->GetValue(root_component, id, out, &pages));
    CountFetch(out->size(), pages.pages_read, pages.buffer_hits, accounting);
    return Status::OK();
  }
  const Document* doc = Resolve(root_component);
  if (doc == nullptr) {
    return Status::NotFound("no document with root component " +
                            std::to_string(root_component));
  }
  NodeIndex source = doc->FindByDewey(id);
  if (source == xml::kInvalidNode) {
    return Status::NotFound("no element " + id.ToString());
  }
  *out = doc->node(source).text;
  CountFetch(out->size(), 0, 0, accounting);
  return Status::OK();
}

Status DocumentStore::GetSubtreeLength(uint32_t root_component,
                                       const xml::DeweyId& id,
                                       uint64_t* out,
                                       Stats* accounting) const {
  if (packed_ != nullptr) {
    pagestore::PageAccounting pages;
    QV_RETURN_IF_ERROR(
        packed_->GetSubtreeLength(root_component, id, out, &pages));
    CountFetch(*out, pages.pages_read, pages.buffer_hits, accounting);
    return Status::OK();
  }
  const Document* doc = Resolve(root_component);
  if (doc == nullptr) {
    return Status::NotFound("no document with root component " +
                            std::to_string(root_component));
  }
  NodeIndex source = doc->FindByDewey(id);
  if (source == xml::kInvalidNode) {
    return Status::NotFound("no element " + id.ToString());
  }
  *out = xml::SubtreeByteLength(*doc, source);
  CountFetch(*out, 0, 0, accounting);
  return Status::OK();
}

}  // namespace quickview::storage
