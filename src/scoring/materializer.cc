#include "scoring/materializer.h"

#include "xml/serializer.h"

namespace quickview::scoring {

namespace {

Status AppendNode(const xml::Document& doc, xml::NodeIndex index,
                  const storage::DocumentStore* store, std::string* out,
                  storage::DocumentStore::Stats* fetch_stats) {
  const xml::Node& node = doc.node(index);
  if (node.stats != nullptr && node.stats->content_pruned) {
    return store->AppendSubtreeXml(node.stats->source_doc,
                                   node.stats->source_id, out, fetch_stats);
  }
  xml::AppendStartTag(node.tag, out);
  xml::AppendEscapedText(node.text, out);
  for (xml::NodeIndex child : node.children) {
    QV_RETURN_IF_ERROR(AppendNode(doc, child, store, out, fetch_stats));
  }
  xml::AppendEndTag(node.tag, out);
  return Status::OK();
}

}  // namespace

Status MaterializeInto(const xquery::NodeHandle& result,
                       const storage::DocumentStore* store, std::string* out,
                       storage::DocumentStore::Stats* fetch_stats) {
  return AppendNode(*result.doc, result.effective_index(), store, out,
                    fetch_stats);
}

Result<std::string> MaterializeToXml(
    const xquery::NodeHandle& result, const storage::DocumentStore* store,
    storage::DocumentStore::Stats* fetch_stats) {
  std::string xml;
  QV_RETURN_IF_ERROR(MaterializeInto(result, store, &xml, fetch_stats));
  return xml;
}

}  // namespace quickview::scoring
