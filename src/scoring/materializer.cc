#include "scoring/materializer.h"

#include "xml/serializer.h"

namespace quickview::scoring {

Status MaterializeResult(const xquery::NodeHandle& result,
                         const storage::DocumentStore* store,
                         xml::Document* target, xml::NodeIndex target_parent,
                         storage::DocumentStore::Stats* fetch_stats) {
  const xml::Node& node = result.node();
  if (node.stats != nullptr && node.stats->content_pruned) {
    // Fetch the full subtree from base storage; the pruned node's children
    // are structural duplicates of fetched content and are dropped.
    return store->CopySubtree(node.stats->source_doc, node.stats->source_id,
                              target, target_parent, fetch_stats);
  }
  xml::NodeIndex copied = target_parent == xml::kInvalidNode
                              ? target->CreateRoot(node.tag)
                              : target->AddChild(target_parent, node.tag);
  target->node(copied).text = node.text;
  for (xml::NodeIndex child : node.children) {
    QV_RETURN_IF_ERROR(MaterializeResult(xquery::NodeHandle{result.doc, child},
                                         store, target, copied, fetch_stats));
  }
  return Status::OK();
}

Result<std::string> MaterializeToXml(
    const xquery::NodeHandle& result, const storage::DocumentStore* store,
    storage::DocumentStore::Stats* fetch_stats) {
  xml::Document doc(1);
  QV_RETURN_IF_ERROR(
      MaterializeResult(result, store, &doc, xml::kInvalidNode, fetch_stats));
  return xml::Serialize(doc);
}

}  // namespace quickview::scoring
