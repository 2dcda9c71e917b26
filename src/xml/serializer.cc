#include "xml/serializer.h"

#include <string_view>

namespace quickview::xml {

namespace {

/// The entity `c` is written as in element content; empty when `c` is
/// written as itself.
std::string_view EntityFor(char c) {
  switch (c) {
    case '&':
      return "&amp;";
    case '<':
      return "&lt;";
    case '>':
      return "&gt;";
    case '"':
      return "&quot;";
    case '\'':
      return "&apos;";
    default:
      return {};
  }
}

/// Appends `text` escaped to `out`, copying each run of plain bytes in
/// one append.
void AppendEscapedText(std::string_view text, std::string* out) {
  size_t plain = 0;  // start of the run not yet appended
  for (size_t i = 0; i < text.size(); ++i) {
    std::string_view entity = EntityFor(text[i]);
    if (entity.empty()) continue;
    out->append(text.substr(plain, i - plain));
    out->append(entity);
    plain = i + 1;
  }
  out->append(text.substr(plain));
}

void SerializeTo(const Document& doc, NodeIndex index, std::string* out) {
  const Node& node = doc.node(index);
  out->push_back('<');
  out->append(node.tag);
  out->push_back('>');
  AppendEscapedText(node.text, out);
  for (NodeIndex child : node.children) SerializeTo(doc, child, out);
  out->append("</");
  out->append(node.tag);
  out->push_back('>');
}

}  // namespace

std::string EscapeText(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  AppendEscapedText(text, &out);
  return out;
}

std::string Serialize(const Document& doc, NodeIndex node) {
  std::string out;
  SerializeTo(doc, node, &out);
  return out;
}

std::string Serialize(const Document& doc) {
  if (!doc.has_root()) return "";
  return Serialize(doc, doc.root());
}

uint64_t OwnByteLength(const Node& node) {
  // <tag> + </tag> = 2*tag + 5.
  uint64_t length = 2 * node.tag.size() + 5;
  for (char c : node.text) {
    std::string_view entity = EntityFor(c);
    length += entity.empty() ? 1 : entity.size();
  }
  return length;
}

uint64_t SubtreeByteLength(const Document& doc, NodeIndex node_index) {
  const Node& node = doc.node(node_index);
  uint64_t length = OwnByteLength(node);
  for (NodeIndex child : node.children) {
    length += SubtreeByteLength(doc, child);
  }
  return length;
}

uint64_t SubtreeByteLengths(const Document& doc, NodeIndex node_index,
                            std::vector<uint64_t>* lengths) {
  const Node& node = doc.node(node_index);
  uint64_t length = OwnByteLength(node);
  for (NodeIndex child : node.children) {
    length += SubtreeByteLengths(doc, child, lengths);
  }
  (*lengths)[node_index] = length;
  return length;
}

uint64_t CopySubtreeInto(const Document& source, NodeIndex source_index,
                         Document* target, NodeIndex target_parent) {
  const Node& node = source.node(source_index);
  NodeIndex copied = target_parent == kInvalidNode
                         ? target->CreateRoot(node.tag)
                         : target->AddChild(target_parent, node.tag);
  target->node(copied).text = node.text;
  uint64_t length = OwnByteLength(node);
  for (NodeIndex child : node.children) {
    length += CopySubtreeInto(source, child, target, copied);
  }
  return length;
}

}  // namespace quickview::xml
