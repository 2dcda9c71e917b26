// XML serialization. Byte lengths reported by SubtreeByteLength() define
// the len(e) used for score normalization (paper §4.2.2.2 / Theorem 4.1),
// so the serializer is the single source of truth for element sizes.
#ifndef QUICKVIEW_XML_SERIALIZER_H_
#define QUICKVIEW_XML_SERIALIZER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "xml/dom.h"

namespace quickview::xml {

/// Serializes the subtree rooted at `node` to XML text. Text is emitted
/// before children (matching how the parser folds direct text).
std::string Serialize(const Document& doc, NodeIndex node);

/// Serializes the whole document.
std::string Serialize(const Document& doc);

/// Bytes the node's own tags and escaped text take in Serialize output,
/// children excluded.
uint64_t OwnByteLength(const Node& node);

/// Byte length of Serialize(doc, node) without building the string.
uint64_t SubtreeByteLength(const Document& doc, NodeIndex node);

/// One-pass form: fills `(*lengths)[i]` with SubtreeByteLength(doc, i)
/// for every node in the subtree under `node` and returns the subtree's
/// own length. `lengths` must already be sized to doc.size(). Callers
/// that need every node's length (the packer) use this instead of n
/// recursive SubtreeByteLength calls (O(n) vs O(n x depth)).
uint64_t SubtreeByteLengths(const Document& doc, NodeIndex node,
                            std::vector<uint64_t>* lengths);

/// Copies the subtree of `source` rooted at `source_index` into `target`
/// as a child of `target_parent` (or as the root when `target_parent` is
/// kInvalidNode and `target` is empty). The copy gets fresh contiguous
/// Dewey ordinals under the target position. Returns
/// SubtreeByteLength(source, source_index), summed during the copy walk:
/// a store fetch reports the bytes it copied without a second walk.
uint64_t CopySubtreeInto(const Document& source, NodeIndex source_index,
                         Document* target, NodeIndex target_parent);

/// Escapes &, <, >, " and ' for element content.
std::string EscapeText(const std::string& text);

}  // namespace quickview::xml

#endif  // QUICKVIEW_XML_SERIALIZER_H_
