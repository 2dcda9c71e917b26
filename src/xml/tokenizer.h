// Keyword tokenizer defining the term universe for tf/idf and contains()
// (paper §2.1-2.2). A keyword can appear "in the tag name or text content"
// of an element, so DirectTerms() includes the tag-name tokens; both the
// index builder and the materialized-view baseline use the same definition,
// which is what makes Efficient-vs-Baseline scores exactly equal.
#ifndef QUICKVIEW_XML_TOKENIZER_H_
#define QUICKVIEW_XML_TOKENIZER_H_

#include <cctype>
#include <string>
#include <string_view>
#include <vector>

#include "xml/dom.h"

namespace quickview::xml {

/// Calls `fn(run)` for every maximal alphanumeric run of `text`, in
/// order, as it appears (not lowercased): the tokens of Tokenize without
/// copying them.
template <typename Fn>
void ForEachToken(std::string_view text, Fn&& fn) {
  size_t begin = 0;
  while (begin < text.size()) {
    while (begin < text.size() &&
           !std::isalnum(static_cast<unsigned char>(text[begin]))) {
      ++begin;
    }
    size_t end = begin;
    while (end < text.size() &&
           std::isalnum(static_cast<unsigned char>(text[end]))) {
      ++end;
    }
    if (end > begin) fn(text.substr(begin, end - begin));
    begin = end;
  }
}

/// Calls `fn(run)` for every direct term of `node`, unlowercased: the
/// tokens of its tag name, then those of its direct text (not
/// descendants). DirectTerms, the inverted index and the scorer all build
/// on this one definition, so index tf and scored tf agree.
template <typename Fn>
void ForEachDirectTerm(const Node& node, Fn&& fn) {
  ForEachToken(node.tag, fn);
  ForEachToken(node.text, fn);
}

/// True iff the run `token` lowercases to `term` (already lowercased).
bool TokenEquals(std::string_view token, std::string_view term);

/// Lowercased maximal alphanumeric runs.
std::vector<std::string> Tokenize(std::string_view text);

/// Terms directly contained by a node (ForEachDirectTerm), lowercased.
std::vector<std::string> DirectTerms(const Node& node);

/// Number of occurrences of `term` (already lowercased) in the subtree
/// rooted at `node` — the tf(e, k) of §2.2 computed from materialized data.
uint32_t SubtreeTermFrequency(const Document& doc, NodeIndex node,
                              std::string_view term);

}  // namespace quickview::xml

#endif  // QUICKVIEW_XML_TOKENIZER_H_
