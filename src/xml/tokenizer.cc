#include "xml/tokenizer.h"

#include <cctype>

#include "common/strings.h"

namespace quickview::xml {

bool TokenEquals(std::string_view token, std::string_view term) {
  if (token.size() != term.size()) return false;
  for (size_t i = 0; i < token.size(); ++i) {
    if (std::tolower(static_cast<unsigned char>(token[i])) !=
        static_cast<unsigned char>(term[i])) {
      return false;
    }
  }
  return true;
}

std::vector<std::string> Tokenize(std::string_view text) {
  std::vector<std::string> tokens;
  ForEachToken(text, [&tokens](std::string_view run) {
    tokens.push_back(AsciiToLower(run));
  });
  return tokens;
}

std::vector<std::string> DirectTerms(const Node& node) {
  std::vector<std::string> terms;
  ForEachDirectTerm(node, [&terms](std::string_view run) {
    terms.push_back(AsciiToLower(run));
  });
  return terms;
}

uint32_t SubtreeTermFrequency(const Document& doc, NodeIndex node,
                              std::string_view term) {
  uint32_t count = 0;
  for (NodeIndex index : doc.SubtreeNodes(node)) {
    ForEachDirectTerm(doc.node(index), [&count, term](std::string_view run) {
      if (TokenEquals(run, term)) ++count;
    });
  }
  return count;
}

}  // namespace quickview::xml
