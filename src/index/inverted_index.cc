#include "index/inverted_index.h"

#include <algorithm>
#include <cctype>
#include <functional>
#include <string_view>
#include <unordered_map>
#include <utility>

#include "xml/tokenizer.h"

namespace quickview::index {

namespace {

/// Hashes a std::string key and a std::string_view probe alike, so the
/// term table is searched with a view of the lowercasing buffer.
struct TermHash {
  using is_transparent = void;
  size_t operator()(std::string_view term) const {
    return std::hash<std::string_view>{}(term);
  }
};

}  // namespace

void InvertedIndex::AddDocument(const xml::Document& doc) {
  // The document's term table: per distinct term, (node, tf) in node
  // order; a term repeated within one node bumps that node's tf. Each
  // run is lowercased into one reused buffer and looked up as a view, so
  // only a term's first occurrence makes a string.
  using Occurrences = std::vector<std::pair<xml::NodeIndex, uint32_t>>;
  std::unordered_map<std::string, Occurrences, TermHash, std::equal_to<>>
      by_term;
  // std::tolower of every byte, looked up per character below.
  char to_lower[256];
  for (int c = 0; c < 256; ++c) {
    to_lower[c] = static_cast<char>(std::tolower(c));
  }
  std::string lowered;
  for (xml::NodeIndex i = 0; i < doc.size(); ++i) {
    xml::ForEachDirectTerm(doc.node(i), [&](std::string_view run) {
      lowered.assign(run);
      for (char& c : lowered) c = to_lower[static_cast<unsigned char>(c)];
      auto it = by_term.find(std::string_view(lowered));
      if (it == by_term.end()) it = by_term.try_emplace(lowered).first;
      Occurrences& occurrences = it->second;
      if (!occurrences.empty() && occurrences.back().first == i) {
        ++occurrences.back().second;
      } else {
        occurrences.emplace_back(i, 1);
      }
    });
  }
  // The distinct terms are sorted once. Node order need not be Dewey
  // order (a document built by AddChild keeps creation order); when it
  // is not, each list is sorted before it is stored.
  bool dewey_order = true;
  for (xml::NodeIndex i = 1; i < doc.size() && dewey_order; ++i) {
    dewey_order = doc.node(i - 1).id < doc.node(i).id;
  }
  std::vector<std::pair<std::string_view, Occurrences*>> terms;
  terms.reserve(by_term.size());
  for (auto& [term, occurrences] : by_term) {
    terms.emplace_back(term, &occurrences);
  }
  std::sort(terms.begin(), terms.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  lists_.reserve(terms.size());
  for (const auto& [term, occurrences] : terms) {
    if (!dewey_order) {
      std::sort(occurrences->begin(), occurrences->end(),
                [&doc](const auto& a, const auto& b) {
                  return doc.node(a.first).id < doc.node(b.first).id;
                });
    }
    TermList& list = lists_.emplace_back();
    list.term = term;
    list.postings.reserve(occurrences->size());
    for (const auto& [node, tf] : *occurrences) {
      list.postings.push_back({doc.node(node).id, tf});
    }
  }
}

Result<std::vector<Posting>> InvertedIndex::Lookup(
    const std::string& term) const {
  auto it = std::lower_bound(
      lists_.begin(), lists_.end(), term,
      [](const TermList& list, const std::string& t) { return list.term < t; });
  if (it == lists_.end() || it->term != term) return std::vector<Posting>{};
  return it->postings;
}

void InvertedIndex::ForEachPosting(
    const std::function<void(const std::string&, const xml::DeweyId&,
                             uint32_t)>& fn) const {
  for (const TermList& list : lists_) {
    for (const Posting& posting : list.postings) {
      fn(list.term, posting.id, posting.tf);
    }
  }
}

}  // namespace quickview::index
