#include "index/inverted_index.h"

#include <algorithm>
#include <string_view>
#include <unordered_map>
#include <utility>

#include "common/strings.h"
#include "xml/tokenizer.h"

namespace quickview::index {

void InvertedIndex::AddDocument(const xml::Document& doc) {
  // Per term, (id, tf) in node order: a term repeated within one node
  // bumps that node's tf.
  std::unordered_map<std::string,
                     std::vector<std::pair<const xml::DeweyId*, uint32_t>>>
      by_term;
  for (xml::NodeIndex i = 0; i < doc.size(); ++i) {
    const xml::DeweyId* id = &doc.node(i).id;
    xml::ForEachDirectTerm(doc.node(i), [&by_term, id](std::string_view run) {
      auto& postings = by_term[AsciiToLower(run)];
      if (!postings.empty() && postings.back().first == id) {
        ++postings.back().second;
      } else {
        postings.emplace_back(id, 1);
      }
    });
  }
  // Node order need not be Dewey order (a document built by AddChild
  // keeps creation order), so each list is sorted before it is stored.
  auto by_id = [](const auto& a, const auto& b) { return *a.first < *b.first; };
  lists_.reserve(by_term.size());
  for (auto& [term, postings] : by_term) {
    if (!std::is_sorted(postings.begin(), postings.end(), by_id)) {
      std::sort(postings.begin(), postings.end(), by_id);
    }
    TermList list{term, {}};
    list.postings.reserve(postings.size());
    for (const auto& [id, tf] : postings) list.postings.push_back({*id, tf});
    lists_.push_back(std::move(list));
  }
  std::sort(lists_.begin(), lists_.end(),
            [](const TermList& a, const TermList& b) { return a.term < b.term; });
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
