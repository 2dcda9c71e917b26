#include "index/inverted_index.h"

#include <algorithm>
#include <string_view>
#include <unordered_map>
#include <utility>

#include "common/strings.h"
#include "xml/tokenizer.h"

namespace quickview::index {

namespace {
constexpr char kKeySep = '\x01';

std::string EncodeTf(uint32_t tf) {
  std::string out(4, '\0');
  out[0] = static_cast<char>((tf >> 24) & 0xff);
  out[1] = static_cast<char>((tf >> 16) & 0xff);
  out[2] = static_cast<char>((tf >> 8) & 0xff);
  out[3] = static_cast<char>(tf & 0xff);
  return out;
}

uint32_t DecodeTf(const std::string& bytes) {
  return (static_cast<uint32_t>(static_cast<unsigned char>(bytes[0])) << 24) |
         (static_cast<uint32_t>(static_cast<unsigned char>(bytes[1])) << 16) |
         (static_cast<uint32_t>(static_cast<unsigned char>(bytes[2])) << 8) |
         static_cast<uint32_t>(static_cast<unsigned char>(bytes[3]));
}

/// The id encoded in `key` from byte `offset` on. Keys are built by
/// MakeKey from DeweyId::Encode, so they always decode.
xml::DeweyId DecodeKeyId(const std::string& key, size_t offset) {
  return xml::DeweyId::Decode(std::string_view(key).substr(offset)).value();
}
}  // namespace

std::string InvertedIndex::MakeKey(std::string_view term,
                                   const xml::DeweyId& id) {
  std::string key(term);
  key.push_back(kKeySep);
  key.append(id.Encode());
  return key;
}

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
  // Key order is term order, then Dewey order within a term (terms hold no
  // separator byte, and encoded ids compare as Dewey ids).
  std::vector<std::pair<std::string_view,
                        std::vector<std::pair<const xml::DeweyId*, uint32_t>>*>>
      terms;
  terms.reserve(by_term.size());
  for (auto& [text, postings] : by_term) terms.emplace_back(text, &postings);
  std::sort(terms.begin(), terms.end());
  auto by_id = [](const auto& a, const auto& b) { return *a.first < *b.first; };
  std::vector<std::pair<std::string, std::string>> entries;
  for (auto& [text, postings] : terms) {
    if (!std::is_sorted(postings->begin(), postings->end(), by_id)) {
      std::sort(postings->begin(), postings->end(), by_id);
    }
    for (const auto& [id, tf] : *postings) {
      entries.emplace_back(MakeKey(text, *id), EncodeTf(tf));
    }
  }
  tree_.BulkLoad(std::move(entries));
}

std::vector<Posting> InvertedIndex::Lookup(const std::string& term) const {
  std::vector<Posting> out;
  std::string prefix = term;
  prefix.push_back(kKeySep);
  for (BTree::Iterator it = tree_.Seek(prefix); it.Valid(); it.Next()) {
    if (it.key().compare(0, prefix.size(), prefix) != 0) break;
    out.push_back(Posting{DecodeKeyId(it.key(), prefix.size()),
                          DecodeTf(it.value())});
  }
  return out;
}

bool InvertedIndex::Contains(const std::string& term, const xml::DeweyId& id,
                             uint32_t* tf) const {
  std::string encoded;
  if (!tree_.Get(MakeKey(term, id), &encoded)) return false;
  if (tf != nullptr) *tf = DecodeTf(encoded);
  return true;
}

void InvertedIndex::ForEachPosting(
    const std::function<void(const std::string&, const xml::DeweyId&,
                             uint32_t)>& fn) const {
  for (BTree::Iterator it = tree_.Begin(); it.Valid(); it.Next()) {
    size_t sep = it.key().find(kKeySep);
    fn(it.key().substr(0, sep), DecodeKeyId(it.key(), sep + 1),
       DecodeTf(it.value()));
  }
}

size_t InvertedIndex::ListLength(const std::string& term) const {
  size_t count = 0;
  std::string prefix = term;
  prefix.push_back(kKeySep);
  for (BTree::Iterator it = tree_.Seek(prefix); it.Valid(); it.Next()) {
    if (it.key().compare(0, prefix.size(), prefix) != 0) break;
    ++count;
  }
  return count;
}

}  // namespace quickview::index
