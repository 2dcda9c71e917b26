#include "index/path_index.h"

#include <algorithm>
#include <cassert>

#include "common/strings.h"

namespace quickview::index {

namespace {

// Separates the path from the value in composite B+-tree keys. '\x01' is
// below any tag or value character we produce.
constexpr char kKeySep = '\x01';

void AppendU32(std::string* out, uint32_t v) {
  for (int shift = 24; shift >= 0; shift -= 8) {
    out->push_back(static_cast<char>((v >> shift) & 0xff));
  }
}

/// Reads a big-endian T at *pos; false (and *pos untouched) when fewer
/// bytes remain.
template <typename T>
bool ReadBigEndian(std::string_view in, size_t* pos, T* out) {
  if (in.size() - *pos < sizeof(T)) return false;
  T v = 0;
  for (size_t i = 0; i < sizeof(T); ++i) {
    v = static_cast<T>((v << 8) | static_cast<unsigned char>(in[*pos + i]));
  }
  *pos += sizeof(T);
  *out = v;
  return true;
}

void AppendU64(std::string* out, uint64_t v) {
  for (int shift = 56; shift >= 0; shift -= 8) {
    out->push_back(static_cast<char>((v >> shift) & 0xff));
  }
}

Status CorruptRow() { return Status::Internal("corrupt path-index row"); }

/// Decodes an EncodePathEntryList row, calling sink(id, byte_length) per
/// entry. Rows may come from disk pages, so every length is checked
/// against the bytes actually present.
template <typename Sink>
Status DecodeEntries(std::string_view encoded, Sink&& sink) {
  size_t pos = 0;
  uint32_t count = 0;
  if (!ReadBigEndian(encoded, &pos, &count)) return CorruptRow();
  for (uint32_t i = 0; i < count; ++i) {
    uint32_t id_len = 0;
    if (!ReadBigEndian(encoded, &pos, &id_len) ||
        encoded.size() - pos < id_len) {
      return CorruptRow();
    }
    std::optional<xml::DeweyId> id =
        xml::DeweyId::Decode(encoded.substr(pos, id_len));
    pos += id_len;
    uint64_t byte_length = 0;
    if (!id.has_value() || !ReadBigEndian(encoded, &pos, &byte_length)) {
      return CorruptRow();
    }
    sink(std::move(*id), byte_length);
  }
  return Status::OK();
}

/// Decodes a row this process encoded itself (in-memory B+-tree values),
/// which cannot be corrupt.
void DecodeOwnRow(std::string_view encoded,
                  const std::optional<std::string>& value,
                  std::vector<PathEntry>* out) {
  Status status = DecodePathEntryListInto(encoded, value, out);
  assert(status.ok());
  (void)status;
}

}  // namespace

std::string MakePathValueKey(const std::string& path,
                             const std::string& value) {
  std::string key = path;
  key.push_back(kKeySep);
  key.append(value);
  return key;
}

std::string EncodePathEntryList(
    const std::vector<std::pair<xml::DeweyId, uint64_t>>& entries) {
  std::string out;
  AppendU32(&out, static_cast<uint32_t>(entries.size()));
  for (const auto& [id, byte_length] : entries) {
    std::string id_bytes = id.Encode();
    AppendU32(&out, static_cast<uint32_t>(id_bytes.size()));
    out.append(id_bytes);
    AppendU64(&out, byte_length);
  }
  return out;
}

Status DecodePathEntryListInto(std::string_view encoded,
                               const std::optional<std::string>& value,
                               std::vector<PathEntry>* out) {
  return DecodeEntries(encoded, [&](xml::DeweyId&& id, uint64_t byte_length) {
    out->push_back(PathEntry{std::move(id), byte_length, value});
  });
}

std::string PatternToString(const PathPattern& pattern) {
  std::string out;
  for (const PathStep& step : pattern) {
    out += step.descendant ? "//" : "/";
    out += step.tag;
  }
  return out;
}

namespace {

bool MatchFrom(const PathPattern& pattern, size_t pi,
               const std::vector<std::string_view>& segments, size_t si) {
  if (pi == pattern.size()) return si == segments.size();
  const PathStep& step = pattern[pi];
  if (!step.descendant) {
    return si < segments.size() && segments[si] == step.tag &&
           MatchFrom(pattern, pi + 1, segments, si + 1);
  }
  for (size_t t = si; t < segments.size(); ++t) {
    if (segments[t] == step.tag &&
        MatchFrom(pattern, pi + 1, segments, t + 1)) {
      return true;
    }
  }
  return false;
}

}  // namespace

bool PatternMatchesPath(const PathPattern& pattern, const std::string& path) {
  assert(!path.empty() && path[0] == '/');
  std::vector<std::string_view> segments =
      SplitString(std::string_view(path).substr(1), '/');
  return MatchFrom(pattern, 0, segments, 0);
}

void PathIndex::AddEntry(const std::string& path, const std::string& value,
                         const xml::DeweyId& id, uint64_t byte_length) {
  pending_[{path, value}].emplace_back(id, byte_length);
}

void PathIndex::Finalize() {
  // (path, value) order is key order: the separator sorts below every
  // byte of a path.
  std::vector<std::pair<std::string, std::string>> rows;
  rows.reserve(pending_.size());
  for (auto& [key, entries] : pending_) {
    const auto& [path, value] = key;
    if (paths_.empty() || path != paths_.back()) paths_.push_back(path);
    rows.emplace_back(MakePathValueKey(path, value),
                      EncodePathEntryList(entries));
  }
  pending_.clear();
  tree_.BulkLoad(std::move(rows));
}

std::vector<std::string> PathIndex::ExpandPattern(
    const PathPattern& pattern) const {
  std::vector<std::string> out;
  for (const std::string& path : paths_) {
    if (PatternMatchesPath(pattern, path)) out.push_back(path);
  }
  return out;
}

std::vector<PathEntry> PathIndex::Collect(const PathPattern& pattern,
                                          bool with_values) const {
  std::vector<PathEntry> out;
  for (const std::string& path : ExpandPattern(pattern)) {
    // Prefix scan over all (path, value) rows for this path: the path plus
    // separator is a prefix of the composite key.
    std::string prefix = path;
    prefix.push_back(kKeySep);
    for (BTree::Iterator it = tree_.Seek(prefix); it.Valid(); it.Next()) {
      if (it.key().compare(0, prefix.size(), prefix) != 0) break;
      std::optional<std::string> value;
      if (with_values) value = it.key().substr(prefix.size());
      DecodeOwnRow(it.value(), value, &out);
    }
  }
  // Merge the per-row Dewey-ordered lists into one ordered list.
  std::sort(out.begin(), out.end(),
            [](const PathEntry& a, const PathEntry& b) { return a.id < b.id; });
  return out;
}

void PathIndex::ForEachRow(
    const std::function<void(const std::string&, const std::string&,
                             const std::vector<PathEntry>&)>& fn) const {
  for (BTree::Iterator it = tree_.Begin(); it.Valid(); it.Next()) {
    size_t sep = it.key().find(kKeySep);
    std::string path = it.key().substr(0, sep);
    std::string value = it.key().substr(sep + 1);
    std::vector<PathEntry> entries;
    DecodeOwnRow(it.value(), std::nullopt, &entries);
    fn(path, value, entries);
  }
}

void PathIndex::ForEachRaw(
    const std::function<void(const std::string&, const std::string&)>& fn)
    const {
  for (BTree::Iterator it = tree_.Begin(); it.Valid(); it.Next()) {
    fn(it.key(), it.value());
  }
}

std::vector<PathIndex::PathRows> PathIndex::LookUpPerPath(
    const PathPattern& pattern, bool with_values) const {
  std::vector<PathRows> out;
  for (const std::string& path : ExpandPattern(pattern)) {
    PathRows rows;
    rows.path = path;
    std::string prefix = path;
    prefix.push_back(kKeySep);
    for (BTree::Iterator it = tree_.Seek(prefix); it.Valid(); it.Next()) {
      if (it.key().compare(0, prefix.size(), prefix) != 0) break;
      std::optional<std::string> value;
      if (with_values) value = it.key().substr(prefix.size());
      DecodeOwnRow(it.value(), value, &rows.entries);
    }
    std::sort(
        rows.entries.begin(), rows.entries.end(),
        [](const PathEntry& a, const PathEntry& b) { return a.id < b.id; });
    if (!rows.entries.empty()) out.push_back(std::move(rows));
  }
  return out;
}

std::vector<PathEntry> PathIndex::LookUpId(const PathPattern& pattern) const {
  return Collect(pattern, /*with_values=*/false);
}

std::vector<PathEntry> PathIndex::LookUpIdValue(
    const PathPattern& pattern) const {
  return Collect(pattern, /*with_values=*/true);
}

std::vector<PathEntry> PathIndex::LookUpValue(const PathPattern& pattern,
                                              const std::string& value) const {
  std::vector<PathEntry> out;
  for (const std::string& path : ExpandPattern(pattern)) {
    std::string encoded;
    if (tree_.Get(MakePathValueKey(path, value), &encoded)) {
      DecodeOwnRow(encoded, value, &out);
    }
  }
  std::sort(out.begin(), out.end(),
            [](const PathEntry& a, const PathEntry& b) { return a.id < b.id; });
  return out;
}

}  // namespace quickview::index
