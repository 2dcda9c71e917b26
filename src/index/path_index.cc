#include "index/path_index.h"

#include <algorithm>
#include <cassert>

#include "common/strings.h"

namespace quickview::index {

namespace {

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

/// Decodes a row this process encoded itself (in-memory rows), which
/// cannot be corrupt.
void DecodeOwnRow(std::string_view encoded,
                  const std::optional<std::string>& value,
                  std::vector<PathEntry>* out) {
  Status status = DecodePathEntryListInto(encoded, value, out);
  assert(status.ok());
  (void)status;
}

}  // namespace

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

void SortByDewey(std::vector<PathEntry>* entries) {
  std::sort(entries->begin(), entries->end(),
            [](const PathEntry& a, const PathEntry& b) { return a.id < b.id; });
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
  // Map order is (path, value) order: one run of rows per distinct path.
  for (const auto& [key, entries] : pending_) {
    const auto& [path, value] = key;
    if (paths_.empty() || path != paths_.back()) {
      paths_.push_back(path);
      rows_.emplace_back();
    }
    rows_.back().push_back(Row{value, EncodePathEntryList(entries)});
  }
  pending_.clear();
}

void PathIndex::AppendRows(size_t path, bool with_values,
                           std::vector<PathEntry>* out) const {
  for (const Row& row : rows_[path]) {
    DecodeOwnRow(row.entries,
                 with_values ? std::optional<std::string>(row.value)
                             : std::nullopt,
                 out);
  }
}

Result<std::vector<PathRows>> PathIndex::LookUpPerPath(
    const PathPattern& pattern, bool with_values) const {
  std::vector<PathRows> out;
  for (size_t p = 0; p < paths_.size(); ++p) {
    if (!PatternMatchesPath(pattern, paths_[p])) continue;
    // Every dictionary path has at least one row of at least one entry.
    PathRows rows{paths_[p], {}};
    AppendRows(p, with_values, &rows.entries);
    SortByDewey(&rows.entries);
    out.push_back(std::move(rows));
  }
  return out;
}

std::vector<PathEntry> PathIndex::Collect(const PathPattern& pattern,
                                          bool with_values) const {
  std::vector<PathEntry> out;
  for (size_t p = 0; p < paths_.size(); ++p) {
    if (PatternMatchesPath(pattern, paths_[p])) {
      AppendRows(p, with_values, &out);
    }
  }
  SortByDewey(&out);
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
  for (size_t p = 0; p < paths_.size(); ++p) {
    if (!PatternMatchesPath(pattern, paths_[p])) continue;
    const std::vector<Row>& rows = rows_[p];
    auto row = std::lower_bound(
        rows.begin(), rows.end(), value,
        [](const Row& r, const std::string& v) { return r.value < v; });
    if (row != rows.end() && row->value == value) {
      DecodeOwnRow(row->entries, value, &out);
    }
  }
  SortByDewey(&out);
  return out;
}

void PathIndex::ForEachRaw(
    const std::function<void(const std::string&, const std::string&,
                             const std::string&)>& fn) const {
  for (size_t p = 0; p < paths_.size(); ++p) {
    for (const Row& row : rows_[p]) fn(paths_[p], row.value, row.entries);
  }
}

void PathIndex::ForEachRow(
    const std::function<void(const std::string&, const std::string&,
                             const std::vector<PathEntry>&)>& fn) const {
  ForEachRaw([&fn](const std::string& path, const std::string& value,
                   const std::string& encoded) {
    std::vector<PathEntry> entries;
    DecodeOwnRow(encoded, std::nullopt, &entries);
    fn(path, value, entries);
  });
}

}  // namespace quickview::index
