#include "index/path_index.h"

#include <algorithm>
#include <cassert>
#include <numeric>

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

uint32_t PathIndex::InternPath(const std::string& path) {
  auto it = path_ordinals_.find(path);
  if (it != path_ordinals_.end()) return it->second;
  const auto ordinal = static_cast<uint32_t>(path_ordinals_.size());
  path_ordinals_.emplace(path, ordinal);
  return ordinal;
}

void PathIndex::AddEntry(uint32_t path, std::string_view value,
                         const xml::DeweyId& id, uint64_t byte_length) {
  pending_.push_back(PendingEntry{path, value, id, byte_length});
}

void PathIndex::Finalize() {
  // The sorted path dictionary, and each interned ordinal's rank in it.
  std::vector<std::pair<std::string, uint32_t>> interned(
      path_ordinals_.begin(), path_ordinals_.end());
  path_ordinals_.clear();
  std::sort(interned.begin(), interned.end());
  std::vector<uint32_t> rank(interned.size());
  paths_.reserve(interned.size());
  for (size_t i = 0; i < interned.size(); ++i) {
    rank[interned[i].second] = static_cast<uint32_t>(i);
    paths_.push_back(std::move(interned[i].first));
  }
  rows_.resize(paths_.size());
  // Rows in (path, value) order, each row's ids in arrival (Dewey) order:
  // entry positions are bucketed by path rank in arrival order, then each
  // path's run is sorted by value with arrival order breaking ties. That
  // is a stable sort without std::stable_sort, whose buffer comes from
  // the nothrow operator new the allocation-counting tests do not
  // replace.
  std::vector<uint32_t> start(paths_.size() + 1, 0);
  for (const PendingEntry& e : pending_) ++start[rank[e.path] + 1];
  std::partial_sum(start.begin(), start.end(), start.begin());
  std::vector<uint32_t> order(pending_.size());
  std::vector<uint32_t> next(start.begin(), start.end() - 1);
  for (uint32_t i = 0; i < pending_.size(); ++i) {
    order[next[rank[pending_[i].path]]++] = i;
  }
  auto by_value = [this](uint32_t a, uint32_t b) {
    const int c = pending_[a].value.compare(pending_[b].value);
    return c != 0 ? c < 0 : a < b;
  };
  std::vector<std::pair<xml::DeweyId, uint64_t>> entries;
  for (size_t p = 0; p < paths_.size(); ++p) {
    const auto run_end = order.begin() + start[p + 1];
    auto it = order.begin() + start[p];
    std::sort(it, run_end, by_value);
    while (it != run_end) {
      const std::string_view value = pending_[*it].value;
      entries.clear();
      for (; it != run_end && pending_[*it].value == value; ++it) {
        entries.emplace_back(pending_[*it].id, pending_[*it].byte_length);
      }
      rows_[p].push_back(
          Row{std::string(value), EncodePathEntryList(entries)});
    }
  }
  pending_ = {};
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
