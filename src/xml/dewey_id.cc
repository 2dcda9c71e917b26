#include "xml/dewey_id.h"

#include <cassert>
#include <vector>

#include "common/strings.h"

namespace quickview::xml {

uint32_t* DeweyId::Init(size_t depth) {
  assert(!spilled());
  words_[0] = static_cast<uint32_t>(depth);
  if (depth <= kInlineDepth) return words_ + 1;
  uint32_t* block = new uint32_t[depth];
  std::memcpy(&words_[2], &block, sizeof(block));
  return block;
}

DeweyId DeweyId::Parse(const std::string& text) {
  if (text.empty()) return DeweyId();
  std::vector<uint32_t> components;
  for (std::string_view piece : SplitString(text, '.')) {
    uint32_t value = 0;
    for (char c : piece) {
      assert(c >= '0' && c <= '9');
      value = value * 10 + static_cast<uint32_t>(c - '0');
    }
    components.push_back(value);
  }
  return DeweyId(components);
}

DeweyId DeweyId::Parent() const {
  if (empty()) return DeweyId();
  return Prefix(depth() - 1);
}

DeweyId DeweyId::Prefix(size_t len) const {
  assert(len <= depth());
  DeweyId out;
  std::copy_n(data(), len, out.Init(len));
  return out;
}

DeweyId DeweyId::Child(uint32_t ordinal) const {
  DeweyId out;
  uint32_t* components = out.Init(depth() + 1);
  std::copy_n(data(), depth(), components);
  components[depth()] = ordinal;
  return out;
}

size_t DeweyId::CommonPrefixLength(const DeweyId& other) const {
  size_t limit = std::min(depth(), other.depth());
  const uint32_t* a = data();
  const uint32_t* b = other.data();
  size_t i = 0;
  while (i < limit && a[i] == b[i]) ++i;
  return i;
}

std::string DeweyId::Encode() const {
  std::string out;
  out.reserve(depth() * 4);
  for (uint32_t c : components()) {
    out.push_back(static_cast<char>((c >> 24) & 0xff));
    out.push_back(static_cast<char>((c >> 16) & 0xff));
    out.push_back(static_cast<char>((c >> 8) & 0xff));
    out.push_back(static_cast<char>(c & 0xff));
  }
  return out;
}

std::optional<DeweyId> DeweyId::Decode(std::string_view bytes) {
  if (bytes.size() % 4 != 0) return std::nullopt;
  DeweyId out;
  uint32_t* components = out.Init(bytes.size() / 4);
  for (size_t i = 0; i < bytes.size(); i += 4) {
    *components++ =
        (static_cast<uint32_t>(static_cast<unsigned char>(bytes[i])) << 24) |
        (static_cast<uint32_t>(static_cast<unsigned char>(bytes[i + 1]))
         << 16) |
        (static_cast<uint32_t>(static_cast<unsigned char>(bytes[i + 2]))
         << 8) |
        static_cast<uint32_t>(static_cast<unsigned char>(bytes[i + 3]));
  }
  return out;
}

std::string DeweyId::ToString() const {
  std::string out;
  for (size_t i = 0; i < depth(); ++i) {
    if (i > 0) out.push_back('.');
    out += std::to_string(component(i));
  }
  return out;
}

}  // namespace quickview::xml
