#include "qvbench/answers.h"

#include <cstdio>
#include <cstring>

#include "qvbench/inputs.h"

namespace qvbench {

std::string Digest::Hex() const {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%016llx%016llx/%zu",
                static_cast<unsigned long long>(a),
                static_cast<unsigned long long>(b), hits);
  return buf;
}

HitDigest::HitDigest() {
  digest_.a = Fnv64("hits-a");
  digest_.b = Fnv64("hits-b");
}

void HitDigest::Mix(std::string_view bytes) {
  digest_.a = Fnv64(bytes, digest_.a);
  // Second lane over the bytes in reverse, so the pair is not two copies
  // of one hash.
  for (size_t i = bytes.size(); i > 0; --i) {
    digest_.b ^= static_cast<unsigned char>(bytes[i - 1]);
    digest_.b *= 1099511628211ull;
  }
}

void HitDigest::Add(const quickview::engine::SearchHit& hit) {
  uint64_t bits = 0;
  std::memcpy(&bits, &hit.score, sizeof(bits));
  Mix(std::string_view(reinterpret_cast<const char*>(&bits), sizeof(bits)));
  for (uint64_t tf : hit.tf) {
    Mix(std::string_view(reinterpret_cast<const char*>(&tf), sizeof(tf)));
  }
  uint64_t length = hit.byte_length;
  Mix(std::string_view(reinterpret_cast<const char*>(&length),
                       sizeof(length)));
  uint64_t xml_size = hit.xml.size();
  Mix(std::string_view(reinterpret_cast<const char*>(&xml_size),
                       sizeof(xml_size)));
  Mix(hit.xml);
  ++digest_.hits;
}

}  // namespace qvbench
