// Byte-buffer helpers shared by the bytecode codec, the network emulation
// layer and the protocol targets.

#ifndef SRC_COMMON_BYTES_H_
#define SRC_COMMON_BYTES_H_

#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace nyx {

using Bytes = std::vector<uint8_t>;

inline Bytes ToBytes(std::string_view s) {
  return Bytes(s.begin(), s.end());
}

inline std::string ToString(std::span<const uint8_t> b) {
  return std::string(b.begin(), b.end());
}

inline std::string_view AsStringView(const Bytes& b) {
  return std::string_view(reinterpret_cast<const char*>(b.data()), b.size());
}

// Little-endian scalar accessors; reads past the end return 0 so parsers can
// be written without pre-checking lengths everywhere.
inline uint16_t ReadLe16(const Bytes& b, size_t off) {
  if (off + 2 > b.size()) {
    return 0;
  }
  return static_cast<uint16_t>(b[off]) | static_cast<uint16_t>(b[off + 1]) << 8;
}

inline uint32_t ReadLe32(const Bytes& b, size_t off) {
  if (off + 4 > b.size()) {
    return 0;
  }
  uint32_t v = 0;
  std::memcpy(&v, b.data() + off, 4);
  return v;
}

inline uint16_t ReadBe16(const Bytes& b, size_t off) {
  if (off + 2 > b.size()) {
    return 0;
  }
  return static_cast<uint16_t>(b[off]) << 8 | static_cast<uint16_t>(b[off + 1]);
}

inline uint32_t ReadBe32(const Bytes& b, size_t off) {
  if (off + 4 > b.size()) {
    return 0;
  }
  return static_cast<uint32_t>(b[off]) << 24 | static_cast<uint32_t>(b[off + 1]) << 16 |
         static_cast<uint32_t>(b[off + 2]) << 8 | static_cast<uint32_t>(b[off + 3]);
}

inline void PutLe16(Bytes& b, uint16_t v) {
  b.push_back(static_cast<uint8_t>(v));
  b.push_back(static_cast<uint8_t>(v >> 8));
}

inline void PutLe32(Bytes& b, uint32_t v) {
  for (int i = 0; i < 4; i++) {
    b.push_back(static_cast<uint8_t>(v >> (8 * i)));
  }
}

inline void PutLe64(Bytes& b, uint64_t v) {
  for (int i = 0; i < 8; i++) {
    b.push_back(static_cast<uint8_t>(v >> (8 * i)));
  }
}

inline void PutBe16(Bytes& b, uint16_t v) {
  b.push_back(static_cast<uint8_t>(v >> 8));
  b.push_back(static_cast<uint8_t>(v));
}

inline void PutBe32(Bytes& b, uint32_t v) {
  for (int i = 3; i >= 0; i--) {
    b.push_back(static_cast<uint8_t>(v >> (8 * i)));
  }
}

inline void Append(Bytes& dst, std::span<const uint8_t> src) {
  dst.insert(dst.end(), src.begin(), src.end());
}

inline void Append(Bytes& dst, std::string_view src) {
  dst.insert(dst.end(), src.begin(), src.end());
}

// Case-insensitive ASCII prefix check used by the text-protocol parsers.
inline bool StartsWithNoCase(std::string_view haystack, std::string_view prefix) {
  if (haystack.size() < prefix.size()) {
    return false;
  }
  for (size_t i = 0; i < prefix.size(); i++) {
    char a = haystack[i];
    char b = prefix[i];
    if (a >= 'a' && a <= 'z') {
      a = static_cast<char>(a - 'a' + 'A');
    }
    if (b >= 'a' && b <= 'z') {
      b = static_cast<char>(b - 'a' + 'A');
    }
    if (a != b) {
      return false;
    }
  }
  return true;
}

inline std::string HexDump(const Bytes& b, size_t max = 64) {
  static const char* kHex = "0123456789abcdef";
  std::string out;
  size_t n = b.size() < max ? b.size() : max;
  out.reserve(n * 3);
  for (size_t i = 0; i < n; i++) {
    out.push_back(kHex[b[i] >> 4]);
    out.push_back(kHex[b[i] & 0xf]);
    out.push_back(' ');
  }
  if (b.size() > max) {
    out += "...";
  }
  return out;
}

}  // namespace nyx

#endif  // SRC_COMMON_BYTES_H_
