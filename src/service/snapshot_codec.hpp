// Shared little-endian codec primitives of the snapshot image format and
// the binary query protocol (snapshot_store, snapshot_view, proto2).
// Writers store whole values (memcpy-sized stores, never byte loops on
// little-endian hosts); the image serialiser stores through a cursor into
// one pre-sized buffer, protocol frames append.
//
// The Reader is a bounds-checked cursor over untrusted bytes: every
// accessor checks the remaining length first and latches `fail`, so no
// read past the end is possible whatever the length fields claim — the
// contract the fixed-seed fuzz jobs rely on.
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

namespace hb {

inline std::uint64_t codec_read_le64(const unsigned char* p) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= std::uint64_t{p[i]} << (8 * i);
  return v;
}

inline std::uint32_t codec_read_le32(const unsigned char* p) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= std::uint32_t{p[i]} << (8 * i);
  return v;
}

inline std::uint16_t codec_read_le16(const unsigned char* p) {
  return static_cast<std::uint16_t>(std::uint16_t{p[0]} |
                                    (std::uint16_t{p[1]} << 8));
}

/// Sized little-endian stores: one unaligned store on little-endian hosts.
inline void codec_store_le64(char* p, std::uint64_t v) {
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(p, &v, 8);
  } else {
    for (int i = 0; i < 8; ++i) p[i] = static_cast<char>((v >> (8 * i)) & 0xFF);
  }
}

inline void codec_store_le32(char* p, std::uint32_t v) {
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(p, &v, 4);
  } else {
    for (int i = 0; i < 4; ++i) p[i] = static_cast<char>((v >> (8 * i)) & 0xFF);
  }
}

// Appending encoders (protocol v2 frames): each value is one bulk append.

inline void put_u8(std::string& out, std::uint8_t v) {
  out.push_back(static_cast<char>(v));
}

inline void put_u16(std::string& out, std::uint16_t v) {
  const char b[2] = {static_cast<char>(v & 0xFF), static_cast<char>(v >> 8)};
  out.append(b, 2);
}

inline void put_u32(std::string& out, std::uint32_t v) {
  char b[4];
  codec_store_le32(b, v);
  out.append(b, 4);
}

inline void put_u64(std::string& out, std::uint64_t v) {
  char b[8];
  codec_store_le64(b, v);
  out.append(b, 8);
}

inline void put_i64(std::string& out, std::int64_t v) {
  put_u64(out, static_cast<std::uint64_t>(v));
}

inline void put_str(std::string& out, std::string_view s) {
  put_u32(out, static_cast<std::uint32_t>(s.size()));
  out.append(s);
}

/// Bounds-checked cursor over an untrusted image.  Every accessor checks
/// the remaining length first and latches `fail` — no read past the end is
/// possible, whatever the length fields claim.
struct Reader {
  const unsigned char* data = nullptr;
  std::size_t size = 0;
  std::size_t pos = 0;
  bool fail = false;

  std::size_t remaining() const { return size - pos; }
  bool need(std::size_t k) {
    if (fail || remaining() < k) {
      fail = true;
      return false;
    }
    return true;
  }
  std::uint8_t u8() {
    if (!need(1)) return 0;
    return data[pos++];
  }
  std::uint16_t u16() {
    if (!need(2)) return 0;
    const std::uint16_t v = codec_read_le16(data + pos);
    pos += 2;
    return v;
  }
  std::uint32_t u32() {
    if (!need(4)) return 0;
    const std::uint32_t v = codec_read_le32(data + pos);
    pos += 4;
    return v;
  }
  std::uint64_t u64() {
    if (!need(8)) return 0;
    const std::uint64_t v = codec_read_le64(data + pos);
    pos += 8;
    return v;
  }
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  /// A u32-length-prefixed string, as a view into the underlying bytes.
  std::string_view str_view() {
    const std::uint32_t len = u32();
    if (!need(len)) return std::string_view();
    std::string_view s(reinterpret_cast<const char*>(data + pos), len);
    pos += len;
    return s;
  }
};

inline Reader reader_of(std::string_view bytes) {
  Reader r;
  r.data = reinterpret_cast<const unsigned char*>(bytes.data());
  r.size = bytes.size();
  return r;
}

}  // namespace hb
