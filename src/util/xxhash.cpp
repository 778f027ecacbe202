#include "util/xxhash.hpp"

#include <bit>
#include <cstring>

namespace hb {
namespace {

constexpr std::uint64_t kPrime1 = 0x9E3779B185EBCA87ull;
constexpr std::uint64_t kPrime2 = 0xC2B2AE3D27D4EB4Full;
constexpr std::uint64_t kPrime3 = 0x165667B19E3779F9ull;
constexpr std::uint64_t kPrime4 = 0x85EBCA77C2B2AE63ull;
constexpr std::uint64_t kPrime5 = 0x27D4EB2F165667C5ull;

// Little-endian loads: one unaligned load on little-endian hosts.
std::uint64_t read_le64(const unsigned char* p) {
  std::uint64_t v = 0;
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(&v, p, 8);
  } else {
    for (int i = 0; i < 8; ++i) v |= std::uint64_t{p[i]} << (8 * i);
  }
  return v;
}

std::uint32_t read_le32(const unsigned char* p) {
  std::uint32_t v = 0;
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(&v, p, 4);
  } else {
    for (int i = 0; i < 4; ++i) v |= std::uint32_t{p[i]} << (8 * i);
  }
  return v;
}

std::uint64_t xxh_round(std::uint64_t acc, std::uint64_t input) {
  return std::rotl(acc + input * kPrime2, 31) * kPrime1;
}

std::uint64_t xxh_merge(std::uint64_t acc, std::uint64_t val) {
  return (acc ^ xxh_round(0, val)) * kPrime1 + kPrime4;
}

}  // namespace

std::uint64_t xxhash64(const void* data, std::size_t len, std::uint64_t seed) {
  const auto* p = static_cast<const unsigned char*>(data);
  const unsigned char* const end = p + len;
  std::uint64_t h;
  if (len >= 32) {
    std::uint64_t v1 = seed + kPrime1 + kPrime2;
    std::uint64_t v2 = seed + kPrime2;
    std::uint64_t v3 = seed;
    std::uint64_t v4 = seed - kPrime1;
    const unsigned char* const limit = end - 32;
    do {
      v1 = xxh_round(v1, read_le64(p));
      v2 = xxh_round(v2, read_le64(p + 8));
      v3 = xxh_round(v3, read_le64(p + 16));
      v4 = xxh_round(v4, read_le64(p + 24));
      p += 32;
    } while (p <= limit);
    h = std::rotl(v1, 1) + std::rotl(v2, 7) + std::rotl(v3, 12) +
        std::rotl(v4, 18);
    h = xxh_merge(h, v1);
    h = xxh_merge(h, v2);
    h = xxh_merge(h, v3);
    h = xxh_merge(h, v4);
  } else {
    h = seed + kPrime5;
  }
  h += static_cast<std::uint64_t>(len);
  while (p + 8 <= end) {
    h = std::rotl(h ^ xxh_round(0, read_le64(p)), 27) * kPrime1 + kPrime4;
    p += 8;
  }
  if (p + 4 <= end) {
    h = std::rotl(h ^ (std::uint64_t{read_le32(p)} * kPrime1), 23) * kPrime2 +
        kPrime3;
    p += 4;
  }
  while (p < end) {
    h = std::rotl(h ^ (std::uint64_t{*p} * kPrime5), 11) * kPrime1;
    ++p;
  }
  h ^= h >> 33;
  h *= kPrime2;
  h ^= h >> 29;
  h *= kPrime3;
  h ^= h >> 32;
  return h;
}

}  // namespace hb
