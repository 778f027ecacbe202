// XXH64: the 64-bit xxHash of a byte range (one-shot, standard constants).
//
// The checksum behind every integrity guardrail: snapshot image sections
// (service/snapshot_store) and the write-time checksums of cached pass
// results (sta/slack_engine, scenario/corner_analysis).  It reads the input
// eight bytes at a time as little-endian words, so the same bytes hash to
// the same value on every host, and its cost is a few cycles per 32 bytes:
// memory speed on anything cache-resident.
#pragma once

#include <cstddef>
#include <cstdint>

namespace hb {

std::uint64_t xxhash64(const void* data, std::size_t len, std::uint64_t seed);

}  // namespace hb
