// FNV-1a-64: the one hash behind journal fingerprints, cell keys and
// record checksums.
//
// Two forms share the standard offset basis and prime:
//   - fnv1a64: the reference byte-wise hash, for short keyed inputs
//     (spec fingerprints, per-cell content keys, source config digests).
//   - fnv1a64_words: the same xor-then-multiply step over little-endian
//     64-bit words, tail bytes one at a time — eight times fewer
//     multiplies, for the journal's multi-megabyte record checksums.
//     Each step is a bijection of the state for a fixed input word
//     (xor, then multiplication by an odd constant mod 2^64), so a change
//     confined to one word always changes the result.
// Words are read in host order; like the journal and trace codecs, this
// targets little-endian hosts only.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>

namespace xp::util {

inline constexpr std::uint64_t kFnv1a64Basis = 0xcbf29ce484222325ULL;
inline constexpr std::uint64_t kFnv1a64Prime = 0x100000001b3ULL;

/// Byte-wise FNV-1a-64 of `size` bytes. Pass an earlier result as `hash`
/// to continue it: hashing `a` then `b` equals hashing `a` + `b`.
inline std::uint64_t fnv1a64(const void* data, std::size_t size,
                             std::uint64_t hash = kFnv1a64Basis) noexcept {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < size; ++i) {
    hash ^= bytes[i];
    hash *= kFnv1a64Prime;
  }
  return hash;
}

/// FNV-1a-64 over little-endian 64-bit words, then the trailing
/// `size % 8` bytes one at a time (the journal's record checksum).
inline std::uint64_t fnv1a64_words(const void* data,
                                   std::size_t size) noexcept {
  const auto* bytes = static_cast<const unsigned char*>(data);
  std::uint64_t hash = kFnv1a64Basis;
  const std::size_t words_end = size - size % sizeof(std::uint64_t);
  for (std::size_t i = 0; i < words_end; i += sizeof(std::uint64_t)) {
    std::uint64_t word;
    std::memcpy(&word, bytes + i, sizeof(word));
    hash ^= word;
    hash *= kFnv1a64Prime;
  }
  return fnv1a64(bytes + words_end, size - words_end, hash);
}

}  // namespace xp::util
