// util/hash.h: byte-wise FNV-1a-64 pinned to the published reference
// vectors, and the word-wise record checksum pinned to its definition and
// to catching every single-byte change.
#include "util/hash.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

namespace xp::util {
namespace {

std::uint64_t fnv(const std::string& s) { return fnv1a64(s.data(), s.size()); }

TEST(Hash, Fnv1a64MatchesTheReferenceVectors) {
  EXPECT_EQ(fnv(""), 0xcbf29ce484222325ULL);
  EXPECT_EQ(fnv("a"), 0xaf63dc4c8601ec8cULL);
  EXPECT_EQ(fnv("foobar"), 0x85944171f73967e8ULL);
}

TEST(Hash, Fnv1a64ContinuesAcrossCalls) {
  const std::string a = "journal ", b = "fingerprint";
  EXPECT_EQ(fnv1a64(b.data(), b.size(), fnv(a)), fnv(a + b));
}

TEST(Hash, WordChecksumIsFnvOverWordsThenTailBytes) {
  std::vector<unsigned char> bytes(29);
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    bytes[i] = static_cast<unsigned char>(i * 37 + 11);
  }
  for (std::size_t size = 0; size <= bytes.size(); ++size) {
    SCOPED_TRACE("size " + std::to_string(size));
    std::uint64_t expected = kFnv1a64Basis;
    std::size_t i = 0;
    for (; i + 8 <= size; i += 8) {
      std::uint64_t word = 0;
      for (std::size_t b = 0; b < 8; ++b) {
        word |= static_cast<std::uint64_t>(bytes[i + b]) << (8 * b);
      }
      expected = (expected ^ word) * kFnv1a64Prime;
    }
    for (; i < size; ++i) expected = (expected ^ bytes[i]) * kFnv1a64Prime;
    EXPECT_EQ(fnv1a64_words(bytes.data(), size), expected);
  }
  // Under one word there is only the byte-wise tail.
  EXPECT_EQ(fnv1a64_words("foobar", 6), fnv("foobar"));
}

TEST(Hash, WordChecksumChangesUnderEverySingleByteChange) {
  std::vector<unsigned char> buffer(1024);
  std::uint64_t state = 0x9e3779b97f4a7c15ULL;
  for (unsigned char& byte : buffer) {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    byte = static_cast<unsigned char>(state >> 56);
  }
  const std::uint64_t clean = fnv1a64_words(buffer.data(), buffer.size());
  std::size_t missed = 0;
  for (std::size_t pos = 0; pos < buffer.size(); ++pos) {
    const unsigned char original = buffer[pos];
    for (unsigned mask = 1; mask < 256; ++mask) {
      buffer[pos] = static_cast<unsigned char>(original ^ mask);
      missed += fnv1a64_words(buffer.data(), buffer.size()) == clean;
    }
    buffer[pos] = original;
  }
  EXPECT_EQ(missed, 0u);
}

}  // namespace
}  // namespace xp::util
