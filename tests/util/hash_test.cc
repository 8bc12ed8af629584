#include "util/hash.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <string>
#include <vector>

#include "util/rng.h"

namespace wafp::util {
namespace {

// FIPS 180-4 / NIST CAVP known-answer vectors.
TEST(Sha256Test, EmptyString) {
  EXPECT_EQ(sha256("").hex(),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256Test, Abc) {
  EXPECT_EQ(sha256("abc").hex(),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256Test, TwoBlockMessage) {
  EXPECT_EQ(sha256("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")
                .hex(),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256Test, MillionAs) {
  Sha256 hasher;
  const std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) hasher.update(chunk);
  EXPECT_EQ(hasher.finish().hex(),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256Test, ExactBlockBoundary) {
  // 64-byte input exercises the padding-into-second-block path.
  const std::string input(64, 'x');
  EXPECT_EQ(sha256(input), sha256(input));
  EXPECT_NE(sha256(input), sha256(std::string(63, 'x')));
  EXPECT_NE(sha256(input), sha256(std::string(65, 'x')));
}

TEST(Sha256Test, IncrementalMatchesOneShot) {
  const std::string data = "the quick brown fox jumps over the lazy dog";
  for (std::size_t split = 0; split <= data.size(); ++split) {
    Sha256 hasher;
    hasher.update(std::string_view(data).substr(0, split));
    hasher.update(std::string_view(data).substr(split));
    EXPECT_EQ(hasher.finish(), sha256(data)) << "split=" << split;
  }
}

TEST(Sha256Test, FloatSpanIsBitExact) {
  std::vector<float> a = {1.0f, 2.0f, 3.0f};
  std::vector<float> b = a;
  EXPECT_EQ(sha256(std::span<const float>(a)),
            sha256(std::span<const float>(b)));
  // One-ULP change must alter the digest — the property the whole
  // fingerprinting scheme rests on.
  b[1] = std::nextafter(b[1], 10.0f);
  EXPECT_NE(sha256(std::span<const float>(a)),
            sha256(std::span<const float>(b)));
}

TEST(Sha256Test, NegativeZeroDiffersFromPositiveZero) {
  std::vector<float> pos = {0.0f};
  std::vector<float> neg = {-0.0f};
  EXPECT_NE(sha256(std::span<const float>(pos)),
            sha256(std::span<const float>(neg)));
}

TEST(Sha256Test, UpdateU64IsLittleEndian) {
  Sha256 a;
  a.update_u64(0x0102030405060708ULL);
  Sha256 b;
  const std::uint8_t bytes[8] = {8, 7, 6, 5, 4, 3, 2, 1};
  b.update(std::span<const std::uint8_t>(bytes));
  EXPECT_EQ(a.finish(), b.finish());
}

// Every block kernel must pass the known-answer vectors on its own, not
// just the one this host happens to dispatch to.
Digest sha256_with(Sha256::Kernel kernel, std::string_view data) {
  Sha256 hasher(kernel);
  hasher.update(data);
  return hasher.finish();
}

void expect_known_answers(Sha256::Kernel kernel) {
  EXPECT_EQ(sha256_with(kernel, "").hex(),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
  EXPECT_EQ(sha256_with(kernel, "abc").hex(),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
  EXPECT_EQ(
      sha256_with(kernel,
                  "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")
          .hex(),
      "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
  EXPECT_EQ(
      sha256_with(kernel,
                  "abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmn"
                  "hijklmnoijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu")
          .hex(),
      "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1");
  Sha256 million(kernel);
  const std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) million.update(chunk);
  EXPECT_EQ(million.finish().hex(),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256KernelTest, PortableKnownAnswers) {
  ASSERT_TRUE(Sha256::kernel_supported(Sha256::Kernel::kPortable));
  expect_known_answers(Sha256::Kernel::kPortable);
}

TEST(Sha256KernelTest, ShaNiKnownAnswers) {
  if (!Sha256::kernel_supported(Sha256::Kernel::kShaNi)) {
    GTEST_SKIP() << "CPU lacks the SHA extensions";
  }
  expect_known_answers(Sha256::Kernel::kShaNi);
}

TEST(Sha256KernelTest, ShaNiMatchesPortableOnRandomSplits) {
  if (!Sha256::kernel_supported(Sha256::Kernel::kShaNi)) {
    GTEST_SKIP() << "CPU lacks the SHA extensions";
  }
  Rng rng(20256);
  std::vector<std::uint8_t> data;
  for (int trial = 0; trial < 400; ++trial) {
    data.resize(rng.next_below(4097));
    for (std::uint8_t& b : data) b = static_cast<std::uint8_t>(rng.next_u64());
    // The same random cut points feed both hashers, so buffered partial
    // blocks, multi-block runs and empty updates all get exercised.
    Sha256 portable(Sha256::Kernel::kPortable);
    Sha256 sha_ni(Sha256::Kernel::kShaNi);
    std::size_t pos = 0;
    while (pos < data.size()) {
      const std::size_t len = std::min<std::size_t>(
          data.size() - pos, rng.next_below(rng.next_bool(0.5) ? 8 : 300));
      const std::span<const std::uint8_t> piece(data.data() + pos, len);
      portable.update(piece);
      sha_ni.update(piece);
      pos += len;
    }
    const Digest expected = portable.finish();
    ASSERT_EQ(sha_ni.finish(), expected)
        << "trial " << trial << ", " << data.size() << " bytes";
    ASSERT_EQ(sha256(std::span<const std::uint8_t>(data)), expected);
  }
}

TEST(Sha256KernelTest, ActiveKernelFollowsCpuAndScalarOverride) {
  const char* simd = std::getenv("WAFP_SIMD");
  const bool forced_scalar =
      simd != nullptr && std::string_view(simd) == "scalar";
  EXPECT_EQ(Sha256::active_kernel(),
            !forced_scalar && Sha256::kernel_supported(Sha256::Kernel::kShaNi)
                ? Sha256::Kernel::kShaNi
                : Sha256::Kernel::kPortable);
  EXPECT_EQ(Sha256::kernel_name(Sha256::Kernel::kPortable), "portable");
  EXPECT_EQ(Sha256::kernel_name(Sha256::Kernel::kShaNi), "sha_ni");
}

TEST(DigestTest, HexAndShortHex) {
  const Digest d = sha256("abc");
  EXPECT_EQ(d.hex().size(), 64u);
  EXPECT_EQ(d.short_hex(), d.hex().substr(0, 8));
}

TEST(DigestTest, Prefix64StableUnderMapUse) {
  const Digest d = sha256("abc");
  EXPECT_EQ(d.prefix64(), d.prefix64());
  EXPECT_NE(sha256("a").prefix64(), sha256("b").prefix64());
}

TEST(DigestTest, Ordering) {
  const Digest a = sha256("a");
  const Digest b = sha256("b");
  EXPECT_TRUE(a == a);
  EXPECT_TRUE((a < b) != (b < a));
}

TEST(Fnv1aTest, KnownValues) {
  // Standard FNV-1a 64 test vectors.
  EXPECT_EQ(fnv1a64(""), 0xcbf29ce484222325ULL);
  EXPECT_EQ(fnv1a64("a"), 0xaf63dc4c8601ec8cULL);
  EXPECT_EQ(fnv1a64("foobar"), 0x85944171f73967e8ULL);
}

TEST(Fnv1aTest, MixChainsMatchConcatenation) {
  const std::uint64_t chained = fnv1a64_mix(fnv1a64("foo"), "bar");
  EXPECT_EQ(chained, fnv1a64("foobar"));
}

TEST(Fnv1aTest, MixWithIntegerIsOrderSensitive) {
  const std::uint64_t seed = fnv1a64("seed");
  EXPECT_NE(fnv1a64_mix(seed, std::uint64_t{1}),
            fnv1a64_mix(seed, std::uint64_t{2}));
}

TEST(HexTest, Encode) {
  const std::uint8_t bytes[] = {0x00, 0xff, 0x0a};
  EXPECT_EQ(to_hex(bytes), "00ff0a");
}

}  // namespace
}  // namespace wafp::util
