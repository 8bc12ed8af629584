// SHA-256 and FNV-1a hashing used to digest rendered audio buffers into
// fingerprints, mirroring the hash step of the paper's fingerprinting vectors
// (Figs. 1, 2, 6-8: "... -> Hash -> Fingerprint").
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace wafp::util {

/// A 256-bit message digest. Fingerprints throughout the library are Digests.
struct Digest {
  std::array<std::uint8_t, 32> bytes{};

  friend bool operator==(const Digest&, const Digest&) = default;
  friend auto operator<=>(const Digest&, const Digest&) = default;

  /// Lowercase hex rendering ("e3b0c442...").
  [[nodiscard]] std::string hex() const;

  /// Short (8-hex-char) prefix for human-readable reports.
  [[nodiscard]] std::string short_hex() const;

  /// First 8 bytes as a little-endian integer; convenient map key.
  [[nodiscard]] std::uint64_t prefix64() const;
};

/// Incremental SHA-256 (FIPS 180-4). Implemented from scratch; validated
/// against the standard test vectors in tests/util/hash_test.cc.
///
/// Block compression is picked once per process: x86-64 CPUs whose CPUID
/// reports the SHA extensions (with SSSE3 and SSE4.1) run the SHA-NI
/// kernel, everything else runs the portable C++ rounds. WAFP_SIMD=scalar,
/// the override that forces the scalar DSP kernels (dsp/simd.h), forces the
/// portable rounds as well. Both kernels compute the same function, so a
/// digest never depends on the host; the tests compare them on random
/// inputs and update() splits.
class Sha256 {
 public:
  enum class Kernel { kPortable, kShaNi };

  /// Hash with active_kernel().
  Sha256();
  /// Hash with `kernel`, or with the portable rounds if this CPU cannot run
  /// it (kernel_supported()).
  explicit Sha256(Kernel kernel);

  [[nodiscard]] static bool kernel_supported(Kernel kernel);
  /// The process-wide choice described above.
  [[nodiscard]] static Kernel active_kernel();
  [[nodiscard]] static std::string_view kernel_name(Kernel kernel);

  /// Absorb raw bytes.
  void update(std::span<const std::uint8_t> data);
  void update(std::string_view data);

  /// Absorb the raw IEEE-754 representation of a float/double span. This is
  /// how audio buffers are fingerprinted: bit-exact, so one-ULP differences
  /// between platform DSP stacks yield different digests.
  void update(std::span<const float> samples);
  void update(std::span<const double> samples);

  /// Absorb a little-endian 64-bit integer.
  void update_u64(std::uint64_t v);

  /// Finalize and return the digest. The object must not be reused after.
  [[nodiscard]] Digest finish();

 private:
  using CompressFn = void (*)(std::array<std::uint32_t, 8>& state,
                              const std::uint8_t* data, std::size_t nblocks);

  std::array<std::uint32_t, 8> state_;
  CompressFn compress_;
  std::array<std::uint8_t, 64> buffer_{};
  std::size_t buffered_ = 0;
  std::uint64_t total_bytes_ = 0;
};

/// One-shot helpers.
[[nodiscard]] Digest sha256(std::string_view data);
[[nodiscard]] Digest sha256(std::span<const std::uint8_t> data);
[[nodiscard]] Digest sha256(std::span<const float> samples);

/// FNV-1a 64-bit; used for cheap non-cryptographic keys (cache keys,
/// categorical attribute mixing), never as a fingerprint itself.
[[nodiscard]] std::uint64_t fnv1a64(std::string_view data);
[[nodiscard]] std::uint64_t fnv1a64(std::span<const std::uint8_t> data);

/// Mix an existing FNV state with more data (chained hashing).
[[nodiscard]] std::uint64_t fnv1a64_mix(std::uint64_t state,
                                        std::string_view data);
[[nodiscard]] std::uint64_t fnv1a64_mix(std::uint64_t state,
                                        std::uint64_t value);

/// Hex encode arbitrary bytes.
[[nodiscard]] std::string to_hex(std::span<const std::uint8_t> bytes);

}  // namespace wafp::util

template <>
struct std::hash<wafp::util::Digest> {
  std::size_t operator()(const wafp::util::Digest& d) const noexcept {
    return static_cast<std::size_t>(d.prefix64());
  }
};
