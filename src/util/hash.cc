#include "util/hash.h"

#include <algorithm>
#include <bit>
#include <cstdlib>
#include <cstring>

#include "util/sha256_kernels.h"

#if defined(__x86_64__)
#include <cpuid.h>
#endif

namespace wafp::util {
namespace {

constexpr std::uint32_t rotr(std::uint32_t x, int n) { return std::rotr(x, n); }

constexpr char kHexDigits[] = "0123456789abcdef";

bool cpu_has_sha_ni() {
#if defined(__x86_64__)
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (__get_cpuid(1, &eax, &ebx, &ecx, &edx) == 0) return false;
  const bool ssse3_sse41 = (ecx & bit_SSSE3) != 0 && (ecx & bit_SSE4_1) != 0;
  if (__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx) == 0) return false;
  return ssse3_sse41 && (ebx & bit_SHA) != 0;
#else
  return false;
#endif
}

}  // namespace

std::string Digest::hex() const { return to_hex(bytes); }

std::string Digest::short_hex() const { return hex().substr(0, 8); }

std::uint64_t Digest::prefix64() const {
  std::uint64_t v = 0;
  std::memcpy(&v, bytes.data(), sizeof(v));
  return v;
}

namespace {

void process_block(sha256_detail::State& state, const std::uint8_t* block) {
  std::array<std::uint32_t, 64> w;
  for (int i = 0; i < 16; ++i) {
    w[i] = (std::uint32_t{block[4 * i]} << 24) |
           (std::uint32_t{block[4 * i + 1]} << 16) |
           (std::uint32_t{block[4 * i + 2]} << 8) |
           std::uint32_t{block[4 * i + 3]};
  }
  for (int i = 16; i < 64; ++i) {
    const std::uint32_t s0 =
        rotr(w[i - 15], 7) ^ rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
    const std::uint32_t s1 =
        rotr(w[i - 2], 17) ^ rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
    w[i] = w[i - 16] + s0 + w[i - 7] + s1;
  }

  auto [a, b, c, d, e, f, g, h] = state;
  for (int i = 0; i < 64; ++i) {
    const std::uint32_t s1 = rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25);
    const std::uint32_t ch = (e & f) ^ (~e & g);
    const std::uint32_t temp1 =
        h + s1 + ch + sha256_detail::kRoundConstants[i] + w[i];
    const std::uint32_t s0 = rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22);
    const std::uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
    const std::uint32_t temp2 = s0 + maj;
    h = g;
    g = f;
    f = e;
    e = d + temp1;
    d = c;
    c = b;
    b = a;
    a = temp1 + temp2;
  }
  state[0] += a;
  state[1] += b;
  state[2] += c;
  state[3] += d;
  state[4] += e;
  state[5] += f;
  state[6] += g;
  state[7] += h;
}

}  // namespace

void sha256_detail::compress_portable(State& state, const std::uint8_t* data,
                                      std::size_t nblocks) {
  for (; nblocks > 0; --nblocks, data += 64) process_block(state, data);
}

bool Sha256::kernel_supported(Kernel kernel) {
  static const bool sha_ni = cpu_has_sha_ni();
  return kernel == Kernel::kPortable || sha_ni;
}

Sha256::Kernel Sha256::active_kernel() {
  static const Kernel kernel = [] {
    const char* simd = std::getenv("WAFP_SIMD");
    const bool forced_scalar =
        simd != nullptr && std::string_view(simd) == "scalar";
    return !forced_scalar && kernel_supported(Kernel::kShaNi)
               ? Kernel::kShaNi
               : Kernel::kPortable;
  }();
  return kernel;
}

std::string_view Sha256::kernel_name(Kernel kernel) {
  return kernel == Kernel::kShaNi ? "sha_ni" : "portable";
}

Sha256::Sha256() : Sha256(active_kernel()) {}

Sha256::Sha256(Kernel kernel)
    : state_{0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
             0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19},
      compress_(&sha256_detail::compress_portable) {
#if defined(__x86_64__)
  if (kernel == Kernel::kShaNi && kernel_supported(kernel)) {
    compress_ = &sha256_detail::compress_shani;
  }
#else
  (void)kernel;
#endif
}

void Sha256::update(std::span<const std::uint8_t> data) {
  total_bytes_ += data.size();
  const std::uint8_t* p = data.data();
  std::size_t n = data.size();
  if (n == 0) return;
  if (buffered_ > 0) {
    const std::size_t take = std::min(n, buffer_.size() - buffered_);
    std::memcpy(buffer_.data() + buffered_, p, take);
    buffered_ += take;
    p += take;
    n -= take;
    if (buffered_ < buffer_.size()) return;
    compress_(state_, buffer_.data(), 1);
    buffered_ = 0;
  }
  // Every whole block in one call, so a SIMD kernel keeps the state in
  // registers across the run.
  if (n >= 64) {
    compress_(state_, p, n / 64);
    p += n / 64 * 64;
    n %= 64;
  }
  if (n > 0) {
    std::memcpy(buffer_.data(), p, n);
    buffered_ = n;
  }
}

void Sha256::update(std::string_view data) {
  update(std::span(reinterpret_cast<const std::uint8_t*>(data.data()),
                   data.size()));
}

void Sha256::update(std::span<const float> samples) {
  update(std::span(reinterpret_cast<const std::uint8_t*>(samples.data()),
                   samples.size() * sizeof(float)));
}

void Sha256::update(std::span<const double> samples) {
  update(std::span(reinterpret_cast<const std::uint8_t*>(samples.data()),
                   samples.size() * sizeof(double)));
}

void Sha256::update_u64(std::uint64_t v) {
  std::array<std::uint8_t, 8> le;
  for (int i = 0; i < 8; ++i) le[i] = static_cast<std::uint8_t>(v >> (8 * i));
  update(std::span<const std::uint8_t>(le));
}

Digest Sha256::finish() {
  const std::uint64_t bit_length = total_bytes_ * 8;
  // Padding: 0x80, zeros up to byte 56 of a block (spilling into a second
  // block when fewer than 9 bytes are free), then the big-endian length.
  buffer_[buffered_++] = 0x80;
  if (buffered_ > 56) {
    std::fill(buffer_.begin() + static_cast<std::ptrdiff_t>(buffered_),
              buffer_.end(), std::uint8_t{0});
    compress_(state_, buffer_.data(), 1);
    buffered_ = 0;
  }
  std::fill(buffer_.begin() + static_cast<std::ptrdiff_t>(buffered_),
            buffer_.begin() + 56, std::uint8_t{0});
  for (int i = 0; i < 8; ++i) {
    buffer_[56 + i] = static_cast<std::uint8_t>(bit_length >> (8 * (7 - i)));
  }
  compress_(state_, buffer_.data(), 1);

  Digest d;
  for (int i = 0; i < 8; ++i) {
    d.bytes[4 * i] = static_cast<std::uint8_t>(state_[i] >> 24);
    d.bytes[4 * i + 1] = static_cast<std::uint8_t>(state_[i] >> 16);
    d.bytes[4 * i + 2] = static_cast<std::uint8_t>(state_[i] >> 8);
    d.bytes[4 * i + 3] = static_cast<std::uint8_t>(state_[i]);
  }
  return d;
}

Digest sha256(std::string_view data) {
  Sha256 h;
  h.update(data);
  return h.finish();
}

Digest sha256(std::span<const std::uint8_t> data) {
  Sha256 h;
  h.update(data);
  return h.finish();
}

Digest sha256(std::span<const float> samples) {
  Sha256 h;
  h.update(samples);
  return h.finish();
}

namespace {
constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;
}  // namespace

std::uint64_t fnv1a64(std::string_view data) {
  return fnv1a64_mix(kFnvOffset, data);
}

std::uint64_t fnv1a64(std::span<const std::uint8_t> data) {
  std::uint64_t h = kFnvOffset;
  for (const std::uint8_t b : data) {
    h ^= b;
    h *= kFnvPrime;
  }
  return h;
}

std::uint64_t fnv1a64_mix(std::uint64_t state, std::string_view data) {
  for (const char c : data) {
    state ^= static_cast<std::uint8_t>(c);
    state *= kFnvPrime;
  }
  return state;
}

std::uint64_t fnv1a64_mix(std::uint64_t state, std::uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    state ^= (value >> (8 * i)) & 0xff;
    state *= kFnvPrime;
  }
  return state;
}

std::string to_hex(std::span<const std::uint8_t> bytes) {
  std::string out;
  out.reserve(bytes.size() * 2);
  for (const std::uint8_t b : bytes) {
    out.push_back(kHexDigits[b >> 4]);
    out.push_back(kHexDigits[b & 0xf]);
  }
  return out;
}

}  // namespace wafp::util
