// Fingerprinting vectors (paper §2.1): the three known audio vectors (DC,
// FFT, Hybrid), the paper's four new ones (Custom Signal, Merged Signals,
// AM, FM), and the comparison vectors (Canvas, Fonts, User-Agent, Math JS).
#pragma once

#include <array>
#include <span>
#include <string_view>
#include <vector>

#include "platform/profile.h"
#include "util/hash.h"
#include "webaudio/analyser_node.h"

namespace wafp::webaudio {
class OfflineAudioContext;
}  // namespace wafp::webaudio

namespace wafp::fingerprint {

enum class VectorId {
  kDc,
  kFft,
  kHybrid,
  kCustomSignal,
  kMergedSignals,
  kAm,
  kFm,
  kCanvas,
  kFonts,
  kUserAgent,
  kMathJs,
  // Extension vectors beyond the paper (its §5 future work asks about
  // "other potential factors"): two more audio graphs harvesting node types
  // the seven study vectors never touch.
  kFilterSweep,  // BiquadFilterNode response + filtered audio
  kDistortion,   // WaveShaperNode with 4x oversampling
  // WebAssembly-style compute vectors (Guri & Fibert, PAPERS.md): float
  // batteries probing the browser binary's libm generation, FMA
  // contraction, and SIMD reduction width — no audio graph involved.
  kWasmFloat,  // scalar f32 transcendental + Horner battery
  kWasmSimd,   // v128 lane reductions (association order per simd_tier)
};

[[nodiscard]] std::string_view to_string(VectorId id);

/// The seven Web Audio vectors, in the paper's table order.
/// Deprecated: thin wrapper over VectorRegistry::instance().audio_ids()
/// (see fingerprint/vector_registry.h); will be removed next release.
[[nodiscard]] std::span<const VectorId> audio_vector_ids();

/// The post-paper extension vectors (see extension_vectors.cc).
/// Deprecated: thin wrapper over VectorRegistry::instance().extension_ids();
/// will be removed next release.
[[nodiscard]] std::span<const VectorId> extension_vector_ids();

/// Funnels a vector's characteristic output into its digest and, when a
/// capture buffer is supplied, records the exact float stream the digest
/// covers — in hash order. Every sample that can influence a fingerprint
/// goes through write(), so two renders with equal digests captured equal
/// streams, and two renders with different digests can be diffed down to
/// the first diverging sample (see src/testing/pcm_digest.h).
class DigestTap {
 public:
  DigestTap(std::string_view vector_name, std::vector<float>* capture)
      : capture_(capture) {
    hasher_.update(vector_name);
  }

  void write(std::span<const float> samples) {
    hasher_.update(samples);
    if (capture_ != nullptr) {
      capture_->insert(capture_->end(), samples.begin(), samples.end());
    }
  }

  /// Finalize; the tap must not be written to afterwards.
  [[nodiscard]] util::Digest finish() { return hasher_.finish(); }

 private:
  util::Sha256 hasher_;
  std::vector<float>* capture_;
};

/// One Web Audio fingerprinting vector: builds its audio graph on a
/// platform-configured OfflineAudioContext, renders, and hashes the
/// characteristic outputs.
///
/// Render jitter only reaches the analyser's capture side (see
/// webaudio/analyser_node.h), so one engine pass can digest any number of
/// jitter states: run_states() renders the graph once and feeds one
/// DigestTap per requested state. run() is its one-state case; there is no
/// other render path.
class AudioFingerprintVector {
 public:
  virtual ~AudioFingerprintVector() = default;

  [[nodiscard]] virtual VectorId id() const = 0;
  [[nodiscard]] std::string_view name() const { return to_string(id()); }

  /// Relative sensitivity of this vector to render-timing perturbations
  /// (paper Table 1: DC never wavers; modulation vectors waver most, which
  /// the authors attribute to heavier render loads). Scales the per-user
  /// flakiness when the study harness draws each iteration's jitter.
  [[nodiscard]] virtual double jitter_susceptibility() const = 0;

  /// Render the vector's graph once on `profile` and write, for every i,
  /// the digest a render with `jitters[i]` alone produces into
  /// `digests[i]` (sizes must match). `captures` is empty or holds one
  /// append-only stream per state (nullptr entries skip); capturing never
  /// changes a digest — the conformance suite asserts it. Deterministic in
  /// (profile.audio, jitters[i]).
  void run_states(const platform::PlatformProfile& profile,
                  std::span<const webaudio::RenderJitter> jitters,
                  std::span<util::Digest> digests,
                  std::span<std::vector<float>* const> captures = {}) const;

  /// Render the vector's graph on the given platform with the given jitter
  /// state and return the fingerprint digest, optionally capturing the
  /// digested sample stream into `capture` (append-only; nullptr skips).
  /// The one-state case of run_states().
  [[nodiscard]] util::Digest run(const platform::PlatformProfile& profile,
                                 const webaudio::RenderJitter& jitter,
                                 std::vector<float>* capture = nullptr) const;

 protected:
  /// Build this vector's graph on `ctx`, render it, and write state i's
  /// digested stream into `taps[i]`, reading the analyser (if any) through
  /// one capture reader per entry of `jitters`. Each vector builds its
  /// graph here and nowhere else.
  virtual void render_taps(webaudio::OfflineAudioContext& ctx,
                           std::span<const webaudio::RenderJitter> jitters,
                           std::span<DigestTap> taps) const = 0;

  /// Write state-independent samples (time-domain output, filter
  /// responses) into every tap.
  static void write_all(std::span<DigestTap> taps,
                        std::span<const float> samples);
  /// Capture reader i's current spectrum into `taps[i]`, for every reader;
  /// `freq` is frequency_bin_count() floats of scratch.
  static void write_spectra(webaudio::AnalyserNode& analyser,
                            std::span<float> freq,
                            std::span<DigestTap> taps);
};

/// Registry lookup (objects are stateless singletons).
[[nodiscard]] const AudioFingerprintVector& audio_vector(VectorId id);

/// Non-audio vectors share this entry point: digest from the profile alone.
[[nodiscard]] util::Digest run_static_vector(
    VectorId id, const platform::PlatformProfile& profile);

/// Compute (WebAssembly-style) vectors: digest from the profile alone, with
/// the battery's exact float stream optionally captured (append-only; pass
/// nullptr to skip) so the conformance goldens can diff them sample-exactly
/// like audio PCM. Throws std::invalid_argument for non-compute ids.
[[nodiscard]] util::Digest run_compute_vector(
    VectorId id, const platform::PlatformProfile& profile,
    std::vector<float>* capture = nullptr);

/// True for the four non-audio comparison vectors.
[[nodiscard]] constexpr bool is_static_vector(VectorId id) {
  return id == VectorId::kCanvas || id == VectorId::kFonts ||
         id == VectorId::kUserAgent || id == VectorId::kMathJs;
}

/// True for the WebAssembly-style compute vectors.
[[nodiscard]] constexpr bool is_compute_vector(VectorId id) {
  return id == VectorId::kWasmFloat || id == VectorId::kWasmSimd;
}

}  // namespace wafp::fingerprint
