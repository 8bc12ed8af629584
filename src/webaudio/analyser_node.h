// AnalyserNode: pass-through node exposing windowed-FFT frequency data —
// the heart of the paper's FFT fingerprinting vector (Fig. 2) and, per
// §3.1, the source of the fingerprints' apparent fickleness. The frequency
// pipeline follows Blink: time-domain ring buffer -> Blackman window ->
// FFT -> magnitude -> exponential smoothing -> dB conversion.
//
// The render jitter model (RenderJitter below) hooks in here and only here,
// on the capture side: a nonzero jitter state skews the ring-buffer read
// offset, and a chaos seed perturbs isolated output bins by one ULP. The
// time-domain signal path never sees jitter, so DC-only fingerprints stay
// stable, and one render can serve several jitter states at once: each
// capture reader (set_readers) keeps its own skew, chaos seed, smoothed
// magnitudes and capture counter over the shared ring, so reader i's
// stream is exactly what a render with only jitters[i] would capture.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "util/function_effects.h"
#include "webaudio/audio_node.h"

namespace wafp::webaudio {

/// Render-time perturbation state modelling the paper's observed
/// "fickleness" (§3.1): FFT-based vectors occasionally hash differently on
/// the same machine, which the authors attribute to the analysis path (the
/// DC vector never wavers). We model two mechanisms:
///
///  * `state` > 0 — a platform-determined capture-timing skew: the analyser
///    reads its FFT block at a slightly shifted ring-buffer offset. The same
///    (platform, state) pair always produces the same digest, so different
///    users on identical stacks can still collide — which is what makes the
///    paper's graph collation (§3.2) merge clusters.
///  * `chaos_seed` != 0 — a one-off transient glitch (scheduling hiccup /
///    load spike) that perturbs isolated analyser bins by one ULP; such
///    digests are effectively unique, giving the long tail of Table 1.
struct RenderJitter {
  std::uint32_t state = 0;
  std::uint64_t chaos_seed = 0;

  [[nodiscard]] bool is_stable() const { return state == 0 && chaos_seed == 0; }
};

class AnalyserNode final : public AudioNode {
 public:
  explicit AnalyserNode(OfflineAudioContext& context,
                        std::size_t channels = 1);

  [[nodiscard]] std::string_view node_name() const override {
    return "AnalyserNode";
  }

  /// Power of two in [32, 32768]; default 2048.
  void set_fft_size(std::size_t fft_size);
  [[nodiscard]] std::size_t fft_size() const { return fft_size_; }
  [[nodiscard]] std::size_t frequency_bin_count() const {
    return fft_size_ / 2;
  }

  /// Smoothing factor in [0, 1); default 0.8 (Web Audio default).
  void set_smoothing_time_constant(double tau);
  [[nodiscard]] double smoothing_time_constant() const { return smoothing_; }

  /// Replace the capture readers with one per jitter state, each with
  /// fresh smoothing and capture history. A new node has one stable reader.
  void set_readers(std::span<const RenderJitter> jitters);

  /// Write frequency_bin_count() dB magnitudes of the most recent fftSize
  /// input frames, as seen by capture reader `reader`, into `out`
  /// (getFloatFrequencyData semantics).
  void get_float_frequency_data(std::size_t reader, std::span<float> out);
  /// Reader 0's capture.
  void get_float_frequency_data(std::span<float> out) {
    get_float_frequency_data(0, out);
  }

  /// Copy the most recent fftSize time-domain samples into `out`
  /// (getFloatTimeDomainData semantics).
  void get_float_time_domain_data(std::span<float> out) const;

  void process(std::size_t start_frame, std::size_t frames)
      WAFP_NONALLOCATING override;

 private:
  /// Gather the latest fftSize ring samples, honouring the jitter skew.
  void gather_block(std::span<double> block, std::size_t skew) const;

  AudioBus input_scratch_;
  std::size_t fft_size_ = 2048;
  double smoothing_ = 0.8;
  std::vector<float> ring_;
  std::size_t write_index_ = 0;
  std::vector<double> window_;        // cached per fftSize
  std::size_t window_fft_size_ = 0;   // size the cache was built for

  /// Per-reader capture state: everything a capture reads or advances
  /// besides the shared ring.
  struct Reader {
    std::size_t skew = 0;  // ring-buffer read skew, frames
    std::uint64_t chaos_seed = 0;
    std::vector<float> smoothed_magnitudes;
    std::uint64_t capture_counter = 0;  // distinguishes chaos draws per call
  };
  std::vector<Reader> readers_;

  // Capture scratch, grown to fftSize on first use so repeated captures
  // allocate nothing. `block_scratch_` is mutable because the const
  // time-domain getter shares it.
  mutable std::vector<double> block_scratch_;
  std::vector<float> re_scratch_;
  std::vector<float> im_scratch_;
  std::vector<float> mag_scratch_;
  std::vector<double> db_lin_scratch_;
  std::vector<double> db_scratch_;
};

}  // namespace wafp::webaudio
