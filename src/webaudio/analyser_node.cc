#include "webaudio/analyser_node.h"

#include <cmath>
#include <limits>
#include <stdexcept>

#include <algorithm>

#include "dsp/simd.h"
#include "dsp/window.h"
#include "util/check.h"
#include "util/rng.h"
#include "webaudio/offline_audio_context.h"

namespace wafp::webaudio {
namespace {

/// Ring capacity: enough for the largest fftSize plus the largest jitter
/// skew we ever apply.
constexpr std::size_t kRingFrames = 65536;

/// Frames of read-offset skew per jitter state; a small prime so different
/// states never alias onto each other across fft sizes.
constexpr std::size_t kSkewFramesPerState = 17;

constexpr RenderJitter kStableJitter{};

/// Nudge a float by `ulps` representation steps (the chaotic glitch model).
float nudge_ulp(float v, int ulps) {
  float out = v;
  for (int i = 0; i < ulps; ++i) {
    out = std::nextafter(out, std::numeric_limits<float>::infinity());
  }
  for (int i = 0; i > ulps; --i) {
    out = std::nextafter(out, -std::numeric_limits<float>::infinity());
  }
  return out;
}

}  // namespace

AnalyserNode::AnalyserNode(OfflineAudioContext& context, std::size_t channels)
    : AudioNode(context, /*num_inputs=*/1, channels),
      input_scratch_(channels, kRenderQuantumFrames),
      smoothing_(context.config().analyser.smoothing),
      ring_(kRingFrames, 0.0f) {
  set_readers(std::span<const RenderJitter>(&kStableJitter, 1));
}

void AnalyserNode::set_readers(std::span<const RenderJitter> jitters) {
  WAFP_CHECK(!jitters.empty()) << "AnalyserNode: at least one reader";
  readers_.assign(jitters.size(), Reader{});
  for (std::size_t r = 0; r < jitters.size(); ++r) {
    readers_[r].skew =
        static_cast<std::size_t>(jitters[r].state) * kSkewFramesPerState;
    readers_[r].chaos_seed = jitters[r].chaos_seed;
    readers_[r].smoothed_magnitudes.assign(fft_size_ / 2, 0.0f);
  }
}

void AnalyserNode::set_fft_size(std::size_t fft_size) {
  if (fft_size < 32 || fft_size > 32768 ||
      (fft_size & (fft_size - 1)) != 0) {
    throw std::invalid_argument(
        "AnalyserNode: fftSize must be a power of two in [32, 32768]");
  }
  fft_size_ = fft_size;
  for (Reader& reader : readers_) {
    reader.smoothed_magnitudes.assign(fft_size_ / 2, 0.0f);
  }
}

void AnalyserNode::set_smoothing_time_constant(double tau) {
  if (tau < 0.0 || tau >= 1.0) {
    throw std::invalid_argument(
        "AnalyserNode: smoothing must be in [0, 1)");
  }
  smoothing_ = tau;
}

void AnalyserNode::process(std::size_t /*start_frame*/, std::size_t frames) {
  mix_input(0, input_scratch_);
  mutable_output().copy_from(input_scratch_);

  const std::size_t channels = input_scratch_.channels();
  for (std::size_t i = 0; i < frames; ++i) {
    float acc = 0.0f;
    for (std::size_t c = 0; c < channels; ++c) {
      acc += input_scratch_.channel(c)[i];
    }
    ring_[write_index_] = acc / static_cast<float>(channels);
    write_index_ = (write_index_ + 1) % kRingFrames;
  }
}

void AnalyserNode::gather_block(std::span<double> block,
                                std::size_t skew) const {
  WAFP_DCHECK(block.size() == fft_size_);
  const std::size_t start =
      (write_index_ + kRingFrames - fft_size_ - skew) % kRingFrames;
  for (std::size_t i = 0; i < fft_size_; ++i) {
    block[i] = static_cast<double>(ring_[(start + i) % kRingFrames]);
  }
}

void AnalyserNode::get_float_frequency_data(std::size_t reader_index,
                                            std::span<float> out) {
  WAFP_CHECK(reader_index < readers_.size())
      << "AnalyserNode: no capture reader " << reader_index;
  Reader& reader = readers_[reader_index];
  const auto& cfg = context().config();
  const auto& m = math();

  if (window_fft_size_ != fft_size_) {
    window_ = dsp::blackman_window(fft_size_, m, cfg.analyser.blackman_alpha);
    window_fft_size_ = fft_size_;
  }

  // 1. Gather the latest block; the reader's jitter state skews the read
  //    position.
  const std::size_t bins = frequency_bin_count();
  block_scratch_.resize(fft_size_);
  re_scratch_.resize(fft_size_);
  im_scratch_.resize(fft_size_);
  mag_scratch_.resize(bins);
  db_lin_scratch_.resize(bins);
  db_scratch_.resize(bins);
  gather_block(block_scratch_, reader.skew);

  // 2. Blackman window and FFT, both in float32 — as production analyser
  //    pipelines run (e.g. Blink's FFTFrame). Implementation rounding
  //    differences between FFT builds are therefore visible at the
  //    spectrum's leakage floor, which is what the FFT fingerprinting
  //    vector harvests. The window/magnitude/smoothing columns run through
  //    the batch kernel layer (dsp/simd.h), whose kernels are bit-identical
  //    to the classic per-sample loops on every backend.
  const dsp::SimdOps& ops = dsp::simd_ops();
  ops.vwindow_f32(re_scratch_.data(), block_scratch_.data(), window_.data(),
                  fft_size_);
  std::fill(im_scratch_.begin(), im_scratch_.end(), 0.0f);
  context().fft().forward(std::span<float>(re_scratch_),
                          std::span<float>(im_scratch_));

  // 3. Magnitude, exponential smoothing, dB conversion (Blink order), all
  //    at float precision.
  const float scale = 1.0f / static_cast<float>(fft_size_);
  const auto tau = static_cast<float>(smoothing_);
  ops.vmag_f32(mag_scratch_.data(), re_scratch_.data(), im_scratch_.data(),
               scale, cfg.fma_contraction, bins);
  ops.vsmooth_f32(reader.smoothed_magnitudes.data(), mag_scratch_.data(),
                  tau, 1.0f - tau, bins);
  for (std::size_t k = 0; k < bins; ++k) {
    db_lin_scratch_[k] = static_cast<double>(reader.smoothed_magnitudes[k]);
  }
  m.linear_to_decibels_batch(db_lin_scratch_.data(), db_scratch_.data(), bins);
  const std::size_t out_bins = std::min(bins, out.size());
  for (std::size_t k = 0; k < out_bins; ++k) {
    out[k] = static_cast<float>(db_scratch_[k]);
  }

  // 4. Chaotic glitch: a one-off transient perturbs a handful of bins by a
  //    single ULP. Seeded per (render, capture) so every such digest is
  //    effectively unique — the long tail of the paper's Table 1.
  if (reader.chaos_seed != 0) {
    util::Rng rng(util::derive_seed(reader.chaos_seed,
                                    reader.capture_counter));
    const std::size_t hits = 3 + rng.next_below(4);
    for (std::size_t h = 0; h < hits; ++h) {
      const std::size_t bin = rng.next_below(std::min(bins, out.size()));
      const int direction = rng.next_bool(0.5) ? 1 : -1;
      out[bin] = nudge_ulp(out[bin], direction);
    }
  }
  ++reader.capture_counter;
}

void AnalyserNode::get_float_time_domain_data(std::span<float> out) const {
  block_scratch_.resize(fft_size_);
  gather_block(block_scratch_, /*skew=*/0);
  for (std::size_t i = 0; i < fft_size_ && i < out.size(); ++i) {
    out[i] = static_cast<float>(block_scratch_[i]);
  }
}

}  // namespace wafp::webaudio
