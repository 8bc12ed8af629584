#include "webaudio/dynamics_compressor_node.h"

#include <algorithm>
#include <array>
#include <cmath>

#include "dsp/denormal.h"
#include "dsp/fma.h"
#include "dsp/simd.h"
#include "webaudio/offline_audio_context.h"

namespace wafp::webaudio {
namespace {

/// Piecewise-linear interpolation of the adaptive-release multiplier
/// between the four tuning zone points at x = 0, 1, 2, 3. Piecewise (rather
/// than a global polynomial fit) so a vendor tweak to a deep-compression
/// zone is invisible to signals that never compress that far — which is why
/// the paper's Combined audio vector is more diverse than any single vector
/// (Table 2): the heavily-driven AM/FM graphs reach release zones the plain
/// Hybrid triangle never does.
double release_multiplier_at(const webaudio::CompressorTuning& tuning,
                             double x) {
  const double zones[4] = {tuning.release_zone1, tuning.release_zone2,
                           tuning.release_zone3, tuning.release_zone4};
  if (x <= 0.0) return zones[0];
  if (x >= 3.0) return zones[3];
  const auto lower = static_cast<std::size_t>(x);
  const double frac = x - static_cast<double>(lower);
  return zones[lower] + frac * (zones[lower + 1] - zones[lower]);
}

}  // namespace

DynamicsCompressorNode::DynamicsCompressorNode(OfflineAudioContext& context,
                                               std::size_t channels)
    : AudioNode(context, /*num_inputs=*/1, channels),
      threshold_("threshold", -24.0, -100.0, 0.0),
      knee_("knee", 30.0, 0.0, 40.0),
      ratio_("ratio", 12.0, 1.0, 20.0),
      attack_("attack", 0.003, 0.0, 1.0),
      release_("release", 0.25, 0.0, 1.0),
      input_scratch_(channels, kRenderQuantumFrames) {
  const auto& tuning = context.config().compressor;
  pre_delay_frames_ = std::max<std::size_t>(
      1, static_cast<std::size_t>(tuning.pre_delay_seconds *
                                  context.sample_rate()));
  pre_delay_.resize(channels);
  for (auto& ring : pre_delay_) ring.assign(pre_delay_frames_, 0.0f);
}

double DynamicsCompressorNode::knee_curve(double x) const {
  if (x < curve_.linear_threshold) return x;
  const auto& m = math();
  return curve_.linear_threshold +
         (1.0 - m.exp(-curve_.k * (x - curve_.linear_threshold))) / curve_.k;
}

double DynamicsCompressorNode::knee_slope_at(double x, double k) const {
  // Logarithmic slope d(dB_out)/d(dB_in) = (x / y) * dy/dx, with dy/dx of
  // the knee curve evaluated analytically: exp(-k (x - threshold)).
  const auto& m = math();
  if (x <= curve_.linear_threshold) return 1.0;
  const double y = curve_.linear_threshold +
                   (1.0 - m.exp(-k * (x - curve_.linear_threshold))) / k;
  if (y <= 0.0) return 1.0;
  const double dy_dx = m.exp(-k * (x - curve_.linear_threshold));
  return (x / y) * dy_dx;
}

double DynamicsCompressorNode::solve_k() const {
  // Bisection on k so the log-slope at the knee end equals 1/ratio. The
  // slope decreases monotonically in k.
  const double target = curve_.slope;
  const double x = curve_.knee_end_linear;
  double lo = 1.0e-2;
  double hi = 1.0e4;
  const double tol = context().config().compressor.knee_solver_tolerance;
  // Degenerate knee (0 dB): hard threshold, any large k approximates it.
  if (curve_.knee_end_db <= cached_threshold_ + 1.0e-9) return hi;
  for (int iter = 0; iter < 200 && (hi - lo) > tol * lo; ++iter) {
    const double mid = 0.5 * (lo + hi);
    if (knee_slope_at(x, mid) > target) {
      lo = mid;  // slope too shallow-compressed; need larger k
    } else {
      hi = mid;
    }
  }
  return 0.5 * (lo + hi);
}

double DynamicsCompressorNode::saturate(double x) const {
  const auto& m = math();
  if (x < curve_.knee_end_linear) return knee_curve(x);
  // Beyond the knee: constant dB-slope region.
  const double x_db = m.linear_to_decibels(x);
  const double y_db =
      curve_.knee_end_output_db + curve_.slope * (x_db - curve_.knee_end_db);
  return m.decibels_to_linear(y_db);
}

void DynamicsCompressorNode::update_curve(double when_time) {
  const auto& m = math();
  const double threshold_db = threshold_.value_at_time(when_time, m);
  const double knee_db = knee_.value_at_time(when_time, m);
  const double ratio = std::max(1.0, ratio_.value_at_time(when_time, m));
  if (threshold_db == cached_threshold_ && knee_db == cached_knee_ &&
      ratio == cached_ratio_) {
    return;
  }
  cached_threshold_ = threshold_db;
  cached_knee_ = knee_db;
  cached_ratio_ = ratio;

  curve_.linear_threshold = m.decibels_to_linear(threshold_db);
  curve_.knee_end_db = threshold_db + knee_db;
  curve_.knee_end_linear = m.decibels_to_linear(curve_.knee_end_db);
  curve_.slope = 1.0 / ratio;
  curve_.k = solve_k();
  curve_.knee_end_output_db =
      m.linear_to_decibels(knee_curve(curve_.knee_end_linear));

  // Makeup gain from the full-range response, Blink-style.
  const double full_range_gain = saturate(1.0);
  const auto& tuning = context().config().compressor;
  curve_.makeup_gain =
      m.pow(1.0 / std::max(full_range_gain, 1.0e-6), tuning.makeup_exponent);
}

void DynamicsCompressorNode::process(std::size_t start_frame,
                                     std::size_t frames) {
  mix_input(0, input_scratch_);
  AudioBus& out = mutable_output();

  const auto& m = math();
  const auto& cfg = context().config();
  const double sr = sample_rate();
  const double when = static_cast<double>(start_frame) / sr;

  update_curve(when);

  const double attack_s = std::max(0.001, attack_.value_at_time(when, m));
  const double release_s = std::max(0.001, release_.value_at_time(when, m));
  const double attack_frames = attack_s * sr;
  const double base_release_frames = release_s * sr;
  const double attack_k = m.exp(-1.0 / attack_frames);
  const double metering_k =
      m.exp(-1.0 / (cfg.compressor.metering_release_seconds * sr));

  const std::size_t channels = out.channels();

  // Stage 1 — look-ahead detection, batched: per-frame max |x| across
  // channels through the abs-max kernel. abs_max_f32_ref mirrors
  // std::max(acc, |v|) exactly (NaN keeps the accumulator), so this stage
  // is bit-identical to the classic fused loop.
  const dsp::SimdOps& ops = dsp::simd_ops();
  std::array<float, kRenderQuantumFrames> frame_abs{};
  for (std::size_t c = 0; c < channels; ++c) {
    ops.vabs_max_f32(frame_abs.data(), input_scratch_.channel(c), frames);
  }

  // Stage 2 — the gain recursion. Inherently sequential (each frame's gain
  // feeds the next), so it stays scalar; results land in a per-frame gain
  // buffer for the vector-friendly output stage.
  std::array<float, kRenderQuantumFrames> total_gain;
  for (std::size_t i = 0; i < frames; ++i) {
    const double abs_input = static_cast<double>(frame_abs[i]);

    double desired_gain = 1.0;
    if (abs_input > 1.0e-12) {
      desired_gain = saturate(abs_input) / abs_input;
      desired_gain = std::min(desired_gain, 1.0);
    }

    if (desired_gain < compressor_gain_) {
      // Attack: fast approach toward more attenuation.
      compressor_gain_ =
          dsp::mul_add(attack_k, compressor_gain_,
                       (1.0 - attack_k) * desired_gain, cfg.fma_contraction);
    } else {
      // Release with adaptive multiplier: deeper compression releases on a
      // longer time constant (Blink's adaptive release).
      const double compression_db =
          -m.linear_to_decibels(std::max(compressor_gain_, 1.0e-9));
      const double x = std::clamp(compression_db / 12.0, 0.0, 3.0);
      const double multiplier =
          release_multiplier_at(cfg.compressor, x);
      const double release_k =
          m.exp(-1.0 / (base_release_frames * std::max(multiplier, 0.05)));
      compressor_gain_ =
          dsp::mul_add(release_k, compressor_gain_,
                       (1.0 - release_k) * desired_gain, cfg.fma_contraction);
    }
    compressor_gain_ = dsp::flush_denormal(compressor_gain_, cfg.denormal);

    // Metering: instant attack, slow release.
    if (compressor_gain_ < metering_gain_) {
      metering_gain_ = compressor_gain_;
    } else {
      metering_gain_ =
          metering_k * metering_gain_ + (1.0 - metering_k) * compressor_gain_;
    }

    total_gain[i] = static_cast<float>(compressor_gain_ * curve_.makeup_gain);
  }

  // Stage 3 — apply gain to the delayed signal, channel-major. Each
  // (channel, ring-slot) pair keeps its original read-then-write order, so
  // the fission is exact even when the pre-delay is shorter than a quantum.
  for (std::size_t c = 0; c < channels; ++c) {
    auto& ring = pre_delay_[c];
    const float* in = input_scratch_.channel(c);
    float* dst = out.channel(c);
    std::size_t idx = pre_delay_index_;
    for (std::size_t i = 0; i < frames; ++i) {
      float& delayed = ring[idx];
      const float output_sample = delayed * total_gain[i];
      delayed = in[i];
      dst[i] = dsp::flush_denormal(output_sample, cfg.denormal);
      idx = (idx + 1) % pre_delay_frames_;
    }
  }
  pre_delay_index_ = (pre_delay_index_ + frames) % pre_delay_frames_;
  reduction_ = static_cast<float>(
      m.linear_to_decibels(std::max(metering_gain_, 1.0e-9)));
}

}  // namespace wafp::webaudio
