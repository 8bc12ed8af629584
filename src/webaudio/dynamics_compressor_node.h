// DynamicsCompressorNode: the nonlinear stage exploited by the paper's DC
// vector (Fig. 1). The kernel is modelled on Blink's
// DynamicsCompressorKernel: a soft-knee static curve whose knee constant is
// found by a numeric solver, look-ahead pre-delay, attack/adaptive-release
// gain smoothing, makeup gain, and a gain-reduction meter.
//
// Every transcendental in the kernel (the exp of the knee curve, the pow of
// the slope region and makeup gain, the dB conversions) runs through the
// platform MathLibrary, and the CompressorTuning micro-variant models
// vendor/version differences — together these are what make the DC
// fingerprint differ across simulated platforms while staying perfectly
// stable on any one platform (no jitter enters this path).
#pragma once

#include <vector>

#include "util/function_effects.h"
#include "webaudio/audio_node.h"

namespace wafp::webaudio {

class DynamicsCompressorNode final : public AudioNode {
 public:
  explicit DynamicsCompressorNode(OfflineAudioContext& context,
                                  std::size_t channels = 1);

  [[nodiscard]] std::string_view node_name() const override {
    return "DynamicsCompressorNode";
  }

  /// Web Audio parameters (k-rate; defaults per spec).
  [[nodiscard]] AudioParam& threshold() { return threshold_; }  // dB, -24
  [[nodiscard]] AudioParam& knee() { return knee_; }            // dB, 30
  [[nodiscard]] AudioParam& ratio() { return ratio_; }          // 12
  [[nodiscard]] AudioParam& attack() { return attack_; }        // s, 0.003
  [[nodiscard]] AudioParam& release() { return release_; }      // s, 0.25

  /// Current gain reduction in dB (<= 0), Web Audio `reduction` attribute.
  [[nodiscard]] float reduction() const { return reduction_; }

  std::vector<AudioParam*> params() override {
    return {&threshold_, &knee_, &ratio_, &attack_, &release_};
  }

  void process(std::size_t start_frame, std::size_t frames)
      WAFP_NONALLOCATING override;

 private:
  struct Curve {
    double linear_threshold = 0.0;
    double knee_end_linear = 0.0;
    double knee_end_db = 0.0;
    double slope = 1.0;
    double k = 1.0;
    /// Curve output at the knee end, in dB: saturate()'s anchor for the
    /// constant-slope region, a function of the fields above only.
    double knee_end_output_db = 0.0;
    double makeup_gain = 1.0;
  };

  /// Soft-knee curve below knee end (linear in, linear out).
  [[nodiscard]] double knee_curve(double x) const;
  /// Full static curve (knee + ratio-slope region).
  [[nodiscard]] double saturate(double x) const;
  /// Logarithmic slope (dB-out per dB-in) of knee_curve at x, estimated
  /// numerically exactly as Blink's solver does.
  [[nodiscard]] double knee_slope_at(double x, double k) const;
  /// Bisection solve for the knee constant giving slope 1/ratio at the end
  /// of the knee.
  [[nodiscard]] double solve_k() const;

  /// Recompute derived curve state when parameter values change.
  void update_curve(double when_time);

  AudioParam threshold_;
  AudioParam knee_;
  AudioParam ratio_;
  AudioParam attack_;
  AudioParam release_;

  Curve curve_;
  double cached_threshold_ = 1.0e99;  // force first update
  double cached_knee_ = 1.0e99;
  double cached_ratio_ = 1.0e99;

  AudioBus input_scratch_;
  std::vector<std::vector<float>> pre_delay_;  // per channel ring buffer
  std::size_t pre_delay_frames_ = 0;
  std::size_t pre_delay_index_ = 0;

  double compressor_gain_ = 1.0;
  double metering_gain_ = 1.0;
  float reduction_ = 0.0f;
};

}  // namespace wafp::webaudio
