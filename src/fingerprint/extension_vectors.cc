// Extension fingerprinting vectors beyond the paper's seven (§5 closes by
// asking which *other* factors drive Web Audio fingerprintability; these
// probe API surfaces the study never exercised):
//
//  * Filter Sweep — a sawtooth pushed through a resonant peaking
//    BiquadFilter; the digest covers both the filtered audio and a
//    getFrequencyResponse battery, so the filter's coefficient math (libm
//    exp/pow/cos) is harvested directly.
//  * Distortion — a sine through a WaveShaper running 4x oversampling with
//    a tanh-shaped curve computed through the platform math library; the
//    resampler and the curve generation are both implementation-defined.
#include <numbers>

#include "fingerprint/vector.h"
#include "fingerprint/vector_registry.h"
#include "webaudio/analyser_node.h"
#include "webaudio/biquad_filter_node.h"
#include "webaudio/dynamics_compressor_node.h"
#include "webaudio/gain_node.h"
#include "webaudio/offline_audio_context.h"
#include "webaudio/oscillator_node.h"
#include "webaudio/script_processor_node.h"
#include "webaudio/wave_shaper_node.h"

namespace wafp::fingerprint {
namespace {

using webaudio::AnalyserNode;
using webaudio::BiquadFilterNode;
using webaudio::BiquadFilterType;
using webaudio::GainNode;
using webaudio::OfflineAudioContext;
using webaudio::OscillatorNode;
using webaudio::OscillatorType;
using webaudio::OverSampleType;
using webaudio::ScriptProcessorNode;
using webaudio::WaveShaperNode;

class FilterSweepVector final : public AudioFingerprintVector {
 public:
  VectorId id() const override { return VectorId::kFilterSweep; }
  double jitter_susceptibility() const override { return 1.20; }

  void render_taps(OfflineAudioContext& ctx,
                   std::span<const webaudio::RenderJitter> jitters,
                   std::span<DigestTap> taps) const override {
    auto& osc = ctx.create<OscillatorNode>(OscillatorType::kSawtooth);
    osc.frequency().set_value(220.0);
    auto& filter = ctx.create<BiquadFilterNode>();
    filter.set_type(BiquadFilterType::kPeaking);
    filter.frequency().set_value(2400.0);
    filter.q().set_value(8.0);
    filter.gain().set_value(12.0);
    // Sweep the centre across the render (exercises coefficient updates).
    filter.frequency().linear_ramp_to_value_at_time(6000.0, 1.0);
    auto& analyser = ctx.create<AnalyserNode>();
    analyser.set_readers(jitters);
    auto& script = ctx.create<ScriptProcessorNode>(2048);
    auto& mute = ctx.create<GainNode>();
    mute.gain().set_value(0.0);
    osc.connect(filter);
    filter.connect(analyser);
    analyser.connect(script);
    script.connect(mute);
    mute.connect(ctx.destination());
    osc.start(0.0);

    std::vector<float> freq(analyser.frequency_bin_count());
    script.set_on_audio_process(
        [&](std::span<const float> block, std::size_t /*frame*/) {
          write_all(taps, block);
          write_spectra(analyser, freq, taps);
        });
    (void)ctx.start_rendering();

    // getFrequencyResponse battery: 64 probe frequencies.
    std::vector<float> probe(64), mag(64), phase(64);
    for (std::size_t i = 0; i < probe.size(); ++i) {
      probe[i] = static_cast<float>(50.0 * static_cast<double>(i + 1));
    }
    filter.get_frequency_response(probe, mag, phase);
    write_all(taps, mag);
    write_all(taps, phase);
  }
};

class DistortionVector final : public AudioFingerprintVector {
 public:
  VectorId id() const override { return VectorId::kDistortion; }
  double jitter_susceptibility() const override { return 1.30; }

  void render_taps(OfflineAudioContext& ctx,
                   std::span<const webaudio::RenderJitter> jitters,
                   std::span<DigestTap> taps) const override {
    auto& osc = ctx.create<OscillatorNode>(OscillatorType::kSine);
    osc.frequency().set_value(987.0);
    auto& drive = ctx.create<GainNode>();
    drive.gain().set_value(3.0);
    auto& shaper = ctx.create<WaveShaperNode>();
    shaper.set_oversample(OverSampleType::k4x);
    // tanh drive curve computed through the platform math library — curve
    // *generation* is part of the fingerprint surface, as real scripts
    // build curves with Math functions.
    const auto& m = ctx.math();
    std::vector<float> curve(257);
    for (std::size_t i = 0; i < curve.size(); ++i) {
      const double x = 2.0 * static_cast<double>(i) / 256.0 - 1.0;
      curve[i] = static_cast<float>(m.tanh(3.0 * x));
    }
    shaper.set_curve(std::move(curve));
    auto& analyser = ctx.create<AnalyserNode>();
    analyser.set_readers(jitters);
    auto& script = ctx.create<ScriptProcessorNode>(2048);
    auto& mute = ctx.create<GainNode>();
    mute.gain().set_value(0.0);

    osc.connect(drive);
    drive.connect(shaper);
    shaper.connect(analyser);
    analyser.connect(script);
    script.connect(mute);
    mute.connect(ctx.destination());
    osc.start(0.0);

    std::vector<float> freq(analyser.frequency_bin_count());
    script.set_on_audio_process(
        [&](std::span<const float> block, std::size_t /*frame*/) {
          write_all(taps, block);
          write_spectra(analyser, freq, taps);
        });
    (void)ctx.start_rendering();
  }
};

}  // namespace

std::span<const VectorId> extension_vector_ids() {
  // Deprecated wrapper: the registry owns the canonical catalogue now.
  return VectorRegistry::instance().extension_ids();
}

const AudioFingerprintVector& extension_vector_instance(VectorId id) {
  static const FilterSweepVector filter_sweep;
  static const DistortionVector distortion;
  switch (id) {
    case VectorId::kFilterSweep: return filter_sweep;
    case VectorId::kDistortion: return distortion;
    default:
      throw std::invalid_argument(
          "extension_vector_instance: not an extension vector");
  }
}

}  // namespace wafp::fingerprint
