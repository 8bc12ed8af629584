// Implementations of the paper's seven Web Audio fingerprinting vectors
// (§2.1 Figs. 1-2, Appendix B Figs. 6-8). Each builds its audio graph on an
// OfflineAudioContext configured from the platform profile, renders one
// second at 44.1 kHz (offline contexts render at the *requested* rate, which
// is why hardware sample rates never show up in audio fingerprints), and
// hashes the characteristic outputs bit-exactly.
#include <array>
#include <functional>
#include <memory>
#include <numbers>
#include <vector>

#include "fingerprint/vector.h"
#include "fingerprint/vector_registry.h"
#include "util/check.h"
#include "webaudio/analyser_node.h"
#include "webaudio/channel_merger_node.h"
#include "webaudio/dynamics_compressor_node.h"
#include "webaudio/gain_node.h"
#include "webaudio/offline_audio_context.h"
#include "webaudio/oscillator_node.h"
#include "webaudio/periodic_wave.h"
#include "webaudio/periodic_wave_cache.h"
#include "webaudio/script_processor_node.h"

namespace wafp::fingerprint {
namespace {

using webaudio::AnalyserNode;
using webaudio::AudioNode;
using webaudio::ChannelMergerNode;
using webaudio::DynamicsCompressorNode;
using webaudio::EngineConfig;
using webaudio::GainNode;
using webaudio::OfflineAudioContext;
using webaudio::OscillatorNode;
using webaudio::OscillatorType;
using webaudio::PeriodicWave;
using webaudio::ScriptProcessorNode;

constexpr double kSampleRate = 44100.0;
constexpr std::size_t kRenderFrames = 44100;  // 1 second
constexpr std::size_t kScriptBufferFrames = 2048;

/// The paper's Custom Signal coefficients: "an array of 12 real and
/// imaginary values ... real values randomly selected between 0 and 1 and
/// imaginary values alternating between 0 and pi/2" (App. B). Fixed at
/// build time, as in the study's fingerprinting script.
constexpr std::array<double, 13> kCustomReal = {
    0.0,      0.709834, 0.184022, 0.935414, 0.462308, 0.558136, 0.071994,
    0.804589, 0.326981, 0.642917, 0.198276, 0.871063, 0.415229};

std::shared_ptr<const PeriodicWave> make_custom_wave(
    const OfflineAudioContext& ctx) {
  std::array<double, 13> imag{};
  for (std::size_t k = 1; k < imag.size(); ++k) {
    imag[k] = (k % 2 == 0) ? 0.0 : std::numbers::pi / 2.0;
  }
  // Route through the config's wave cache so repeated renders of the same
  // stack archetype reuse one table set instead of re-running kNumRanges
  // inverse FFTs per render (the steady-state allocation audit pins this).
  const EngineConfig& cfg = ctx.config();
  if (cfg.wave_cache) {
    return cfg.wave_cache->custom(kCustomReal, imag, kSampleRate, cfg);
  }
  return std::make_shared<const PeriodicWave>(kCustomReal, imag, kSampleRate,
                                              cfg);
}

/// --- DC (Fig. 1): oscillator -> dynamics compressor -> destination. -----
/// Fingerprint = hash of the rendered time-domain samples. No analyser in
/// the graph, so render jitter cannot touch it: perfectly stable (Table 1).
class DcVector final : public AudioFingerprintVector {
 public:
  VectorId id() const override { return VectorId::kDc; }
  double jitter_susceptibility() const override { return 0.0; }

  void render_taps(OfflineAudioContext& ctx,
                   std::span<const webaudio::RenderJitter> /*jitters*/,
                   std::span<DigestTap> taps) const override {
    auto& osc = ctx.create<OscillatorNode>(OscillatorType::kTriangle);
    osc.frequency().set_value(10000.0);
    auto& compressor = ctx.create<DynamicsCompressorNode>();
    osc.connect(compressor);
    compressor.connect(ctx.destination());
    osc.start(0.0);

    const webaudio::AudioBuffer rendered = ctx.start_rendering();
    write_all(taps, rendered.channel(0));
  }
};

/// --- FFT (Fig. 2): oscillator -> analyser -> script processor ->
/// zero-gain -> destination; hash of the analyser's dB spectra captured on
/// every script-processor block.
class FftVector final : public AudioFingerprintVector {
 public:
  VectorId id() const override { return VectorId::kFft; }
  double jitter_susceptibility() const override { return 0.75; }

  void render_taps(OfflineAudioContext& ctx,
                   std::span<const webaudio::RenderJitter> jitters,
                   std::span<DigestTap> taps) const override {
    auto& osc = ctx.create<OscillatorNode>(OscillatorType::kTriangle);
    osc.frequency().set_value(10000.0);
    auto& analyser = ctx.create<AnalyserNode>();
    analyser.set_readers(jitters);
    auto& script = ctx.create<ScriptProcessorNode>(kScriptBufferFrames);
    auto& mute = ctx.create<GainNode>();
    mute.gain().set_value(0.0);

    osc.connect(analyser);
    analyser.connect(script);
    script.connect(mute);
    mute.connect(ctx.destination());
    osc.start(0.0);

    std::vector<float> freq(analyser.frequency_bin_count());
    script.set_on_audio_process(
        [&](std::span<const float> /*block*/, std::size_t /*frame*/) {
          write_spectra(analyser, freq, taps);
        });
    (void)ctx.start_rendering();
  }
};

/// Shared scaffold of the hybrid family (Fig. 6): signal source ->
/// analyser -> dynamics compressor -> script processor -> zero-gain ->
/// destination. The digest covers both the compressor's time-domain blocks
/// (the "DC half") and the analyser's spectra (the "FFT half").
class HybridFamilyVector : public AudioFingerprintVector {
 public:
  void render_taps(OfflineAudioContext& ctx,
                   std::span<const webaudio::RenderJitter> jitters,
                   std::span<DigestTap> taps) const override {
    const std::size_t channels = signal_channels();
    auto& analyser = ctx.create<AnalyserNode>(channels);
    analyser.set_readers(jitters);
    auto& compressor = ctx.create<DynamicsCompressorNode>(channels);
    auto& script = ctx.create<ScriptProcessorNode>(kScriptBufferFrames,
                                                   channels);
    auto& mute = ctx.create<GainNode>(channels);
    mute.gain().set_value(0.0);

    AudioNode& source = build_signal(ctx);
    source.connect(analyser);
    analyser.connect(compressor);
    compressor.connect(script);
    script.connect(mute);
    mute.connect(ctx.destination());

    std::vector<float> freq(analyser.frequency_bin_count());
    script.set_on_audio_process(
        [&](std::span<const float> block, std::size_t /*frame*/) {
          write_all(taps, block);  // compressor output (time domain)
          write_spectra(analyser, freq, taps);
        });
    (void)ctx.start_rendering();
  }

 protected:
  /// Build and start the signal chain; return the node feeding the
  /// analyser.
  virtual AudioNode& build_signal(OfflineAudioContext& ctx) const = 0;
  [[nodiscard]] virtual std::size_t signal_channels() const { return 1; }
};

class HybridVector final : public HybridFamilyVector {
 public:
  VectorId id() const override { return VectorId::kHybrid; }
  double jitter_susceptibility() const override { return 1.00; }

 protected:
  AudioNode& build_signal(OfflineAudioContext& ctx) const override {
    auto& osc = ctx.create<OscillatorNode>(OscillatorType::kTriangle);
    osc.frequency().set_value(10000.0);
    osc.start(0.0);
    return osc;
  }
};

/// Custom Signal (App. B): hybrid scaffold driven by a custom-shaped
/// PeriodicWave.
class CustomSignalVector final : public HybridFamilyVector {
 public:
  VectorId id() const override { return VectorId::kCustomSignal; }
  double jitter_susceptibility() const override { return 1.00; }

 protected:
  AudioNode& build_signal(OfflineAudioContext& ctx) const override {
    auto& osc = ctx.create<OscillatorNode>(OscillatorType::kSine);
    osc.set_periodic_wave(make_custom_wave(ctx));
    osc.frequency().set_value(10000.0);
    osc.start(0.0);
    return osc;
  }
};

/// Merged Signals (Fig. 7): all four spec waveforms at different
/// frequencies, combined by a ChannelMergerNode.
class MergedSignalsVector final : public HybridFamilyVector {
 public:
  VectorId id() const override { return VectorId::kMergedSignals; }
  double jitter_susceptibility() const override { return 1.90; }

 protected:
  std::size_t signal_channels() const override { return 4; }

  AudioNode& build_signal(OfflineAudioContext& ctx) const override {
    auto& merger = ctx.create<ChannelMergerNode>(4);
    const struct {
      OscillatorType type;
      double frequency;
    } kSignals[] = {
        {OscillatorType::kTriangle, 10000.0},
        {OscillatorType::kSine, 440.0},
        {OscillatorType::kSquare, 1880.0},
        {OscillatorType::kSawtooth, 22000.0},
    };
    for (std::size_t i = 0; i < 4; ++i) {
      auto& osc = ctx.create<OscillatorNode>(kSignals[i].type);
      osc.frequency().set_value(kSignals[i].frequency);
      osc.connect(merger, i);
      osc.start(0.0);
    }
    return merger;
  }
};

/// AM (Fig. 8): a 440 Hz sine carrier whose GainNode gain is modulated by
/// the summed triangle + square waves through a gain-60 stage.
class AmVector final : public HybridFamilyVector {
 public:
  VectorId id() const override { return VectorId::kAm; }
  double jitter_susceptibility() const override { return 3.20; }

 protected:
  AudioNode& build_signal(OfflineAudioContext& ctx) const override {
    auto& carrier = ctx.create<OscillatorNode>(OscillatorType::kSine);
    carrier.frequency().set_value(440.0);
    auto& carrier_gain = ctx.create<GainNode>();
    carrier_gain.gain().set_value(1.0);
    carrier.connect(carrier_gain);

    auto& mod_triangle = ctx.create<OscillatorNode>(OscillatorType::kTriangle);
    mod_triangle.frequency().set_value(10000.0);
    auto& mod_square = ctx.create<OscillatorNode>(OscillatorType::kSquare);
    mod_square.frequency().set_value(1880.0);
    auto& mod_gain = ctx.create<GainNode>();
    mod_gain.gain().set_value(60.0);
    mod_triangle.connect(mod_gain);
    mod_square.connect(mod_gain);
    mod_gain.connect(carrier_gain.gain());

    carrier.start(0.0);
    mod_triangle.start(0.0);
    mod_square.start(0.0);
    return carrier_gain;
  }
};

/// FM (App. B): same as AM, but the modulators drive the carrier's
/// frequency parameter instead of its amplitude.
class FmVector final : public HybridFamilyVector {
 public:
  VectorId id() const override { return VectorId::kFm; }
  double jitter_susceptibility() const override { return 3.25; }

 protected:
  AudioNode& build_signal(OfflineAudioContext& ctx) const override {
    auto& carrier = ctx.create<OscillatorNode>(OscillatorType::kSine);
    carrier.frequency().set_value(440.0);

    auto& mod_triangle = ctx.create<OscillatorNode>(OscillatorType::kTriangle);
    mod_triangle.frequency().set_value(10000.0);
    auto& mod_square = ctx.create<OscillatorNode>(OscillatorType::kSquare);
    mod_square.frequency().set_value(1880.0);
    auto& mod_gain = ctx.create<GainNode>();
    mod_gain.gain().set_value(60.0);
    mod_triangle.connect(mod_gain);
    mod_square.connect(mod_gain);
    mod_gain.connect(carrier.frequency());

    carrier.start(0.0);
    mod_triangle.start(0.0);
    mod_square.start(0.0);
    return carrier;
  }
};

}  // namespace

void AudioFingerprintVector::run_states(
    const platform::PlatformProfile& profile,
    std::span<const webaudio::RenderJitter> jitters,
    std::span<util::Digest> digests,
    std::span<std::vector<float>* const> captures) const {
  WAFP_CHECK(!jitters.empty() && digests.size() == jitters.size() &&
             (captures.empty() || captures.size() == jitters.size()))
      << "run_states: " << jitters.size() << " states, " << digests.size()
      << " digests, " << captures.size() << " captures";
  std::vector<DigestTap> taps;
  taps.reserve(jitters.size());
  for (std::size_t i = 0; i < jitters.size(); ++i) {
    taps.emplace_back(name(), captures.empty() ? nullptr : captures[i]);
  }
  OfflineAudioContext ctx(1, kRenderFrames, kSampleRate,
                          profile.make_engine_config());
  render_taps(ctx, jitters, taps);
  for (std::size_t i = 0; i < taps.size(); ++i) digests[i] = taps[i].finish();
}

util::Digest AudioFingerprintVector::run(
    const platform::PlatformProfile& profile,
    const webaudio::RenderJitter& jitter,
    std::vector<float>* capture) const {
  util::Digest digest;
  std::vector<float>* const captures[] = {capture};
  run_states(profile, std::span<const webaudio::RenderJitter>(&jitter, 1),
             std::span<util::Digest>(&digest, 1), captures);
  return digest;
}

void AudioFingerprintVector::write_all(std::span<DigestTap> taps,
                                       std::span<const float> samples) {
  for (DigestTap& tap : taps) tap.write(samples);
}

void AudioFingerprintVector::write_spectra(webaudio::AnalyserNode& analyser,
                                           std::span<float> freq,
                                           std::span<DigestTap> taps) {
  for (std::size_t r = 0; r < taps.size(); ++r) {
    analyser.get_float_frequency_data(r, freq);
    taps[r].write(freq);
  }
}

std::string_view to_string(VectorId id) {
  switch (id) {
    case VectorId::kDc: return "DC";
    case VectorId::kFft: return "FFT";
    case VectorId::kHybrid: return "Hybrid";
    case VectorId::kCustomSignal: return "Custom Signal";
    case VectorId::kMergedSignals: return "Merged Signals";
    case VectorId::kAm: return "AM";
    case VectorId::kFm: return "FM";
    case VectorId::kCanvas: return "Canvas";
    case VectorId::kFonts: return "Fonts";
    case VectorId::kUserAgent: return "User-Agent";
    case VectorId::kMathJs: return "Math JS";
    case VectorId::kFilterSweep: return "Filter Sweep";
    case VectorId::kDistortion: return "Distortion";
    case VectorId::kWasmFloat: return "WASM Float";
    case VectorId::kWasmSimd: return "WASM SIMD";
  }
  return "unknown";
}

// Defined in extension_vectors.cc.
const AudioFingerprintVector& extension_vector_instance(VectorId id);

std::span<const VectorId> audio_vector_ids() {
  // Deprecated wrapper: the registry owns the canonical catalogue now.
  return VectorRegistry::instance().audio_ids();
}

const AudioFingerprintVector& audio_vector(VectorId id) {
  static const DcVector dc;
  static const FftVector fft;
  static const HybridVector hybrid;
  static const CustomSignalVector custom;
  static const MergedSignalsVector merged;
  static const AmVector am;
  static const FmVector fm;
  switch (id) {
    case VectorId::kDc: return dc;
    case VectorId::kFft: return fft;
    case VectorId::kHybrid: return hybrid;
    case VectorId::kCustomSignal: return custom;
    case VectorId::kMergedSignals: return merged;
    case VectorId::kAm: return am;
    case VectorId::kFm: return fm;
    case VectorId::kFilterSweep:
    case VectorId::kDistortion:
      return extension_vector_instance(id);
    default:
      throw std::invalid_argument("audio_vector: not an audio vector id");
  }
}

}  // namespace wafp::fingerprint
