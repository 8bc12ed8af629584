#include "webaudio/analyser_node.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "webaudio/gain_node.h"
#include "webaudio/offline_audio_context.h"
#include "webaudio/oscillator_node.h"
#include "webaudio/script_processor_node.h"

namespace wafp::webaudio {
namespace {

constexpr double kSampleRate = 44100.0;

/// Render a sine through an analyser, capturing the spectrum at the end.
std::vector<float> analyse_tone(double frequency,
                                EngineConfig cfg = EngineConfig::reference(),
                                std::size_t fft_size = 2048,
                                RenderJitter jitter = {}) {
  OfflineAudioContext ctx(1, 16384, kSampleRate, std::move(cfg));
  auto& osc = ctx.create<OscillatorNode>(OscillatorType::kSine);
  osc.frequency().set_value(frequency);
  auto& analyser = ctx.create<AnalyserNode>();
  analyser.set_fft_size(fft_size);
  analyser.set_readers(std::span<const RenderJitter>(&jitter, 1));
  auto& script = ctx.create<ScriptProcessorNode>(2048);
  auto& mute = ctx.create<GainNode>();
  mute.gain().set_value(0.0);
  osc.connect(analyser);
  analyser.connect(script);
  script.connect(mute);
  mute.connect(ctx.destination());
  osc.start(0.0);

  std::vector<float> freq(analyser.frequency_bin_count());
  script.set_on_audio_process([&](std::span<const float>, std::size_t) {
    analyser.get_float_frequency_data(freq);
  });
  (void)ctx.start_rendering();
  return freq;
}

TEST(AnalyserTest, PeakBinMatchesToneFrequency) {
  const double frequency = 4306.6;  // centre of bin 200 at fftSize 2048
  const std::vector<float> spectrum = analyse_tone(frequency);
  std::size_t peak_bin = 0;
  for (std::size_t k = 1; k < spectrum.size(); ++k) {
    if (spectrum[k] > spectrum[peak_bin]) peak_bin = k;
  }
  const double bin_hz = kSampleRate / 2048.0;
  EXPECT_NEAR(static_cast<double>(peak_bin) * bin_hz, frequency, bin_hz * 1.5);
}

TEST(AnalyserTest, PeakWellAboveLeakageFloor) {
  const std::vector<float> spectrum = analyse_tone(4306.6);
  float peak = -1000.0f, floor_sample = 0.0f;
  for (const float v : spectrum) peak = std::max(peak, v);
  floor_sample = spectrum[900];  // far from the tone
  EXPECT_GT(peak - floor_sample, 40.0f);
}

TEST(AnalyserTest, FftSizeValidation) {
  OfflineAudioContext ctx(1, 2048, kSampleRate, EngineConfig::reference());
  auto& analyser = ctx.create<AnalyserNode>();
  EXPECT_THROW(analyser.set_fft_size(1000), std::invalid_argument);
  EXPECT_THROW(analyser.set_fft_size(16), std::invalid_argument);
  EXPECT_THROW(analyser.set_fft_size(65536), std::invalid_argument);
  analyser.set_fft_size(1024);
  EXPECT_EQ(analyser.frequency_bin_count(), 512u);
}

TEST(AnalyserTest, SmoothingValidation) {
  OfflineAudioContext ctx(1, 2048, kSampleRate, EngineConfig::reference());
  auto& analyser = ctx.create<AnalyserNode>();
  EXPECT_THROW(analyser.set_smoothing_time_constant(1.0),
               std::invalid_argument);
  EXPECT_THROW(analyser.set_smoothing_time_constant(-0.1),
               std::invalid_argument);
  analyser.set_smoothing_time_constant(0.5);
  EXPECT_DOUBLE_EQ(analyser.smoothing_time_constant(), 0.5);
}

TEST(AnalyserTest, DefaultSmoothingFromConfig) {
  EngineConfig cfg = EngineConfig::reference();
  cfg.analyser.smoothing = 0.79;
  OfflineAudioContext ctx(1, 2048, kSampleRate, std::move(cfg));
  auto& analyser = ctx.create<AnalyserNode>();
  EXPECT_DOUBLE_EQ(analyser.smoothing_time_constant(), 0.79);
}

TEST(AnalyserTest, PassesInputThroughUnchanged) {
  OfflineAudioContext ctx(1, 4096, kSampleRate, EngineConfig::reference());
  auto& osc = ctx.create<OscillatorNode>(OscillatorType::kSine);
  osc.frequency().set_value(440.0);
  auto& analyser = ctx.create<AnalyserNode>();
  osc.connect(analyser);
  analyser.connect(ctx.destination());
  osc.start(0.0);
  const AudioBuffer with_analyser = ctx.start_rendering();

  OfflineAudioContext ctx2(1, 4096, kSampleRate, EngineConfig::reference());
  auto& osc2 = ctx2.create<OscillatorNode>(OscillatorType::kSine);
  osc2.frequency().set_value(440.0);
  osc2.connect(ctx2.destination());
  osc2.start(0.0);
  const AudioBuffer direct = ctx2.start_rendering();

  for (std::size_t i = 0; i < 4096; ++i) {
    ASSERT_EQ(with_analyser.channel(0)[i], direct.channel(0)[i]) << i;
  }
}

TEST(AnalyserTest, TimeDomainDataReturnsRecentSamples) {
  OfflineAudioContext ctx(1, 4096, kSampleRate, EngineConfig::reference());
  auto& osc = ctx.create<OscillatorNode>(OscillatorType::kSine);
  osc.frequency().set_value(440.0);
  auto& analyser = ctx.create<AnalyserNode>();
  osc.connect(analyser);
  analyser.connect(ctx.destination());
  osc.start(0.0);
  const AudioBuffer rendered = ctx.start_rendering();

  std::vector<float> time_data(2048);
  analyser.get_float_time_domain_data(time_data);
  // Last 2048 rendered samples must appear verbatim.
  for (std::size_t i = 0; i < 2048; ++i) {
    ASSERT_EQ(time_data[i], rendered.channel(0)[4096 - 2048 + i]) << i;
  }
}

TEST(AnalyserTest, JitterStateChangesSpectrumDeterministically) {
  const RenderJitter skewed{.state = 2};
  const std::vector<float> a = analyse_tone(10000.0);
  const std::vector<float> b =
      analyse_tone(10000.0, EngineConfig::reference(), 2048, skewed);
  EXPECT_NE(a, b);

  const std::vector<float> b2 =
      analyse_tone(10000.0, EngineConfig::reference(), 2048, skewed);
  EXPECT_EQ(b, b2);  // same state -> bit-identical
}

TEST(AnalyserTest, ChaosSeedPerturbsFewBins) {
  const std::vector<float> clean = analyse_tone(10000.0);
  const std::vector<float> glitched = analyse_tone(
      10000.0, EngineConfig::reference(), 2048, {.chaos_seed = 12345});
  std::size_t differing = 0;
  for (std::size_t k = 0; k < clean.size(); ++k) {
    if (clean[k] != glitched[k]) {
      ++differing;
      // One-ULP nudges stay within numerical breathing distance.
      EXPECT_NEAR(clean[k], glitched[k], std::fabs(clean[k]) * 1e-5 + 1e-5);
    }
  }
  EXPECT_GE(differing, 1u);
  EXPECT_LE(differing, 8u);
}

TEST(AnalyserTest, DifferentChaosSeedsDiffer) {
  EXPECT_NE(analyse_tone(10000.0, EngineConfig::reference(), 2048,
                         {.chaos_seed = 1}),
            analyse_tone(10000.0, EngineConfig::reference(), 2048,
                         {.chaos_seed = 2}));
}

TEST(AnalyserTest, EachReaderCapturesItsSoloStream) {
  // One render, several capture readers: reader i's stream of captures
  // must equal a render whose only reader has jitters[i] — skew, chaos
  // draws and smoothing history are per reader, the ring is shared.
  const std::vector<RenderJitter> jitters = {
      {}, {.state = 1}, {.state = 4}, {.chaos_seed = 77}, {.state = 1}};
  const auto capture_streams = [](std::span<const RenderJitter> readers) {
    OfflineAudioContext ctx(1, 16384, kSampleRate, EngineConfig::reference());
    auto& osc = ctx.create<OscillatorNode>(OscillatorType::kTriangle);
    osc.frequency().set_value(3000.0);
    auto& analyser = ctx.create<AnalyserNode>();
    analyser.set_readers(readers);
    auto& script = ctx.create<ScriptProcessorNode>(2048);
    auto& mute = ctx.create<GainNode>();
    mute.gain().set_value(0.0);
    osc.connect(analyser);
    analyser.connect(script);
    script.connect(mute);
    mute.connect(ctx.destination());
    osc.start(0.0);
    std::vector<std::vector<float>> streams(readers.size());
    std::vector<float> freq(analyser.frequency_bin_count());
    script.set_on_audio_process([&](std::span<const float>, std::size_t) {
      for (std::size_t r = 0; r < readers.size(); ++r) {
        analyser.get_float_frequency_data(r, freq);
        streams[r].insert(streams[r].end(), freq.begin(), freq.end());
      }
    });
    (void)ctx.start_rendering();
    return streams;
  };

  const auto together = capture_streams(jitters);
  ASSERT_EQ(together.size(), jitters.size());
  for (std::size_t i = 0; i < jitters.size(); ++i) {
    const auto solo =
        capture_streams(std::span<const RenderJitter>(&jitters[i], 1));
    EXPECT_EQ(together[i], solo[0]) << "reader " << i;
  }
  EXPECT_NE(together[0], together[1]);
  EXPECT_NE(together[0], together[3]);
  EXPECT_EQ(together[1], together[4]);
}

TEST(AnalyserTest, FftBuildVisibleInFloatSpectrum) {
  // The core FFT-vector premise after the float-pipeline fix: different FFT
  // builds must produce visibly different dB floats on identical input.
  EngineConfig radix2 = EngineConfig::reference();
  EngineConfig radix4 = EngineConfig::reference();
  radix4.fft = dsp::make_fft_engine(dsp::FftVariant::kRadix4, radix4.math);

  const std::vector<float> a = analyse_tone(10000.0, std::move(radix2));
  const std::vector<float> b = analyse_tone(10000.0, std::move(radix4));
  std::size_t differing = 0;
  for (std::size_t k = 0; k < a.size(); ++k) {
    if (a[k] != b[k]) ++differing;
  }
  EXPECT_GT(differing, 10u);
}

TEST(AnalyserTest, TwiddleModeVisibleInFloatSpectrum) {
  EngineConfig direct = EngineConfig::reference();
  EngineConfig recur = EngineConfig::reference();
  recur.fft = dsp::make_fft_engine(dsp::FftVariant::kRadix2, recur.math,
                                   dsp::TwiddleMode::kRecurrence);
  const std::vector<float> a = analyse_tone(10000.0, std::move(direct));
  const std::vector<float> b = analyse_tone(10000.0, std::move(recur));
  EXPECT_NE(a, b);
}

TEST(AnalyserTest, BlackmanAlphaVisibleInSpectrum) {
  EngineConfig classic = EngineConfig::reference();
  EngineConfig variant = EngineConfig::reference();
  variant.analyser.blackman_alpha = 0.158;
  EXPECT_NE(analyse_tone(10000.0, std::move(classic)),
            analyse_tone(10000.0, std::move(variant)));
}

}  // namespace
}  // namespace wafp::webaudio
