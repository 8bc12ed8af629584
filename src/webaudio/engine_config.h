// Configuration binding an audio render to a simulated platform stack.
//
// A real browser's audio pipeline is parameterized by its build: which libm
// it links, which FFT library the analyser uses, FTZ mode of the render
// thread, vendor tweaks to the compressor, and the device sample rate. This
// struct is our stand-in for that build surface — the fingerprinting layer
// fills it from a PlatformProfile.
#pragma once

#include <cstdint>
#include <memory>

#include "dsp/denormal.h"
#include "dsp/fft.h"
#include "dsp/math_library.h"

namespace wafp::obs {
class MetricsRegistry;
}  // namespace wafp::obs

namespace wafp::webaudio {

class PeriodicWaveCache;

/// Micro-variants of the dynamics-compressor kernel, representing vendor /
/// version differences (Chromium revisions, Gecko's independent kernel).
struct CompressorTuning {
  /// Look-ahead delay applied to the signal path.
  double pre_delay_seconds = 0.006;
  /// One-pole time constant for the gain-reduction meter.
  double metering_release_seconds = 0.325;
  /// Release-time multipliers at the four adaptive-release fit points.
  double release_zone1 = 1.0;
  double release_zone2 = 1.2;
  double release_zone3 = 2.0;
  double release_zone4 = 3.3;
  /// Exponent of the makeup ("master") gain curve.
  double makeup_exponent = 0.6;
  /// Step factor of the knee-parameter bisection solver; coarser solvers
  /// settle on slightly different knee constants.
  double knee_solver_tolerance = 1e-7;

  friend bool operator==(const CompressorTuning&,
                         const CompressorTuning&) = default;
};

/// Micro-variants of the analyser's spectrum pipeline — window constants
/// and default smoothing changed across real browser releases, and they are
/// visible only to FFT-based vectors (the DC path has no analyser). This is
/// what makes the paper's FFT-family vectors more diverse than DC
/// (Table 2: 73-87 distinct vs 59).
struct AnalyserTuning {
  /// Blackman window alpha (0.16 is the textbook constant).
  double blackman_alpha = 0.16;
  /// Default smoothingTimeConstant (Web Audio spec default 0.8).
  double smoothing = 0.8;

  friend bool operator==(const AnalyserTuning&,
                         const AnalyserTuning&) = default;
};

/// Everything an OfflineAudioContext needs to know about the simulated
/// platform it renders on.
struct EngineConfig {
  std::shared_ptr<const dsp::MathLibrary> math;
  std::shared_ptr<const dsp::FftEngine> fft;
  dsp::DenormalPolicy denormal = dsp::DenormalPolicy::kPreserve;
  /// Whether hot multiply-accumulate kernels contract to fused
  /// multiply-adds (see dsp/fma.h).
  bool fma_contraction = false;
  CompressorTuning compressor;
  AnalyserTuning analyser;

  /// Shared wavetable cache (periodic_wave_cache.h). Waves depend only on
  /// `fft` and `math`, so configs built from the same platform stack should
  /// share one instance. nullptr = oscillators build waves per render
  /// (value-identical, just slower).
  std::shared_ptr<PeriodicWaveCache> wave_cache;

  /// Metrics sink for render instrumentation (per-node process time,
  /// whole-render latency). nullptr = obs::MetricsRegistry::global().
  /// Purely observational: digests are identical with any sink.
  obs::MetricsRegistry* metrics = nullptr;

  /// A config with host math and radix-2 FFT.
  [[nodiscard]] static EngineConfig reference();
};

}  // namespace wafp::webaudio
