// PlatformProfile: everything about one simulated participant's device that
// any fingerprinting vector can observe. This is the reproduction's
// substitute for the paper's 2093 real participants (§2.3): the catalog
// samples profiles whose attribute distributions match the study's
// marginals, and the audio-stack fields parameterize the from-scratch Web
// Audio engine exactly where real browsers differ.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "dsp/denormal.h"
#include "dsp/fft.h"
#include "dsp/math_library.h"
#include "webaudio/engine_config.h"

namespace wafp::platform {

enum class OsFamily { kWindows, kMacOs, kAndroid, kLinux };
enum class BrowserFamily {
  kChrome,
  kFirefox,
  kEdge,
  kOpera,
  kSamsungInternet,
  kSilk,
  kYandex,
};
enum class BrowserEngine { kBlink, kGecko };
enum class CpuArch { kX86_64, kArm64, kArm32 };

[[nodiscard]] std::string_view to_string(OsFamily v);
[[nodiscard]] std::string_view to_string(BrowserFamily v);
[[nodiscard]] std::string_view to_string(BrowserEngine v);
[[nodiscard]] std::string_view to_string(CpuArch v);

/// The audio-visible build knobs (see DESIGN.md "substitutions"): these are
/// the only fields that can influence a rendered audio buffer, so two users
/// with equal AudioStack + jitter state produce bit-identical fingerprints.
struct AudioStack {
  dsp::MathVariant math = dsp::MathVariant::kPrecise;
  dsp::FftVariant fft = dsp::FftVariant::kRadix2;
  dsp::TwiddleMode twiddle = dsp::TwiddleMode::kDirect;
  webaudio::CompressorTuning compressor;
  webaudio::AnalyserTuning analyser;
  dsp::DenormalPolicy denormal = dsp::DenormalPolicy::kPreserve;
  bool fma_contraction = false;

  friend bool operator==(const AudioStack&, const AudioStack&) = default;

  /// Canonical serialization of every knob; used in exports and in tests
  /// asserting which vectors can see which knobs.
  [[nodiscard]] std::string class_key() const;

  /// FNV-1a over every knob's bit pattern: an allocation-free stand-in for
  /// hashing class_key(). The render cache pairs it with operator== on the
  /// full struct, so hash collisions cannot alias two distinct stacks.
  [[nodiscard]] std::uint64_t class_hash() const;
};

/// Per-user instability model (paper §3.1 "fickleness"); see
/// webaudio::RenderJitter (webaudio/analyser_node.h) for the mechanism.
struct Fickleness {
  /// Per-iteration probability scale of any perturbation event; 0 for the
  /// ~half of users whose 30 iterations are identical (Fig. 3).
  double flakiness = 0.0;
  /// How many distinct platform-determined jitter states this stack can
  /// fall into (shared across users of the same stack).
  std::uint32_t jitter_states = 3;
  /// Fraction of perturbation events that are recurring jitter states; the
  /// remainder are one-off chaotic glitches with unique digests.
  double jitter_share = 0.85;
};

struct PlatformProfile {
  // Identity / UA-visible.
  OsFamily os = OsFamily::kWindows;
  std::string os_version;
  BrowserFamily browser = BrowserFamily::kChrome;
  std::string browser_version;
  BrowserEngine engine = BrowserEngine::kBlink;
  CpuArch arch = CpuArch::kX86_64;
  std::string device_model;  // Android only; empty elsewhere

  AudioStack audio;

  /// SIMD tier of the user's CPU (0 = baseline .. 3 = widest vectors).
  /// Real analyser FFTs dispatch on CPU features at runtime, so this knob
  /// is independent of the UA string — it is what makes one User-Agent
  /// span many audio clusters (paper §4) and what gives audio
  /// fingerprinting additive value over UA/Canvas.
  int simd_tier = 0;

  /// The JS engine's math implementation. Distinct from the audio stack's
  /// libm: V8 ships its own fdlibm port (identical on every OS), while
  /// SpiderMonkey mixes its own kernels with system functions. This is why
  /// the paper's follow-up found Math JS far *less* diverse than Web Audio
  /// (Table 4) with a near-1:1 Windows/Chrome correspondence but 3 Math JS
  /// builds under Windows/Firefox (Table 5).
  dsp::MathVariant js_math = dsp::MathVariant::kPrecise;

  /// JS-engine atan sub-build: changes how atan is computed in the Math JS
  /// battery but is invisible to the audio path (the engine never calls
  /// atan).
  int atan_build = 0;

  // Canvas / font-visible attributes.
  std::string gpu_renderer;
  std::uint32_t os_build = 0;
  std::uint32_t font_profile = 0;           // base font stack id
  std::vector<std::uint16_t> extra_fonts;   // user-installed fonts (sorted)
  std::uint32_t canvas_quirk = 0;           // driver AA/gamma quirk class

  Fickleness fickle;
  std::string country;

  /// Navigator-style User-Agent header string.
  [[nodiscard]] std::string user_agent() const;

  /// Build an EngineConfig carrying this profile's audio stack. Render
  /// jitter is not part of it: the fingerprinting layer hands jitter states
  /// to the analyser's capture readers (webaudio::AnalyserNode).
  [[nodiscard]] webaudio::EngineConfig make_engine_config() const;
};

}  // namespace wafp::platform
