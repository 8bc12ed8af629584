#include "platform/canvas_sim.h"

#include <algorithm>
#include <cmath>
#include <string>

#include "util/portable_math.h"

namespace wafp::platform {
namespace {

struct Rgba {
  double r = 0.0, g = 0.0, b = 0.0, a = 1.0;
};

/// Working surface in linear double precision; quantization to bytes is the
/// driver-dependent step.
class Surface {
 public:
  Surface() : pixels_(kCanvasWidth * kCanvasHeight) {}

  void blend(std::size_t x, std::size_t y, const Rgba& c, double coverage) {
    if (x >= kCanvasWidth || y >= kCanvasHeight) return;
    Rgba& dst = pixels_[y * kCanvasWidth + x];
    const double alpha = c.a * coverage;
    dst.r = dst.r * (1.0 - alpha) + c.r * alpha;
    dst.g = dst.g * (1.0 - alpha) + c.g * alpha;
    dst.b = dst.b * (1.0 - alpha) + c.b * alpha;
    dst.a = std::min(1.0, dst.a + alpha);
  }

  [[nodiscard]] const Rgba& at(std::size_t x, std::size_t y) const {
    return pixels_[y * kCanvasWidth + x];
  }

 private:
  std::vector<Rgba> pixels_;
};

/// Driver-quirk-dependent supersampling pattern for edge coverage.
struct AaProfile {
  int grid = 2;           // NxN supersamples
  double subpixel_bias = 0.0;
  double gamma = 2.2;
  bool round_half_up = true;  // byte quantization rounding mode
};

AaProfile aa_profile_for(const PlatformProfile& p) {
  AaProfile aa;
  switch (p.canvas_quirk % 4) {
    case 0: aa.grid = 2; aa.gamma = 2.2; break;
    case 1: aa.grid = 4; aa.gamma = 2.2; break;
    case 2: aa.grid = 2; aa.gamma = 2.15; break;
    case 3: aa.grid = 3; aa.gamma = 2.25; break;
  }
  if (p.canvas_quirk >= 4) {
    // Rare per-device oddities: shifted sample grid.
    aa.subpixel_bias = 0.07 * static_cast<double>(p.canvas_quirk - 3);
  }
  aa.round_half_up = p.engine == BrowserEngine::kBlink;
  return aa;
}

/// Coverage of pixel (x, y) by the disc centred at (cx, cy) with radius r,
/// via the AA profile's supersample grid.
double disc_coverage(double x, double y, double cx, double cy, double r,
                     const AaProfile& aa) {
  int hit = 0;
  const int n = aa.grid;
  for (int sy = 0; sy < n; ++sy) {
    for (int sx = 0; sx < n; ++sx) {
      const double px =
          x + (sx + 0.5) / n + aa.subpixel_bias;
      const double py = y + (sy + 0.5) / n;
      const double dx = px - cx;
      const double dy = py - cy;
      if (dx * dx + dy * dy <= r * r) ++hit;
    }
  }
  return static_cast<double>(hit) / static_cast<double>(n * n);
}

/// Coverage of pixel (x, y) by a thick line segment.
double segment_coverage(double x, double y, double x0, double y0, double x1,
                        double y1, double width, const AaProfile& aa) {
  int hit = 0;
  const int n = aa.grid;
  const double vx = x1 - x0;
  const double vy = y1 - y0;
  const double len2 = vx * vx + vy * vy;
  for (int sy = 0; sy < n; ++sy) {
    for (int sx = 0; sx < n; ++sx) {
      const double px = x + (sx + 0.5) / n + aa.subpixel_bias;
      const double py = y + (sy + 0.5) / n;
      double t = len2 > 0.0 ? ((px - x0) * vx + (py - y0) * vy) / len2 : 0.0;
      t = std::clamp(t, 0.0, 1.0);
      const double dx = px - (x0 + t * vx);
      const double dy = py - (y0 + t * vy);
      if (dx * dx + dy * dy <= width * width / 4.0) ++hit;
    }
  }
  return static_cast<double>(hit) / static_cast<double>(n * n);
}

void draw_disc(Surface& s, double cx, double cy, double r, const Rgba& c,
               const AaProfile& aa) {
  const auto x0 = static_cast<std::size_t>(std::max(0.0, cx - r - 1.0));
  const auto y0 = static_cast<std::size_t>(std::max(0.0, cy - r - 1.0));
  for (std::size_t y = y0; y < kCanvasHeight && y <= cy + r + 1.0; ++y) {
    for (std::size_t x = x0; x < kCanvasWidth && x <= cx + r + 1.0; ++x) {
      const double cov = disc_coverage(static_cast<double>(x),
                                       static_cast<double>(y), cx, cy, r, aa);
      if (cov > 0.0) s.blend(x, y, c, cov);
    }
  }
}

void draw_segment(Surface& s, double x0, double y0, double x1, double y1,
                  double width, const Rgba& c, const AaProfile& aa) {
  const auto min_x = static_cast<std::size_t>(
      std::max(0.0, std::min(x0, x1) - width));
  const auto max_x = static_cast<std::size_t>(
      std::min<double>(kCanvasWidth - 1, std::max(x0, x1) + width));
  const auto min_y = static_cast<std::size_t>(
      std::max(0.0, std::min(y0, y1) - width));
  const auto max_y = static_cast<std::size_t>(
      std::min<double>(kCanvasHeight - 1, std::max(y0, y1) + width));
  for (std::size_t y = min_y; y <= max_y; ++y) {
    for (std::size_t x = min_x; x <= max_x; ++x) {
      const double cov =
          segment_coverage(static_cast<double>(x), static_cast<double>(y), x0,
                           y0, x1, y1, width, aa);
      if (cov > 0.0) s.blend(x, y, c, cov);
    }
  }
}

/// Draw one pseudo-glyph: a few strokes whose geometry derives from the
/// glyph code and whose subpixel placement derives from the font stack
/// (hinting) — the stand-in for text rasterization differences.
void draw_glyph(Surface& s, double origin_x, double baseline, char glyph,
                std::uint64_t hinting_seed, const Rgba& c,
                const AaProfile& aa) {
  std::uint64_t state =
      util::fnv1a64_mix(hinting_seed, static_cast<std::uint64_t>(glyph));
  auto next_frac = [&state]() {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    return static_cast<double>(state >> 40) / static_cast<double>(1 << 24);
  };
  const double hint_dx = (next_frac() - 0.5) * 0.35;  // subpixel hinting
  const double hint_dy = (next_frac() - 0.5) * 0.25;

  const int strokes = 2 + (glyph % 3);
  double px = origin_x + hint_dx;
  double py = baseline + hint_dy;
  for (int i = 0; i < strokes; ++i) {
    const double nx = origin_x + hint_dx + next_frac() * 6.0;
    const double ny = baseline + hint_dy - next_frac() * 12.0;
    draw_segment(s, px, py, nx, ny, 1.4, c, aa);
    px = nx;
    py = ny;
  }
}

/// Text rendering changes with the browser's major version only; point
/// releases do not.
std::string browser_major(const PlatformProfile& p) {
  return p.browser_version.substr(0, p.browser_version.find('.'));
}

std::uint8_t quantize(double linear, const AaProfile& aa) {
  // Gamma-encode then quantize with the engine's rounding behaviour. The
  // gamma flavour is a *profile* parameter (aa.gamma, round_half_up); the
  // pow itself must be render-neutral or the build host's libm would leak
  // into every simulated platform's canvas hash.
  const double encoded =
      util::portable_pow(std::clamp(linear, 0.0, 1.0), 1.0 / aa.gamma) * 255.0;
  return static_cast<std::uint8_t>(aa.round_half_up
                                       ? std::floor(encoded + 0.5)
                                       : std::floor(encoded));
}

}  // namespace

std::vector<std::uint8_t> render_canvas_scene(const PlatformProfile& profile) {
  const AaProfile aa = aa_profile_for(profile);
  Surface surface;

  // 1. Background gradient (fingerprintjs draws a gradient-filled rect).
  for (std::size_t y = 0; y < kCanvasHeight; ++y) {
    for (std::size_t x = 0; x < kCanvasWidth; ++x) {
      const double t = static_cast<double>(x) / (kCanvasWidth - 1);
      const Rgba c{1.0 - 0.6 * t, 0.4 + 0.1 * t, 0.0 + 0.9 * t, 1.0};
      surface.blend(x, y, c, 1.0);
    }
  }

  // 2. Overlapping translucent discs exercise the blender.
  draw_disc(surface, 50.0, 30.0, 22.0, {0.1, 0.7, 0.3, 0.55}, aa);
  draw_disc(surface, 70.0, 34.0, 18.0, {0.9, 0.2, 0.6, 0.45}, aa);

  // 3. Pseudo-text: glyph strokes with hinting driven by the text
  //    rasterization stack: OS family + engine + browser *major* version
  //    (point releases do not change text rendering).
  const std::string major_version = browser_major(profile);
  const std::uint64_t hinting_seed = util::fnv1a64_mix(
      util::fnv1a64_mix(util::fnv1a64("hinting"),
                        util::fnv1a64(to_string(profile.os)) ^
                            util::fnv1a64(to_string(profile.engine))),
      util::fnv1a64(major_version));
  const std::string text = "Cwm fjordbank glyphs 1.7";
  double pen_x = 95.0;
  for (const char glyph : text) {
    if (glyph != ' ') {
      draw_glyph(surface, pen_x, 42.0, glyph, hinting_seed,
                 {0.05, 0.05, 0.12, 0.95}, aa);
    }
    pen_x += 5.6;
  }

  // 4. A GPU-dependent dither stripe (drivers disagree on gradient
  //    dithering) seeded by the renderer string.
  const std::uint64_t dither_seed = util::fnv1a64(profile.gpu_renderer);
  for (std::size_t x = 0; x < kCanvasWidth; ++x) {
    const double wobble =
        static_cast<double>((dither_seed >> (x % 48)) & 0x7) / 64.0;
    surface.blend(x, kCanvasHeight - 4, {wobble, wobble, wobble, 0.3}, 1.0);
  }

  // Quantize with the profile's gamma/rounding behaviour. quantize() is a
  // pure function of the channel value, and most values repeat the pixel
  // above exactly (gradient columns, disc interiors), so an exact repeat
  // reuses the byte already computed for it instead of another pow.
  constexpr std::size_t kRowBytes = kCanvasWidth * 4;
  std::vector<std::uint8_t> out(kCanvasHeight * kRowBytes);
  for (std::size_t y = 0; y < kCanvasHeight; ++y) {
    for (std::size_t x = 0; x < kCanvasWidth; ++x) {
      const Rgba& c = surface.at(x, y);
      const Rgba& up = surface.at(x, y > 0 ? y - 1 : 0);
      const std::size_t i = y * kRowBytes + x * 4;
      auto channel = [&](std::size_t k, double value, double above) {
        out[i + k] = y > 0 && value == above ? out[i + k - kRowBytes]
                                             : quantize(value, aa);
      };
      channel(0, c.r, up.r);
      channel(1, c.g, up.g);
      channel(2, c.b, up.b);
      out[i + 3] =
          static_cast<std::uint8_t>(std::clamp(c.a, 0.0, 1.0) * 255.0);
    }
  }
  return out;
}

std::string canvas_key(const PlatformProfile& profile) {
  // The renderer string is length-prefixed so no renderer name can alias
  // the fields after it.
  return std::to_string(profile.gpu_renderer.size()) + ':' +
         profile.gpu_renderer + '|' + std::to_string(profile.canvas_quirk) +
         '|' + std::string(to_string(profile.engine)) + '|' +
         std::string(to_string(profile.os)) + '|' + browser_major(profile);
}

util::Digest canvas_fingerprint(const PlatformProfile& profile) {
  const std::vector<std::uint8_t> pixels = render_canvas_scene(profile);
  util::Sha256 hasher;
  hasher.update(std::span<const std::uint8_t>(pixels));
  return hasher.finish();
}

}  // namespace wafp::platform
