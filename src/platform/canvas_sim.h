// Canvas-rendering simulation.
//
// The paper compares audio fingerprints against Canvas fingerprinting
// (Tables 2/3), which hashes the pixels of a rendered scene (text + shapes
// + gradients) whose exact bytes depend on the GPU/driver AA behaviour,
// gamma handling, font rasterization and browser engine. We cannot ship a
// full text/GPU rasterizer, so we render a small deterministic scene with a
// software rasterizer whose antialiasing pattern, gamma curve, rounding
// mode and glyph subpixel placement are driven by exactly those profile
// attributes — preserving the property that the fingerprint is a hash of
// rendered pixels with hardware/software-stack-dependent bits.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "platform/profile.h"
#include "util/hash.h"

namespace wafp::platform {

inline constexpr std::size_t kCanvasWidth = 240;
inline constexpr std::size_t kCanvasHeight = 60;

/// Render the fingerprinting scene; returns RGBA8888, row-major.
[[nodiscard]] std::vector<std::uint8_t> render_canvas_scene(
    const PlatformProfile& profile);

/// Everything render_canvas_scene reads from a profile, serialized: the GPU
/// renderer string, the driver quirk class, the engine, the OS family and
/// the browser *major* version. Profiles with equal keys render identical
/// pixels, so this is the memo key for canvas digests; fields outside it
/// (font stack, OS build, point release) never change a canvas.
[[nodiscard]] std::string canvas_key(const PlatformProfile& profile);

/// SHA-256 of the rendered pixels (the Canvas fingerprint).
[[nodiscard]] util::Digest canvas_fingerprint(const PlatformProfile& profile);

}  // namespace wafp::platform
