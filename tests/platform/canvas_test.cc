// Canvas renderer: pinned digests and the memo key's read set.
#include "platform/canvas_sim.h"

#include <gtest/gtest.h>

#include <functional>
#include <set>
#include <string>
#include <vector>

namespace wafp::platform {
namespace {

/// Quirk classes 0-3 pick the AA grid and gamma, 4-9 add a subpixel bias;
/// Blink rounds half up and Gecko truncates; the OS cycles through every
/// family for both engines.
PlatformProfile golden_profile(std::uint32_t quirk, BrowserEngine engine) {
  PlatformProfile p;
  p.canvas_quirk = quirk;
  p.engine = engine;
  const std::uint32_t gecko = engine == BrowserEngine::kGecko ? 1 : 0;
  p.os = static_cast<OsFamily>((quirk + gecko) % 4);
  p.browser_version = std::to_string(80 + quirk + 7 * gecko) + ".0." +
                      std::to_string(4400 + quirk);
  p.gpu_renderer = "ANGLE (Golden GPU " + std::to_string(quirk) + ")";
  return p;
}

struct GoldenCase {
  std::uint32_t quirk;
  BrowserEngine engine;
  const char* digest;
};

constexpr BrowserEngine kBlink = BrowserEngine::kBlink;
constexpr BrowserEngine kGecko = BrowserEngine::kGecko;

// Recorded from the renderer that quantized every channel with its own
// portable_pow call; any rewrite must reproduce these bytes exactly.
constexpr GoldenCase kGolden[] = {
    {0, kBlink, "93ade1056b6707ab762a5f3a6c917ae47f5c9c664273e3f941e7e02799af52be"},
    {0, kGecko, "481d0d18fe75224771adb583e8407189664de7eb5901ec3b463cbd59ef80b10b"},
    {1, kBlink, "b71a69d8a963dc24b3887fe2d00212e08f5c0e87f910158b6df7d855debaf8cf"},
    {1, kGecko, "a4306869d5556d574a33c304e9bf92217d9e144eea4cdbe933f7facf64f94e3d"},
    {2, kBlink, "937721a98c4ef22c779a3a62db777348bfec087d4bf7285b9f48aa17fc728599"},
    {2, kGecko, "3fde41b824f4b30c692bca3a853e4d683ac8f02066c0ea788af0a8da5ba36d14"},
    {3, kBlink, "d0e2bf4580e44d67254af3caa69fba5412baf5367cb0d8d0db84ca2a5d3410f9"},
    {3, kGecko, "ed80bf08435b98ff0415b2ede61117e561a0f5fb22cddaa74dcdd791bd3cc960"},
    {4, kBlink, "e52feb56f23d7e387cc2c17408ed55ce43c4db82002ce7d176a7a8da2f91bc4b"},
    {4, kGecko, "aca4b109eef8a62a1173092612677dbfd6db5ae1df5eee17c81ff7babd37561b"},
    {5, kBlink, "c50212b355224ba9164b14f4b7f0c3af526d5af338e0b0e9f615b44080c80dee"},
    {5, kGecko, "109433c5ecee20dcd83156d0a312d7363c7eec98ebd535d88420f1e60afc5d7a"},
    {6, kBlink, "b1cd2e3441a470487e134f3975085610de6afdb2cf56bd91c19c4c92055e314e"},
    {6, kGecko, "6c2131c2b8ac2c67e58d4b84eb4840b152490f1db0159cbe73c81778c6b7ae83"},
    {7, kBlink, "f727d586f1cc53a33cd273c9def64f5fe656be2623478a9566afd79aaf799de1"},
    {7, kGecko, "85bc947f2ee28aa2405e37d15c859b3c589689bc05c832f561a3dc50f304c607"},
    {8, kBlink, "ec60b5fa2bbaeb042de9e12d1131704e1054dcb93b58c57c3aecac86edbf1736"},
    {8, kGecko, "a92be2b58e2b5c12a3f15c93264969c179b16288f12afe173678123fa51c77f6"},
    {9, kBlink, "d360367ab89db8b3c00567ed2de7a845bd750a0781ba26ea24dec703f8d6c194"},
    {9, kGecko, "44bf099e480d2e28de5159325cf6554b05b44840bb4c5f58cfee135d6fb8169c"},
};

TEST(CanvasGoldenTest, CoversEveryQuirkEngineAndOs) {
  std::set<std::uint32_t> quirks;
  std::set<std::pair<BrowserEngine, OsFamily>> engine_os;
  for (const GoldenCase& c : kGolden) {
    quirks.insert(c.quirk);
    engine_os.emplace(c.engine, golden_profile(c.quirk, c.engine).os);
  }
  EXPECT_EQ(quirks.size(), 10u);
  EXPECT_EQ(engine_os.size(), 8u);  // 2 engines x 4 OS families
}

TEST(CanvasGoldenTest, DigestsMatchPinnedBytes) {
  for (const GoldenCase& c : kGolden) {
    EXPECT_EQ(canvas_fingerprint(golden_profile(c.quirk, c.engine)).hex(),
              c.digest)
        << "quirk " << c.quirk << ", engine " << to_string(c.engine);
  }
}

std::vector<PlatformProfile> golden_profiles() {
  std::vector<PlatformProfile> out;
  for (const GoldenCase& c : kGolden) {
    out.push_back(golden_profile(c.quirk, c.engine));
  }
  return out;
}

TEST(CanvasKeyTest, FieldsOutsideTheReadSetMoveNeitherKeyNorDigest) {
  const std::vector<std::function<void(PlatformProfile&)>> edits = {
      [](PlatformProfile& p) { p.font_profile += 3; },
      [](PlatformProfile& p) { p.os_build += 1000; },
      [](PlatformProfile& p) { p.browser_version += ".17"; },
      [](PlatformProfile& p) { p.extra_fonts = {4, 9}; },
  };
  for (const PlatformProfile& base : golden_profiles()) {
    for (std::size_t e = 0; e < edits.size(); ++e) {
      PlatformProfile edited = base;
      edits[e](edited);
      EXPECT_EQ(canvas_key(edited), canvas_key(base)) << "edit " << e;
      EXPECT_EQ(canvas_fingerprint(edited), canvas_fingerprint(base))
          << "edit " << e;
    }
  }
}

TEST(CanvasKeyTest, EveryReadFieldMovesTheKeyAndSomeDigest) {
  const std::vector<std::pair<const char*,
                              std::function<void(PlatformProfile&)>>>
      edits = {
          {"gpu_renderer", [](PlatformProfile& p) { p.gpu_renderer += "!"; }},
          {"canvas_quirk", [](PlatformProfile& p) { p.canvas_quirk += 1; }},
          {"engine",
           [](PlatformProfile& p) {
             p.engine = p.engine == BrowserEngine::kBlink
                            ? BrowserEngine::kGecko
                            : BrowserEngine::kBlink;
           }},
          {"os",
           [](PlatformProfile& p) {
             p.os = static_cast<OsFamily>((static_cast<int>(p.os) + 1) % 4);
           }},
          {"browser major",
           [](PlatformProfile& p) {
             p.browser_version = "1" + p.browser_version;
           }},
      };
  for (const auto& [field, edit] : edits) {
    bool digest_moved = false;
    for (const PlatformProfile& base : golden_profiles()) {
      PlatformProfile edited = base;
      edit(edited);
      EXPECT_NE(canvas_key(edited), canvas_key(base)) << field;
      digest_moved = digest_moved ||
                     canvas_fingerprint(edited) != canvas_fingerprint(base);
    }
    EXPECT_TRUE(digest_moved) << field << " never changed a digest";
  }
}

}  // namespace
}  // namespace wafp::platform
