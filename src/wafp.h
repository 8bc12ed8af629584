// Umbrella header for the webaudio-fp library: a C++ reproduction of
// "Your Speaker or My Snooper? Measuring the Effectiveness of Web Audio
// Browser Fingerprints" (IMC '22). Include this to get the full public API;
// fine-grained headers remain available for leaner builds.
//
// Layering (each layer only depends on those above it):
//   util       -> hashing, deterministic RNG, CSV, tables
//   dsp        -> FFT engines, math-library variants, windows, FMA/denormal
//   webaudio   -> the offline Web Audio rendering engine
//   platform   -> the simulated browser/device population
//   fingerprint-> the paper's 7 vectors (+ extensions), render cache,
//                 fickleness model
//   collation  -> the paper's user<->fingerprint graph (+ expiring
//                 variant)
//   analysis   -> entropy, AMI, anonymity sets
//   study      -> dataset collection and every paper experiment
#pragma once

#include "util/csv.h"          // IWYU pragma: export
#include "util/hash.h"         // IWYU pragma: export
#include "util/rng.h"          // IWYU pragma: export
#include "util/stats.h"        // IWYU pragma: export
#include "util/table.h"        // IWYU pragma: export
#include "util/wav.h"          // IWYU pragma: export

#include "dsp/denormal.h"      // IWYU pragma: export
#include "dsp/fft.h"           // IWYU pragma: export
#include "dsp/fma.h"           // IWYU pragma: export
#include "dsp/math_library.h"  // IWYU pragma: export
#include "dsp/window.h"        // IWYU pragma: export

#include "webaudio/analyser_node.h"            // IWYU pragma: export
#include "webaudio/audio_buffer.h"             // IWYU pragma: export
#include "webaudio/audio_bus.h"                // IWYU pragma: export
#include "webaudio/audio_node.h"               // IWYU pragma: export
#include "webaudio/audio_param.h"              // IWYU pragma: export
#include "webaudio/biquad_filter_node.h"       // IWYU pragma: export
#include "webaudio/channel_merger_node.h"      // IWYU pragma: export
#include "webaudio/delay_node.h"               // IWYU pragma: export
#include "webaudio/dynamics_compressor_node.h" // IWYU pragma: export
#include "webaudio/engine_config.h"            // IWYU pragma: export
#include "webaudio/gain_node.h"                // IWYU pragma: export
#include "webaudio/iir_filter_node.h"          // IWYU pragma: export
#include "webaudio/offline_audio_context.h"    // IWYU pragma: export
#include "webaudio/oscillator_node.h"          // IWYU pragma: export
#include "webaudio/periodic_wave.h"            // IWYU pragma: export
#include "webaudio/script_processor_node.h"    // IWYU pragma: export
#include "webaudio/source_nodes.h"             // IWYU pragma: export
#include "webaudio/wave_shaper_node.h"         // IWYU pragma: export

#include "platform/canvas_sim.h"         // IWYU pragma: export
#include "platform/catalog.h"            // IWYU pragma: export
#include "platform/population.h"         // IWYU pragma: export
#include "platform/profile.h"            // IWYU pragma: export
#include "platform/synthetic_vectors.h"  // IWYU pragma: export

#include "fingerprint/collector.h"     // IWYU pragma: export
#include "fingerprint/render_cache.h"  // IWYU pragma: export
#include "fingerprint/vector.h"        // IWYU pragma: export

#include "collation/disjoint_set.h"       // IWYU pragma: export
#include "collation/expiring_graph.h"     // IWYU pragma: export
#include "collation/fingerprint_graph.h"  // IWYU pragma: export

#include "analysis/ami.h"        // IWYU pragma: export
#include "analysis/anonymity.h"  // IWYU pragma: export
#include "analysis/bootstrap.h"  // IWYU pragma: export
#include "analysis/conditional.h"  // IWYU pragma: export
#include "analysis/entropy.h"    // IWYU pragma: export

#include "study/dataset.h"      // IWYU pragma: export
#include "study/experiments.h"  // IWYU pragma: export
#include "study/report.h"       // IWYU pragma: export
