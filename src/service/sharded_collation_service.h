// Compatibility shim for perfbench/, which still names the engine through
// CollationEngine and make_engine. There is one collation engine,
// CollationService; this header stays until the next benchmark change
// drops it. Nothing else includes it.
#pragma once

#include <cstddef>
#include <memory>
#include <stdexcept>

#include "service/collation_service.h"

namespace wafp::service {

using CollationEngine = CollationService;

/// Builds a CollationService. `shards` must be 0: a request for shards
/// throws std::invalid_argument rather than running single-loop silently.
[[nodiscard]] inline std::unique_ptr<CollationEngine> make_engine(
    const ServiceConfig& config, std::size_t shards) {
  if (shards != 0) {
    throw std::invalid_argument("make_engine: sharding was removed; shards "
                                "must be 0");
  }
  return std::make_unique<CollationService>(config);
}

}  // namespace wafp::service
