#include "study/service_parity.h"

#include "collation/fingerprint_graph.h"
#include "service/collation_service.h"

namespace wafp::study {

ServiceParityReport service_collation_parity(const Dataset& dataset,
                                             fingerprint::VectorId vector,
                                             const service::FaultPlan& faults,
                                             const std::string& state_dir) {
  ServiceParityReport report;

  collation::FingerprintGraph direct;
  service::ServiceConfig config;
  config.state_dir = state_dir;
  config.faults = faults;
  config.snapshot_every = 512;
  service::CollationService svc(config);

  for (std::size_t user = 0; user < dataset.num_users(); ++user) {
    std::uint64_t visit = 0;
    for (const util::Digest& d : dataset.audio_observations(user, vector)) {
      direct.add_observation(static_cast<std::uint32_t>(user), d);
      service::RawSubmission raw;
      raw.user = static_cast<std::uint32_t>(user);
      raw.vector = static_cast<std::uint32_t>(vector);
      raw.timestamp = visit++;
      raw.efp_hex = d.hex();
      auto result = svc.submit(raw);
      while (result.reason == service::Reject::kQueueFull) {
        svc.pump();  // backpressure: drain, then resubmit
        result = svc.submit(raw);
      }
    }
  }
  svc.drain_and_checkpoint();

  const auto stats = svc.stats();
  report.submitted = stats.submitted;
  report.accepted = stats.accepted;
  report.applied = stats.applied;
  report.direct_checksum = direct.component_checksum();
  report.service_checksum = svc.component_checksum();
  return report;
}

}  // namespace wafp::study
