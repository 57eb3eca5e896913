// Relying Party software (the Routinator role).
//
// Fetches certificates and ROAs from all five RIR repositories, validates
// the chain — signature against the issuer key, validity window against
// the validation date, RFC 6487 resource containment (an overclaiming ROA
// is rejected) — and emits the VRP set routers consume.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "rpki/repository.h"
#include "rpki/validation.h"
#include "util/date.h"

namespace rovista::rpki {

/// Why an object was rejected during validation (for operator reports).
enum class RejectReason {
  kBadSignature,
  kExpired,
  kNotYetValid,
  kResourceOverclaim,
  kUnknownIssuer,
};

struct RejectedObject {
  std::string description;
  RejectReason reason;
};

struct ValidationRun {
  VrpSet vrps;
  std::size_t certificates_checked = 0;
  std::size_t roas_checked = 0;
  std::vector<RejectedObject> rejected;
  /// The first date after `today` on which some certificate's or ROA's
  /// validity window opens (its not_before) or closes (the day after its
  /// not_after); the far future when none does. Every other input of a
  /// run is the repositories' content, so while it stays unchanged
  /// (RepositorySystem::generation) every date in [today, stable_until)
  /// yields this run's VRPs.
  util::Date stable_until;
};

/// Validate everything published in `repos` as of `today`.
ValidationRun run_relying_party(const RepositorySystem& repos,
                                util::Date today);

}  // namespace rovista::rpki
