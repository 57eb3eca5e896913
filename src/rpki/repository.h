// RPKI repositories — one per RIR, each rooted at its own trust anchor.
//
// Resource holders publish CA certificates and ROAs here; relying parties
// fetch everything and validate (relying_party.h). Publication and
// withdrawal are dated so longitudinal scenarios can evolve the ROA set.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "rpki/cert.h"
#include "rpki/roa.h"
#include "topology/as_graph.h"
#include "util/date.h"

namespace rovista::rpki {

/// One RIR's repository plus its trust anchor and key registry.
class Repository {
 public:
  Repository(topology::Rir rir, std::uint64_t seed, util::Date ta_not_before,
             util::Date ta_not_after);

  topology::Rir rir() const noexcept { return rir_; }
  const Certificate& trust_anchor() const noexcept { return trust_anchor_; }
  const SimulatedCrypto& crypto() const noexcept { return crypto_; }

  /// Issue a CA certificate for `resources` signed by the trust anchor.
  /// Returns the certificate serial, or nullopt if the TA does not hold
  /// the requested resources (issuance is refused, as a real RIR would).
  std::optional<std::uint64_t> issue_certificate(const std::string& subject,
                                                 ResourceSet resources,
                                                 util::Date not_before,
                                                 util::Date not_after);

  /// Publish a ROA signed by the certificate with `cert_serial`.
  /// Returns false if the serial is unknown. (Resource containment is
  /// checked later by the relying party, as in real RPKI: a CA *can*
  /// publish an overclaiming ROA; validation rejects it.)
  bool publish_roa(std::uint64_t cert_serial, Asn asn,
                   std::vector<RoaPrefix> prefixes, util::Date not_before,
                   util::Date not_after);

  /// Withdraw (remove) all ROAs for (cert_serial, asn) covering `prefix`.
  /// Returns the number of ROAs removed.
  std::size_t withdraw_roa(std::uint64_t cert_serial, Asn asn,
                           const net::Ipv4Prefix& prefix);

  const std::vector<Certificate>& certificates() const noexcept {
    return certificates_;
  }
  const std::vector<Roa>& roas() const noexcept { return roas_; }

  const Certificate* find_certificate(std::uint64_t serial) const noexcept;

  /// Mutation generation: every issue_certificate, publish_roa and
  /// withdraw_roa call moves it, refused calls included.
  std::uint64_t generation() const noexcept { return generation_; }

 private:
  topology::Rir rir_;
  SimulatedCrypto crypto_;
  KeyPair ta_key_;
  Certificate trust_anchor_;
  std::vector<Certificate> certificates_;  // includes the trust anchor
  std::unordered_map<std::uint64_t, KeyPair> cert_keys_;  // serial → key
  std::vector<Roa> roas_;
  std::uint64_t next_serial_ = 1;
  std::uint64_t key_seed_;
  std::uint64_t generation_ = 0;
};

/// The five-RIR repository system.
class RepositorySystem {
 public:
  RepositorySystem(std::uint64_t seed, util::Date ta_not_before,
                   util::Date ta_not_after);

  Repository& repository(topology::Rir rir) noexcept;
  const Repository& repository(topology::Rir rir) const noexcept;

  std::vector<const Repository*> all() const;

  /// Mutation generation of the whole system: the sum of its
  /// repositories' generations, so it moves whenever any repository's
  /// content does. Equal generations mean a relying-party run sees the
  /// same objects (Scenario::advance_to skips re-running it on that,
  /// DESIGN.md "World generations").
  std::uint64_t generation() const noexcept;

 private:
  std::vector<Repository> repos_;
};

}  // namespace rovista::rpki
