// Scenario: a complete simulated Internet with a measurement timeline.
//
// The scenario owns every substrate — AS graph, RPKI repositories,
// routing system, data plane, host populations — plus a dated event
// timeline (ROA publications via validity windows, ROV enablement dates,
// invalid-announcement churn) and the case-study fixtures the paper's
// analysis section examines. Benches advance the scenario date by date
// and run RoVista against it; the scenario also exposes *ground truth*
// (who really deploys ROV when) for the validation harness only.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "bgp/collector.h"
#include "bgp/routing_system.h"
#include "dataplane/dataplane.h"
#include "faults/fault_chain.h"
#include "rpki/relying_party.h"
#include "rpki/repository.h"
#include "topology/as_graph.h"
#include "topology/cone.h"
#include "topology/generator.h"
#include "util/date.h"
#include "util/rng.h"

namespace rovista::scenario {

using Asn = topology::Asn;
using util::Date;

/// Fixture handles for the paper's case studies (§7.3–§7.6, Fig. 8–10).
struct CaseStudies {
  // Collateral benefit (KPN, Fig. 8): a provider that flips to ROV with
  // four single-homed stub customers and two multihomed customers.
  Asn kpn = 0;
  std::vector<Asn> kpn_stub_customers;
  Asn kpn_multihomed_a = 0;  // AS 3573-like: many non-ROV providers
  Asn kpn_multihomed_b = 0;  // AS 15466-like: one non-ROV provider
  Date kpn_rov_date;

  // Customer exemption + single-prefix comparison (AT&T, Fig. 10).
  Asn att = 0;
  Asn cloudflare = 0;
  net::Ipv4Prefix cloudflare_test_prefix;  // the RPKI-invalid test prefix
  Date cloudflare_becomes_customer;

  // Collateral damage (TDC/DTAG, Fig. 9).
  Asn cd_rov_as = 0;        // deploys ROV but keeps reaching the tNode
  Asn cd_nonrov_provider = 0;
  Asn cd_valid_origin = 0;  // announces the covering valid /20
  Asn cd_invalid_origin = 0;
  net::Ipv4Prefix cd_valid_prefix;
  net::Ipv4Prefix cd_invalid_prefix;

  // Default-route misconfiguration (Swisscom-like, §7.6).
  Asn default_route_as = 0;
  Asn default_route_target = 0;

  // Partial session coverage (NTT-like equipment issues, §7.6).
  Asn partial_as = 0;

  // Stale operator claim (BIT-like): announced ROV, later retracted.
  Asn stale_claim_as = 0;
};

/// Ground truth about one AS's ROV deployment (for validation only).
struct RovDeployment {
  Asn asn = 0;
  Date enabled;                 // when ROV turned on
  bgp::RovMode mode = bgp::RovMode::kFull;
  double session_coverage = 1.0;
};

/// One operator statement as the world would see it (may be stale).
struct OperatorClaim {
  Asn asn = 0;
  bool claims_rov = false;  // "we deploy ROV" vs "we do not"
  bool stale = false;       // the claim no longer matches reality
  std::string source;       // mimics the provenance column of Table 2/3
};

struct ScenarioParams {
  std::uint64_t seed = 42;
  topology::TopologyParams topology;

  Date start = Date::from_ymd(2021, 12, 24);
  Date end = Date::from_ymd(2023, 9, 12);

  // ROA adoption: fraction of ASes with ROAs at start/end (Fig. 1 top).
  double roa_fraction_start = 0.33;
  double roa_fraction_end = 0.48;

  // ROV adoption probability by tier at the end of the window; each
  // deploying AS gets a uniformly random enablement date. Start-of-window
  // deployment is roughly half of these.
  double rov_end_tier1 = 0.94;
  double rov_end_tier2 = 0.22;
  double rov_end_tier3 = 0.08;
  double rov_end_stub = 0.03;
  double exempt_customers_fraction = 0.15;  // of deployers
  double prefer_valid_fraction = 0.03;      // of deployers
  // Fraction of ROV deployers that carry a SLURM file (RFC 8416 local
  // exceptions — §7.1's "ROV ASes still accepting specific invalids").
  // 0 keeps the build byte-identical to pre-SLURM scenarios: no RNG
  // stream is split and no policies change.
  double slurm_fraction = 0.0;

  // RPKI supply-chain fault injection (faults/fault_schedule.h): RP
  // instance crashes serving frozen VRPs, RTR session drops and corrupt
  // PDUs, divergent RP implementations. All rates default to 0, which
  // skips the fault RNG split entirely — default worlds stay
  // byte-identical to pre-fault builds.
  faults::FaultParams faults;

  // Exclusively-invalid announcements that persist (tNode prefixes).
  int tnode_prefix_count = 10;
  int tnode_hosts_per_prefix = 2;
  // Invalid announcements where the victim also announces (non-exclusive).
  int moas_invalid_count = 14;
  // The 2022-05-27..2022-08-03 surge of invalid prefixes (Fig. 1).
  int surge_invalid_count = 60;

  // Host population for measurement.
  int measured_as_count = 120;   // ASes that receive scannable hosts
  int hosts_per_measured_as = 5;
  double global_ipid_fraction = 0.45;  // hosts with a global counter
  double background_pareto_xm = 1.0;   // pkt/s scale (heavy-tailed rates)
  double background_pareto_alpha = 0.75;  // heavy tail: a real slice of
                                          // hosts exceeds 10/30/100 pkt/s
  double nonstationary_traffic_fraction = 0.2;  // trend/seasonal hosts

  // Collector coverage: how many ASes feed the RouteViews-like collector.
  int collector_peer_count = 40;
};

/// What an advance_to() call actually changed (event counts by kind).
struct AdvanceStats {
  std::size_t policy_events = 0;
  std::size_t announce_events = 0;
  std::size_t relationship_events = 0;
  /// The relying party was not re-run: the repositories were unchanged
  /// and no validity window opened or closed since its last run, so the
  /// installed VRPs are already this date's.
  bool relying_party_skipped = false;

  std::size_t events() const noexcept {
    return policy_events + announce_events + relationship_events;
  }
};

/// Hook deciding how a fresh relying-party output reaches the routing
/// system. Receives the previous VRP set (still installed) and the new
/// one (by value — the scenario keeps its own copy). The default simply
/// calls RoutingSystem::set_vrps; the incremental engine substitutes a
/// delta-driven apply_vrp_delta instead (incremental/longitudinal_engine
/// .cpp) without scenario depending on the incremental subsystem.
using VrpInstaller = std::function<void(
    bgp::RoutingSystem&, const rpki::VrpSet& prev, rpki::VrpSet next)>;

class Scenario {
 public:
  explicit Scenario(ScenarioParams params);

  // Substrate access.
  const topology::AsGraph& graph() const noexcept { return graph_; }
  bgp::RoutingSystem& routing() noexcept { return *routing_; }
  dataplane::DataPlane& plane() noexcept { return *plane_; }
  rpki::RepositorySystem& repositories() noexcept { return *repos_; }
  const topology::CustomerCones& cones() const noexcept { return *cones_; }
  bgp::Collector& collector() noexcept { return *collector_; }

  const ScenarioParams& params() const noexcept { return params_; }
  const CaseStudies& cases() const noexcept { return cases_; }

  // Timeline.
  Date start() const noexcept { return params_.start; }
  Date end() const noexcept { return params_.end; }
  Date current() const noexcept { return current_; }

  /// Move the scenario clock to `date`: applies pending policy events and
  /// announcement churn, re-runs the relying party, and refreshes the
  /// routing system's VRP view with set_vrps. Always runs the relying
  /// party, so a world stepped this way recomputes everything each date.
  void advance_to(Date date);

  /// Same, but the new relying-party output is handed to `installer`
  /// instead of set_vrps, and the relying party and the installer are
  /// skipped while the repositories' generation is the one of the last
  /// run and `date` precedes that run's ValidationRun::stable_until:
  /// its VRPs are then provably this date's too. Returns how many
  /// timeline events were applied and whether the run was skipped.
  AdvanceStats advance_to(Date date, const VrpInstaller& installer);

  /// The relying-party output at the current date.
  const rpki::VrpSet& current_vrps() const noexcept { return vrps_; }

  /// Fault-injection chain, or nullptr when every fault knob is 0.
  const faults::FaultChain* fault_chain() const noexcept {
    return fault_chain_.get();
  }

  /// Distribution-chain health after the latest advance_to() (all zeros
  /// in fault-free worlds).
  const faults::DegradationStats& degradation() const noexcept {
    return degradation_;
  }

  /// Digest of the per-AS effective views installed by the latest
  /// advance_to() — always 0 in fault-free worlds. Per-AS views can
  /// change with zero delta in the fresh VRP base (a failure window
  /// opening, stale data expiring), so any discovery reuse across
  /// rounds must also demand this digest be unchanged.
  std::uint64_t effective_views_digest() const noexcept {
    return effective_views_digest_;
  }

  // Measurement support.
  Asn client_as_a() const noexcept { return client_as_a_; }
  Asn client_as_b() const noexcept { return client_as_b_; }
  net::Ipv4Address client_addr_a() const noexcept { return client_addr_a_; }
  net::Ipv4Address client_addr_b() const noexcept { return client_addr_b_; }

  /// All scannable host addresses (vVP candidates).
  const std::vector<net::Ipv4Address>& vvp_candidates() const noexcept {
    return vvp_candidates_;
  }

  /// ASes populated with scannable hosts.
  const std::vector<Asn>& measured_ases() const noexcept {
    return measured_ases_;
  }

  /// The /16 address block assigned to an AS.
  net::Ipv4Prefix as_prefix(Asn asn) const;

  /// The AS's second, ROA-covered but *unannounced* /16 ("dark" space).
  /// tNode prefixes are carved from victims' dark blocks: the invalid
  /// /24 is then the only route toward those addresses, exactly the
  /// "exclusively invalid" semantics of §3.2.
  net::Ipv4Prefix as_dark_prefix(Asn asn) const;

  /// The persistent exclusively-invalid announcements (prefix, origin).
  const std::vector<std::pair<net::Ipv4Prefix, Asn>>& tnode_prefixes()
      const noexcept {
    return tnode_prefixes_;
  }

  /// Tier-2 transits pinned to never deploy ROV (measurement anchors).
  const std::vector<Asn>& gray_transits() const noexcept {
    return gray_transits_;
  }

  // Ground truth (validation harness only — RoVista itself never reads
  // these).
  const std::vector<RovDeployment>& deployments() const noexcept {
    return deployments_;
  }
  const std::vector<OperatorClaim>& operator_claims() const noexcept {
    return claims_;
  }

  /// The ROV mode actually in force at `asn` on `date`.
  bgp::RovMode true_mode(Asn asn, Date date) const;

  /// Reference ASes for false-tNode removal: confirmed ROV deployers and
  /// confirmed non-deployers as of `date` (the paper's 10 communication-
  /// confirmed ASes).
  std::vector<Asn> rov_reference_ases(Date date, std::size_t count) const;
  std::vector<Asn> non_rov_reference_ases(Date date,
                                          std::size_t count) const;

 private:
  friend void install_case_studies(Scenario& s, util::Rng& rng);

  struct PolicyEvent {
    Date date;
    Asn asn;
    bgp::AsPolicy policy;
  };
  struct AnnouncementEvent {
    Date date;
    bool add = true;
    bgp::OriginAnnouncement announcement;
  };
  struct RelationshipEvent {
    Date date;
    Asn a;
    Asn b;
    topology::NeighborKind kind_of_b;  // b's role from a's view
  };

  /// Create a fixture AS (sequential ASN) with graph metadata.
  Asn allocate_as(const std::string& name, int tier, topology::Rir rir);

  /// Register `asn` in the address plan: its insertion-order index picks
  /// the /16 grid slot used by as_prefix/as_dark_prefix. Throws once the
  /// grid is full (the dark bit caps the plan at ~32.5k ASes — see
  /// DESIGN.md, "Rank-flattened propagation").
  void index_new_as(Asn asn);

  /// Announce the AS's /16, issue its CA certificate, and (optionally)
  /// publish a ROA effective from `roa_date`.
  void register_as_resources(Asn asn, std::optional<Date> roa_date);

  void build_topology(util::Rng& rng);
  void allocate_addresses();
  void build_rpki(util::Rng& rng);
  void build_rov_timeline(util::Rng& rng);
  void build_invalid_announcements(util::Rng& rng);
  void build_hosts(util::Rng& rng);
  void build_operator_claims();
  void build_collector(util::Rng& rng);
  void build_slurm_exceptions(util::Rng& rng);

  /// Both advance_to()s; `may_skip_rp` grants the relying-party skip.
  AdvanceStats advance(Date date, const VrpInstaller& installer,
                       bool may_skip_rp);

  ScenarioParams params_;
  topology::AsGraph graph_;
  // Address plan: insertion-order index per AS (== asn - first_asn for
  // generated worlds, whose ASNs are contiguous) and the next free ASN
  // for fixture allocation (== first_asn + |ASes| for generated worlds).
  std::unordered_map<Asn, std::uint32_t> as_index_;
  Asn next_fixture_asn_ = 0;
  std::unique_ptr<topology::CustomerCones> cones_;
  std::unique_ptr<rpki::RepositorySystem> repos_;
  std::unique_ptr<bgp::RoutingSystem> routing_;
  std::unique_ptr<dataplane::DataPlane> plane_;
  std::unique_ptr<bgp::Collector> collector_;

  std::unordered_map<Asn, std::uint64_t> cert_serial_;  // AS → CA cert
  std::unordered_map<Asn, Date> roa_date_;              // AS → ROA adoption
  std::vector<Asn> gray_transits_;
  std::vector<std::pair<net::Ipv4Prefix, Asn>> tnode_prefixes_;
  std::vector<PolicyEvent> policy_events_;        // sorted by date
  std::vector<AnnouncementEvent> announce_events_;  // sorted by date
  std::vector<RelationshipEvent> relationship_events_;
  std::size_t policy_applied_ = 0;
  std::size_t announce_applied_ = 0;
  std::size_t relationship_applied_ = 0;

  // Fixture ASes whose hosts are guaranteed-measurable (global counters,
  // quiet background) so every case study produces a score series.
  std::vector<Asn> fixture_reliable_;

  std::vector<RovDeployment> deployments_;
  std::vector<OperatorClaim> claims_;
  CaseStudies cases_;

  std::vector<Asn> measured_ases_;
  std::vector<net::Ipv4Address> vvp_candidates_;

  Asn client_as_a_ = 0;
  Asn client_as_b_ = 0;
  net::Ipv4Address client_addr_a_;
  net::Ipv4Address client_addr_b_;

  Date current_;
  rpki::VrpSet vrps_;
  // The repositories' generation at the last relying-party run, and
  // that run's stable_until: the skip's key.
  std::uint64_t rp_generation_ = 0;
  Date rp_stable_until_;

  std::unique_ptr<faults::FaultChain> fault_chain_;  // null when knobs are 0
  faults::DegradationStats degradation_;
  std::uint64_t effective_views_digest_ = 0;
};

/// Installs the paper's case-study fixtures into a freshly built
/// scenario (called by the constructor; defined in fixtures.cpp).
void install_case_studies(Scenario& s, util::Rng& rng);

}  // namespace rovista::scenario
