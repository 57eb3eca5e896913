#include "scenario/scenario.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>

#include "topology/caida.h"
#include "util/strings.h"

namespace rovista::scenario {

namespace {

constexpr std::int64_t kTenYears = 3650;

// Offset added to (asn - 1) to form the high 16 bits of the AS's /16;
// keeps blocks out of 0.0.0.0/8 and far from 240/4 (burst sources).
constexpr std::uint32_t kBlockBase = 256;

}  // namespace

net::Ipv4Prefix Scenario::as_prefix(Asn asn) const {
  const std::uint32_t index = as_index_.at(asn);
  return net::Ipv4Prefix(net::Ipv4Address((index + kBlockBase) << 16), 16);
}

net::Ipv4Prefix Scenario::as_dark_prefix(Asn asn) const {
  const std::uint32_t index = as_index_.at(asn);
  return net::Ipv4Prefix(
      net::Ipv4Address(0x80000000u | ((index + kBlockBase) << 16)), 16);
}

void Scenario::index_new_as(Asn asn) {
  const std::uint32_t index = static_cast<std::uint32_t>(as_index_.size());
  // The plain /16 lives below 128.0.0.0 and the dark twin above it, so
  // index + kBlockBase must fit in 15 bits.
  if (index + kBlockBase > 0x7fffu) {
    throw std::runtime_error(util::format(
        "scenario: AS %u overflows the /16 address plan (%u ASes max; "
        "larger worlds go through bench_scale / the flat substrate, "
        "which skip host allocation)",
        asn, 0x8000u - kBlockBase));
  }
  as_index_.emplace(asn, index);
}

Scenario::Scenario(ScenarioParams params)
    : params_(std::move(params)), current_(params_.start - 1) {
  util::Rng rng(params_.seed);

  build_topology(rng);

  repos_ = std::make_unique<rpki::RepositorySystem>(
      params_.seed ^ 0x5e9a11ULL, params_.start - kTenYears,
      params_.end + kTenYears);
  routing_ = std::make_unique<bgp::RoutingSystem>(graph_);
  plane_ = std::make_unique<dataplane::DataPlane>(*routing_,
                                                  params_.seed ^ 0x91a9eULL);

  build_rpki(rng);
  build_rov_timeline(rng);
  build_invalid_announcements(rng);
  install_case_studies(*this, rng);

  // Everything that changes the AS set must precede cone computation.
  cones_ = std::make_unique<topology::CustomerCones>(graph_);

  build_hosts(rng);
  build_operator_claims();
  build_collector(rng);

  // Last build step, gated so the default (no SLURM) draws nothing from
  // `rng` and stays byte-identical to pre-SLURM scenario builds.
  if (params_.slurm_fraction > 0.0) {
    util::Rng slurm_rng = rng.split(0x51e8);
    build_slurm_exceptions(slurm_rng);
  }

  // Same gating for fault injection: knob-0 worlds never split the fault
  // stream. Only ROV deployers hold RTR sessions, so the schedule covers
  // exactly them.
  if (params_.faults.enabled()) {
    util::Rng fault_rng = rng.split(0xfa17);
    std::vector<Asn> rov_ases;
    rov_ases.reserve(deployments_.size());
    for (const RovDeployment& d : deployments_) rov_ases.push_back(d.asn);
    std::sort(rov_ases.begin(), rov_ases.end());
    rov_ases.erase(std::unique(rov_ases.begin(), rov_ases.end()),
                   rov_ases.end());
    fault_chain_ = std::make_unique<faults::FaultChain>(
        faults::FaultSchedule::build(params_.faults, std::move(rov_ases),
                                     params_.start, params_.end, fault_rng));
  }

  std::stable_sort(policy_events_.begin(), policy_events_.end(),
                   [](const PolicyEvent& a, const PolicyEvent& b) {
                     return a.date < b.date;
                   });
  std::stable_sort(announce_events_.begin(), announce_events_.end(),
                   [](const AnnouncementEvent& a, const AnnouncementEvent& b) {
                     return a.date < b.date;
                   });
  std::stable_sort(relationship_events_.begin(), relationship_events_.end(),
                   [](const RelationshipEvent& a, const RelationshipEvent& b) {
                     return a.date < b.date;
                   });

  advance_to(params_.start);
}

void Scenario::advance_to(Date date) {
  advance(date,
          [](bgp::RoutingSystem& routing, const rpki::VrpSet&,
             rpki::VrpSet next) { routing.set_vrps(std::move(next)); },
          false);
}

AdvanceStats Scenario::advance_to(Date date, const VrpInstaller& installer) {
  return advance(date, installer, true);
}

AdvanceStats Scenario::advance(Date date, const VrpInstaller& installer,
                               bool may_skip_rp) {
  assert(date >= current_);
  AdvanceStats stats;
  while (policy_applied_ < policy_events_.size() &&
         policy_events_[policy_applied_].date <= date) {
    const PolicyEvent& ev = policy_events_[policy_applied_++];
    routing_->set_policy(ev.asn, ev.policy);
    ++stats.policy_events;
  }
  while (announce_applied_ < announce_events_.size() &&
         announce_events_[announce_applied_].date <= date) {
    const AnnouncementEvent& ev = announce_events_[announce_applied_++];
    if (ev.add) {
      routing_->announce(ev.announcement);
    } else {
      routing_->withdraw(ev.announcement);
    }
    ++stats.announce_events;
  }
  while (relationship_applied_ < relationship_events_.size() &&
         relationship_events_[relationship_applied_].date <= date) {
    const RelationshipEvent& ev =
        relationship_events_[relationship_applied_++];
    graph_.set_relationship(ev.a, ev.b, ev.kind_of_b);
    routing_->invalidate_all();
    ++stats.relationship_events;
  }
  current_ = date;
  stats.relying_party_skipped = may_skip_rp &&
                                repos_->generation() == rp_generation_ &&
                                date < rp_stable_until_;
  if (!stats.relying_party_skipped) {
    rpki::ValidationRun run = rpki::run_relying_party(*repos_, date);
    installer(*routing_, vrps_, run.vrps);
    vrps_ = std::move(run.vrps);
    rp_generation_ = repos_->generation();
    rp_stable_until_ = run.stable_until;
  }
  if (fault_chain_ != nullptr) {
    // After the install: set_effective_views probes old-view vs new-view
    // against the *new* base, relying on the installer having already
    // erased every base-validity flip from the route cache.
    faults::EffectiveViews views =
        fault_chain_->compute(*repos_, date, vrps_);
    degradation_ = views.stats;
    effective_views_digest_ = faults::views_digest(views);
    routing_->set_effective_views(std::move(views.views),
                                  std::move(views.bindings));
  }
  return stats;
}

bgp::RovMode Scenario::true_mode(Asn asn, Date date) const {
  for (const RovDeployment& d : deployments_) {
    if (d.asn == asn && d.enabled <= date) return d.mode;
  }
  return bgp::RovMode::kNone;
}

std::vector<Asn> Scenario::rov_reference_ases(Date date,
                                              std::size_t count) const {
  std::vector<Asn> out;
  for (const RovDeployment& d : deployments_) {
    if (d.enabled <= date && d.mode == bgp::RovMode::kFull &&
        d.session_coverage >= 1.0) {
      out.push_back(d.asn);
      if (out.size() >= count) break;
    }
  }
  return out;
}

std::vector<Asn> Scenario::non_rov_reference_ases(Date date,
                                                  std::size_t count) const {
  // References must be *known to reach invalid space broadly*, not
  // merely non-deploying — a stub that only sees one gray transit's
  // subtree (or whose providers all filter) would wrongly condemn
  // tNodes it simply has no path to. The paper picked its references
  // through operator communication for exactly this reason; here the
  // equivalently-confirmed anchors are the ASes homed under (almost)
  // every gray transit: the measurement clients and any multi-gray
  // customer.
  (void)date;
  std::vector<Asn> out = {client_as_a_, client_as_b_};
  std::unordered_map<Asn, std::size_t> gray_links;
  for (const Asn gray : gray_transits_) {
    for (const Asn customer : graph_.customers(gray)) {
      ++gray_links[customer];
    }
  }
  for (const auto& [asn, links] : gray_links) {
    if (out.size() >= count) break;
    if (links + 1 >= gray_transits_.size() &&
        true_mode(asn, date) == bgp::RovMode::kNone &&
        std::find(out.begin(), out.end(), asn) == out.end()) {
      out.push_back(asn);
    }
  }
  if (out.size() > count) out.resize(count);
  return out;
}

void Scenario::build_topology(util::Rng& rng) {
  util::Rng topo_rng = rng.split(0x7090);
  if (params_.topology.caida_path.empty()) {
    graph_ = topology::generate_topology(params_.topology, topo_rng);
  } else {
    topology::CaidaResult loaded =
        topology::load_caida_file(params_.topology.caida_path);
    if (!loaded.ok) {
      throw std::runtime_error("caida topology '" + params_.topology.caida_path +
                               "': " + loaded.error);
    }
    graph_ = std::move(loaded.graph);
  }

  // Address plan + fixture-ASN watermark. Generated worlds have
  // contiguous ASNs from first_asn, so both reduce to the historical
  // arithmetic (index = asn - first_asn, next = first_asn + |ASes|) and
  // stay byte-identical; loaded worlds get insertion-order slots and
  // allocate fixtures above the highest real ASN.
  Asn max_asn = 0;
  for (const Asn asn : graph_.all_asns()) {
    index_new_as(asn);
    max_asn = std::max(max_asn, asn);
  }
  next_fixture_asn_ = std::max<Asn>(
      max_asn + 1, params_.topology.first_asn +
                       static_cast<Asn>(graph_.all_asns().size()));

  // Two measurement-client ASes, multihomed to tier-2 transits that the
  // ROV timeline will be told to leave alone (the clients must keep
  // reaching RPKI-invalid prefixes, like the paper's own deployment).
  std::vector<Asn> tier2;
  for (const Asn asn : graph_.all_asns()) {
    if (graph_.info(asn)->tier == 2) tier2.push_back(asn);
  }
  if (tier2.size() < 4) {
    throw std::runtime_error(util::format(
        "topology: %zu tier-2 transit ASes, need >= 4 for the "
        "gray-transit measurement anchors",
        tier2.size()));
  }

  client_as_a_ = allocate_as("measurement-client-a", 4, topology::Rir::kArin);
  client_as_b_ = allocate_as("measurement-client-b", 4, topology::Rir::kArin);

  // The "gray" transits: never-ROV tier-2s that also aggregate the
  // invalid-announcing ASes, keeping the side channel measurable.
  for (int i = 0; i < 4; ++i) {
    const Asn gray = tier2[static_cast<std::size_t>(i) * (tier2.size() / 4)];
    graph_.add_p2c(gray, client_as_a_);
    graph_.add_p2c(gray, client_as_b_);
    gray_transits_.push_back(gray);
  }
  // Deliberately NOT meshing the gray transits together: each invalid
  // prefix should propagate through its own (partially overlapping)
  // subtree, so remote ASes reach different subsets of tNodes — the
  // partial-score middle of Fig. 5. The clients are customers of every
  // gray transit, so their own reach is unaffected.

  client_addr_a_ = net::Ipv4Address(as_prefix(client_as_a_).address().value() + 10);
  client_addr_b_ = net::Ipv4Address(as_prefix(client_as_b_).address().value() + 10);
}

Asn Scenario::allocate_as(const std::string& name, int tier,
                          topology::Rir rir) {
  const Asn asn = next_fixture_asn_++;
  topology::AsInfo info;
  info.asn = asn;
  info.name = name;
  info.rir = rir;
  info.country = "US";
  info.tier = tier;
  graph_.add_as(info);
  index_new_as(asn);
  return asn;
}

void Scenario::register_as_resources(Asn asn, std::optional<Date> roa_date) {
  const net::Ipv4Prefix prefix = as_prefix(asn);
  const net::Ipv4Prefix dark = as_dark_prefix(asn);
  routing_->announce({prefix, asn});  // the dark block is never announced

  const topology::AsInfo* info = graph_.info(asn);
  rpki::Repository& repo = repos_->repository(info->rir);
  rpki::ResourceSet resources;
  resources.prefixes.push_back(prefix);
  resources.prefixes.push_back(dark);
  resources.asns.push_back(asn);
  const auto serial = repo.issue_certificate(
      info->name, std::move(resources), params_.start - kTenYears,
      params_.end + kTenYears);
  assert(serial.has_value());
  cert_serial_[asn] = *serial;

  if (roa_date.has_value()) {
    repo.publish_roa(*serial, asn,
                     {{prefix, prefix.length()}, {dark, dark.length()}},
                     *roa_date, params_.end + kTenYears);
    roa_date_[asn] = *roa_date;
  }
}

void Scenario::build_rpki(util::Rng& rng) {
  util::Rng rpki_rng = rng.split(0x49c1);
  const std::int64_t window_days = params_.end - params_.start;

  for (const Asn asn : graph_.all_asns()) {
    // ROA adoption: a `roa_fraction_start` slice pre-dates the window;
    // growth to `roa_fraction_end` is spread uniformly across it.
    std::optional<Date> roa_date;
    const double u = rpki_rng.uniform01();
    if (u < params_.roa_fraction_start) {
      roa_date = params_.start -
                 static_cast<std::int64_t>(rpki_rng.uniform_u64(1, 600));
    } else if (u < params_.roa_fraction_end) {
      const double frac = (u - params_.roa_fraction_start) /
                          (params_.roa_fraction_end -
                           params_.roa_fraction_start);
      roa_date = params_.start +
                 static_cast<std::int64_t>(frac *
                                           static_cast<double>(window_days));
    }
    register_as_resources(asn, roa_date);
  }
}

void Scenario::build_rov_timeline(util::Rng& rng) {
  util::Rng rov_rng = rng.split(0x20b7);
  const std::int64_t window_days = params_.end - params_.start;

  for (const Asn asn : graph_.all_asns()) {
    if (asn == client_as_a_ || asn == client_as_b_) continue;
    if (std::find(gray_transits_.begin(), gray_transits_.end(), asn) !=
        gray_transits_.end()) {
      continue;  // gray transits never deploy (clients depend on them)
    }
    const int tier = graph_.info(asn)->tier;
    double p_end = params_.rov_end_stub;
    if (tier == 1) p_end = params_.rov_end_tier1;
    if (tier == 2) p_end = params_.rov_end_tier2;
    if (tier == 3) p_end = params_.rov_end_tier3;
    if (!rov_rng.bernoulli(p_end)) continue;

    // Half of the eventual deployers were already filtering at the
    // window start; the rest enable at a uniform date inside it.
    Date enabled;
    if (rov_rng.bernoulli(0.5)) {
      enabled = params_.start -
                static_cast<std::int64_t>(rov_rng.uniform_u64(1, 400));
    } else {
      enabled = params_.start + static_cast<std::int64_t>(rov_rng.uniform_u64(
                                    1, static_cast<std::uint64_t>(
                                           window_days > 1 ? window_days - 1
                                                           : 1)));
    }

    bgp::AsPolicy policy;
    policy.rov = bgp::RovMode::kFull;
    if (rov_rng.bernoulli(params_.exempt_customers_fraction)) {
      policy.rov = bgp::RovMode::kExemptCustomers;
    } else if (rov_rng.bernoulli(params_.prefer_valid_fraction)) {
      policy.rov = bgp::RovMode::kPreferValid;
    }
    policy_events_.push_back({enabled, asn, policy});
    deployments_.push_back(
        {asn, enabled, policy.rov, policy.session_coverage});
  }

}

void Scenario::build_invalid_announcements(util::Rng& rng) {
  util::Rng inv_rng = rng.split(0x14a1);

  // Victims: ASes whose ROA predates the window (so invalidity holds for
  // every snapshot). Attackers: any other AS, re-homed under a gray
  // transit so the invalid announcement keeps propagating to clients.
  std::vector<Asn> victims;
  for (const auto& [asn, date] : roa_date_) {
    if (date <= params_.start) victims.push_back(asn);
  }
  std::sort(victims.begin(), victims.end());
  assert(victims.size() >
         static_cast<std::size_t>(params_.tnode_prefix_count));

  const std::vector<Asn> all = graph_.all_asns();
  const auto pick_attacker = [&](Asn victim) {
    for (int tries = 0; tries < 64; ++tries) {
      const Asn a = all[inv_rng.index(all.size())];
      if (a != victim && a != client_as_a_ && a != client_as_b_ &&
          graph_.info(a)->tier >= 3) {
        return a;
      }
    }
    return all.back();
  };

  for (int i = 0; i < params_.tnode_prefix_count; ++i) {
    const Asn victim = victims[inv_rng.index(victims.size())];
    const Asn attacker = pick_attacker(victim);
    const std::uint32_t block =
        static_cast<std::uint32_t>(inv_rng.uniform_u64(16, 255));
    // Carved from the victim's ROA-covered but unannounced dark block:
    // the invalid /24 is the only route to these addresses.
    const net::Ipv4Prefix invalid(
        net::Ipv4Address(as_dark_prefix(victim).address().value() |
                         (block << 8)),
        24);
    // Re-home the attacker under one gray transit (keeps the clients'
    // reach) plus one random tier-2: each invalid prefix then propagates
    // through its own subtree, so different ASes reach different subsets
    // of tNodes — the source of the paper's large partial-score middle.
    const std::size_t g = static_cast<std::size_t>(i);
    graph_.add_p2c(gray_transits_[g % gray_transits_.size()], attacker);
    std::vector<Asn> tier2s;
    for (const Asn a : all) {
      if (graph_.info(a)->tier == 2) tier2s.push_back(a);
    }
    graph_.add_p2c(tier2s[inv_rng.index(tier2s.size())], attacker);
    announce_events_.push_back(
        {params_.start - 1, true, {invalid, attacker}});
    tnode_prefixes_.push_back({invalid, attacker});
  }

  // Non-exclusive invalids: the attacker also announces the victim's own
  // /16 (MOAS) — invalid announcements, but the victim's valid route
  // still exists, so these must NOT become test prefixes.
  for (int i = 0; i < params_.moas_invalid_count; ++i) {
    const Asn victim = victims[inv_rng.index(victims.size())];
    const Asn attacker = pick_attacker(victim);
    announce_events_.push_back(
        {params_.start - 1, true, {as_prefix(victim), attacker}});
  }

  // The 2022 surge (Fig. 1): two ASes leak a batch of invalid /24s
  // between May 27 and August 3, 2022 — if the window covers those dates.
  const Date surge_start = Date::from_ymd(2022, 5, 27);
  const Date surge_end = Date::from_ymd(2022, 8, 3);
  if (surge_start >= params_.start && surge_end <= params_.end) {
    const Asn leak_a = pick_attacker(0);
    const Asn leak_b = pick_attacker(leak_a);
    for (int i = 0; i < params_.surge_invalid_count; ++i) {
      const Asn victim = victims[inv_rng.index(victims.size())];
      const std::uint32_t block =
          static_cast<std::uint32_t>(inv_rng.uniform_u64(16, 255));
      const net::Ipv4Prefix invalid(
          net::Ipv4Address(as_dark_prefix(victim).address().value() |
                           (block << 8)),
          24);
      const Asn leaker = (i % 2 == 0) ? leak_a : leak_b;
      announce_events_.push_back({surge_start, true, {invalid, leaker}});
      announce_events_.push_back({surge_end, false, {invalid, leaker}});
    }
  }
}

void Scenario::build_hosts(util::Rng& rng) {
  util::Rng host_rng = rng.split(0x805701);

  // Measured ASes: the case-study fixtures first (they must be scored),
  // then a deterministic sample mixing tiers.
  std::vector<Asn> pool = graph_.all_asns();
  host_rng.shuffle(pool);
  for (const Asn asn : pool) {
    if (static_cast<int>(measured_ases_.size()) >=
        params_.measured_as_count) {
      break;
    }
    if (asn == client_as_a_ || asn == client_as_b_) continue;
    if (std::find(measured_ases_.begin(), measured_ases_.end(), asn) !=
        measured_ases_.end()) {
      continue;
    }
    measured_ases_.push_back(asn);
  }

  for (const Asn asn : measured_ases_) {
    const bool reliable =
        std::find(fixture_reliable_.begin(), fixture_reliable_.end(), asn) !=
        fixture_reliable_.end();
    const std::uint32_t base = as_prefix(asn).address().value();
    for (int i = 0; i < params_.hosts_per_measured_as; ++i) {
      dataplane::HostConfig config;
      config.address = net::Ipv4Address(base + 0x100 +
                                        static_cast<std::uint32_t>(i));
      config.seed = host_rng();
      config.initial_ipid =
          static_cast<std::uint16_t>(host_rng.uniform_u64(0, 0xffff));

      if (reliable) {
        // Case-study ASes get guaranteed-measurable hosts so each one
        // produces a complete score series.
        config.ipid_policy = dataplane::IpIdPolicy::kGlobal;
        config.background.base_rate = 2.0 + static_cast<double>(i);
        if (host_rng.bernoulli(0.4)) config.open_ports = {80};
        if (plane_->add_host(asn, config) != nullptr) {
          vvp_candidates_.push_back(config.address);
        }
        continue;
      }

      if (host_rng.bernoulli(params_.global_ipid_fraction)) {
        config.ipid_policy = dataplane::IpIdPolicy::kGlobal;
      } else {
        const double u = host_rng.uniform01();
        config.ipid_policy = u < 0.55 ? dataplane::IpIdPolicy::kPerDestination
                             : u < 0.9 ? dataplane::IpIdPolicy::kRandom
                                       : dataplane::IpIdPolicy::kZero;
      }

      config.background.base_rate =
          host_rng.pareto(params_.background_pareto_xm,
                          params_.background_pareto_alpha);
      if (config.background.base_rate > 500.0) {
        config.background.base_rate = 500.0;
      }
      if (host_rng.bernoulli(params_.nonstationary_traffic_fraction)) {
        if (host_rng.bernoulli(0.5)) {
          config.background.kind = dataplane::TrafficModel::Kind::kTrend;
          config.background.trend_per_sec =
              config.background.base_rate * 0.01;
        } else {
          config.background.kind = dataplane::TrafficModel::Kind::kSeasonal;
          config.background.season_amplitude =
              config.background.base_rate * 0.4;
          config.background.season_period_s = 30.0;
        }
      }
      if (host_rng.bernoulli(0.4)) config.open_ports = {80};

      if (plane_->add_host(asn, config) != nullptr) {
        vvp_candidates_.push_back(config.address);
      }
    }
  }

  // tNode hosts inside the exclusively-invalid prefixes, homed at the
  // announcing (wrong-origin) AS. Well-behaved TCP stacks qualify; one
  // deviant host per third prefix exercises the §4.1 rejections.
  int deviant = 0;
  for (const auto& [prefix, attacker] : tnode_prefixes_) {
    for (int j = 0; j < params_.tnode_hosts_per_prefix; ++j) {
      dataplane::HostConfig config;
      config.address = net::Ipv4Address(prefix.address().value() + 10 +
                                        static_cast<std::uint32_t>(j));
      config.open_ports = {80, 443};
      config.ipid_policy = dataplane::IpIdPolicy::kPerDestination;
      config.background.base_rate = 0.0;
      config.rto_seconds = 3.0;
      config.max_retransmits = 1;
      config.seed = host_rng();
      plane_->add_host(attacker, config);
    }
    if (++deviant % 3 == 0) {
      dataplane::HostConfig bad;
      bad.address = net::Ipv4Address(prefix.address().value() + 200);
      bad.open_ports = {80};
      bad.seed = host_rng();
      if (deviant % 2 == 0) {
        bad.implements_rto = false;  // fails condition (b)
      } else {
        bad.retransmit_after_rst = true;  // fails condition (c)
      }
      plane_->add_host(attacker, bad);
    }
  }
}

void Scenario::build_slurm_exceptions(util::Rng& rng) {
  // A slice of ROV deployers carries RFC 8416 local exceptions scoped to
  // the exclusively-invalid (tNode) prefixes — the §7.1 operators who
  // filter in general yet accept specific invalid routes. Exceptions are
  // attached to the existing enablement events (no new events, no date
  // changes), so the timeline shape is untouched.
  if (tnode_prefixes_.empty()) return;
  for (PolicyEvent& ev : policy_events_) {
    if (ev.policy.rov == bgp::RovMode::kNone) continue;
    if (ev.asn == client_as_a_ || ev.asn == client_as_b_) continue;
    if (!rng.bernoulli(params_.slurm_fraction)) continue;

    const std::uint64_t pick = rng();
    const auto& [invalid, attacker] =
        tnode_prefixes_[pick % tnode_prefixes_.size()];
    // The victim's dark /16 the invalid /24 was carved from: filtering it
    // drops the covering ROA VRPs, turning the invalid route Unknown.
    const net::Ipv4Prefix dark(invalid.address(), 16);
    switch (pick % 3) {
      case 0:
        ev.policy.slurm.filters.push_back({dark, std::nullopt});
        break;
      case 1:
        // Locally trusted VRP for the wrong-origin announcement: the
        // invalid route becomes Valid in this operator's view.
        ev.policy.slurm.assertions.push_back(
            {invalid, invalid.length(), attacker});
        break;
      default:
        ev.policy.slurm.filters.push_back({dark, std::nullopt});
        ev.policy.slurm.assertions.push_back(
            {invalid, invalid.length(), attacker});
        break;
    }
  }
}

void Scenario::build_operator_claims() {
  // Operator claims for the Table 2/3 cross-validation. Claims only
  // exist where the world can check them: operators whose networks
  // RoVista measures (the paper's Table 2 likewise lists the ASes its
  // scans captured). Fixture claims were added by install_case_studies.
  std::size_t claimed = 0;
  for (const Asn asn : measured_ases_) {
    if (claimed >= 25) break;
    if (std::any_of(claims_.begin(), claims_.end(),
                    [&](const OperatorClaim& c) { return c.asn == asn; })) {
      continue;
    }
    const bgp::RovMode mode = true_mode(asn, params_.end);
    if (mode == bgp::RovMode::kFull) {
      claims_.push_back({asn, true, false, "official-announcement"});
      ++claimed;
    }
  }
  std::size_t non_claims = 0;
  for (const Asn asn : measured_ases_) {
    if (non_claims >= 2) break;
    if (true_mode(asn, params_.end) == bgp::RovMode::kNone &&
        std::none_of(claims_.begin(), claims_.end(),
                     [&](const OperatorClaim& c) { return c.asn == asn; })) {
      claims_.push_back({asn, false, false, "official-announcement"});
      ++non_claims;
    }
  }
}

void Scenario::build_collector(util::Rng& rng) {
  util::Rng col_rng = rng.split(0xc01e);
  std::vector<Asn> peers;
  std::vector<Asn> pool = graph_.all_asns();
  col_rng.shuffle(pool);
  for (const Asn asn : pool) {
    if (static_cast<int>(peers.size()) >= params_.collector_peer_count) break;
    if (graph_.info(asn)->tier <= 3) peers.push_back(asn);
  }
  collector_ = std::make_unique<bgp::Collector>("route-views", peers);
}

}  // namespace rovista::scenario
