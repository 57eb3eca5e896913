// Tests for src/bgp: Gao–Rexford policy rules, the propagation engine,
// ROV filtering modes, collectors, and valley-free path properties.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "bgp/collector.h"
#include "bgp/policy.h"
#include "bgp/routing_system.h"
#include "incremental/dirty_prefix.h"
#include "incremental/vrp_delta.h"
#include "topology/generator.h"
#include "util/rng.h"

namespace {

using namespace rovista::bgp;
using rovista::net::Ipv4Address;
using rovista::net::Ipv4Prefix;
using rovista::rpki::RouteValidity;
using rovista::rpki::Vrp;
using rovista::rpki::VrpSet;
using rovista::topology::AsGraph;
using rovista::topology::NeighborKind;
using rovista::util::Rng;

Ipv4Prefix pfx(const char* s) { return *Ipv4Prefix::parse(s); }

// Line: 1 -p2c-> 2 -p2c-> 3; plus peer 2--4, provider 5 of 2.
AsGraph line_graph() {
  AsGraph g;
  for (rovista::topology::Asn a : {1u, 2u, 3u, 4u, 5u}) g.add_as({a, ""});
  g.add_p2c(1, 2);
  g.add_p2c(2, 3);
  g.add_p2p(2, 4);
  g.add_p2c(5, 2);
  return g;
}

// ---------- policy primitives ----------

TEST(Policy, ExportRules) {
  // Customer-learned routes go everywhere.
  EXPECT_TRUE(exports_to(NeighborKind::kCustomer, NeighborKind::kProvider));
  EXPECT_TRUE(exports_to(NeighborKind::kCustomer, NeighborKind::kPeer));
  EXPECT_TRUE(exports_to(NeighborKind::kCustomer, NeighborKind::kCustomer));
  // Peer/provider-learned routes go only to customers.
  EXPECT_FALSE(exports_to(NeighborKind::kPeer, NeighborKind::kPeer));
  EXPECT_FALSE(exports_to(NeighborKind::kPeer, NeighborKind::kProvider));
  EXPECT_TRUE(exports_to(NeighborKind::kPeer, NeighborKind::kCustomer));
  EXPECT_FALSE(exports_to(NeighborKind::kProvider, NeighborKind::kPeer));
  EXPECT_TRUE(exports_to(NeighborKind::kProvider, NeighborKind::kCustomer));
}

TEST(Policy, PreferenceOrder) {
  AsPolicy policy;
  Route customer;
  customer.as_path = {9, 8, 7, 6};
  customer.learned_from = NeighborKind::kCustomer;
  Route peer;
  peer.as_path = {9, 5, 6};
  peer.learned_from = NeighborKind::kPeer;
  Route provider;
  provider.as_path = {9, 4};
  provider.learned_from = NeighborKind::kProvider;

  // Relationship dominates path length.
  EXPECT_TRUE(prefer_route(policy, customer, peer));
  EXPECT_TRUE(prefer_route(policy, peer, provider));
  EXPECT_FALSE(prefer_route(policy, provider, customer));

  // Same relationship: shorter path wins.
  Route peer_short = peer;
  peer_short.as_path = {9, 6};
  EXPECT_TRUE(prefer_route(policy, peer_short, peer));

  // Same length: lower next hop wins.
  Route peer_b = peer;
  peer_b.as_path = {9, 3, 6};
  EXPECT_TRUE(prefer_route(policy, peer_b, peer));
}

TEST(Policy, PreferValidRanksValidityFirst) {
  AsPolicy policy;
  policy.rov = RovMode::kPreferValid;
  Route invalid_customer;
  invalid_customer.as_path = {9, 8};
  invalid_customer.learned_from = NeighborKind::kCustomer;
  invalid_customer.validity = RouteValidity::kInvalid;
  Route valid_provider;
  valid_provider.as_path = {9, 4, 5, 6};
  valid_provider.learned_from = NeighborKind::kProvider;
  valid_provider.validity = RouteValidity::kValid;
  EXPECT_TRUE(prefer_route(policy, valid_provider, invalid_customer));
  // Without prefer-valid the customer route wins.
  policy.rov = RovMode::kFull;
  EXPECT_FALSE(prefer_route(policy, valid_provider, invalid_customer));
}

TEST(Policy, SessionCoverageDeterministicAndProportional) {
  const Ipv4Prefix p = pfx("10.0.0.0/16");
  EXPECT_TRUE(session_is_rov_capable(1, 2, p, 1.0));
  EXPECT_FALSE(session_is_rov_capable(1, 2, p, 0.0));
  // Deterministic.
  const bool first = session_is_rov_capable(1, 2, p, 0.5);
  EXPECT_EQ(session_is_rov_capable(1, 2, p, 0.5), first);
  // Roughly proportional across prefixes.
  int capable = 0;
  for (std::uint32_t i = 0; i < 1000; ++i) {
    const Ipv4Prefix q(Ipv4Address(i << 16), 16);
    capable += session_is_rov_capable(7, 8, q, 0.7);
  }
  EXPECT_NEAR(capable / 1000.0, 0.7, 0.06);
}

TEST(Policy, RovAcceptsMatrix) {
  const Ipv4Prefix p = pfx("10.0.0.0/16");
  AsPolicy none;
  EXPECT_TRUE(rov_accepts(none, 1, 2, p, NeighborKind::kProvider,
                          RouteValidity::kInvalid));
  AsPolicy full;
  full.rov = RovMode::kFull;
  EXPECT_FALSE(rov_accepts(full, 1, 2, p, NeighborKind::kCustomer,
                           RouteValidity::kInvalid));
  EXPECT_TRUE(rov_accepts(full, 1, 2, p, NeighborKind::kProvider,
                          RouteValidity::kValid));
  EXPECT_TRUE(rov_accepts(full, 1, 2, p, NeighborKind::kProvider,
                          RouteValidity::kUnknown));
  AsPolicy exempt;
  exempt.rov = RovMode::kExemptCustomers;
  EXPECT_TRUE(rov_accepts(exempt, 1, 2, p, NeighborKind::kCustomer,
                          RouteValidity::kInvalid));
  EXPECT_FALSE(rov_accepts(exempt, 1, 2, p, NeighborKind::kPeer,
                           RouteValidity::kInvalid));
  AsPolicy prefer;
  prefer.rov = RovMode::kPreferValid;
  EXPECT_TRUE(rov_accepts(prefer, 1, 2, p, NeighborKind::kPeer,
                          RouteValidity::kInvalid));
}

// ---------- propagation ----------

TEST(Routing, PropagatesToEveryoneOnLine) {
  const AsGraph g = line_graph();
  RoutingSystem routing(g);
  routing.announce({pfx("10.3.0.0/16"), 3});
  const RouteMap& routes = routing.routes_for(pfx("10.3.0.0/16"));
  // Customer route from 3 goes up to 2, then to 1, 4, 5 (customer
  // routes export everywhere).
  EXPECT_EQ(routes.size(), 5u);
  EXPECT_EQ(routes.at(3).next_hop, 0u);
  EXPECT_EQ(routes.at(2).next_hop, 3u);
  EXPECT_EQ(routes.at(1).next_hop, 2u);
  EXPECT_EQ(routes.at(4).next_hop, 2u);
  EXPECT_EQ(routes.at(5).next_hop, 2u);
}

TEST(Routing, ValleyFreeBlocksPeerToProvider) {
  // Prefix originated at peer 4: 2 learns it via peer, must NOT export
  // to provider 1 or 5, only to customer 3.
  const AsGraph g = line_graph();
  RoutingSystem routing(g);
  routing.announce({pfx("10.4.0.0/16"), 4});
  const RouteMap& routes = routing.routes_for(pfx("10.4.0.0/16"));
  EXPECT_TRUE(routes.contains(4));
  EXPECT_TRUE(routes.contains(2));
  EXPECT_TRUE(routes.contains(3));
  EXPECT_FALSE(routes.contains(1));
  EXPECT_FALSE(routes.contains(5));
}

TEST(Routing, PrefersCustomerOverPeerRoute) {
  // 2 can reach a prefix both via customer 3 and peer 4: picks customer.
  AsGraph g;
  for (rovista::topology::Asn a : {2u, 3u, 4u, 6u}) g.add_as({a, ""});
  g.add_p2c(2, 3);
  g.add_p2p(2, 4);
  g.add_p2c(3, 6);
  g.add_p2c(4, 6);
  RoutingSystem routing(g);
  routing.announce({pfx("10.6.0.0/16"), 6});
  const RouteMap& routes = routing.routes_for(pfx("10.6.0.0/16"));
  EXPECT_EQ(routes.at(2).next_hop, 3u);
  EXPECT_EQ(routes.at(2).learned_from, NeighborKind::kCustomer);
}

TEST(Routing, AsPathReconstruction) {
  const AsGraph g = line_graph();
  RoutingSystem routing(g);
  routing.announce({pfx("10.3.0.0/16"), 3});
  const auto path = routing.as_path(1, pfx("10.3.0.0/16"));
  EXPECT_EQ(path, (std::vector<rovista::topology::Asn>{1, 2, 3}));
  EXPECT_TRUE(routing.as_path(99, pfx("10.3.0.0/16")).empty());
}

TEST(Routing, RovFullFiltersInvalid) {
  const AsGraph g = line_graph();
  RoutingSystem routing(g);
  VrpSet vrps;
  vrps.add({pfx("10.3.0.0/16"), 16, 99});  // 3 is the wrong origin
  routing.set_vrps(std::move(vrps));
  AsPolicy full;
  full.rov = RovMode::kFull;
  routing.set_policy(2, full);
  routing.announce({pfx("10.3.0.0/16"), 3});

  const RouteMap& routes = routing.routes_for(pfx("10.3.0.0/16"));
  EXPECT_TRUE(routes.contains(3));   // origin keeps its own route
  EXPECT_FALSE(routes.contains(2));  // filtered at import
  EXPECT_FALSE(routes.contains(1));  // and therefore never propagated
}

TEST(Routing, ExemptCustomersAcceptsFromCustomerOnly) {
  const AsGraph g = line_graph();
  RoutingSystem routing(g);
  VrpSet vrps;
  vrps.add({pfx("10.3.0.0/16"), 16, 99});
  vrps.add({pfx("10.4.0.0/16"), 16, 99});
  routing.set_vrps(std::move(vrps));
  AsPolicy exempt;
  exempt.rov = RovMode::kExemptCustomers;
  routing.set_policy(2, exempt);
  routing.announce({pfx("10.3.0.0/16"), 3});  // from customer 3
  routing.announce({pfx("10.4.0.0/16"), 4});  // from peer 4

  EXPECT_TRUE(routing.routes_for(pfx("10.3.0.0/16")).contains(2));
  EXPECT_FALSE(routing.routes_for(pfx("10.4.0.0/16")).contains(2));
}

TEST(Routing, PreferValidSelectsValidOverInvalidMoas) {
  // MOAS: 3 (invalid origin) and 4 (valid origin) announce the same
  // prefix; prefer-valid at 2 must choose the peer's valid route over
  // the customer's invalid one.
  const AsGraph g = line_graph();
  RoutingSystem routing(g);
  VrpSet vrps;
  vrps.add({pfx("10.9.0.0/16"), 16, 4});
  routing.set_vrps(std::move(vrps));
  AsPolicy prefer;
  prefer.rov = RovMode::kPreferValid;
  routing.set_policy(2, prefer);
  routing.announce({pfx("10.9.0.0/16"), 3});
  routing.announce({pfx("10.9.0.0/16"), 4});

  const RouteMap& routes = routing.routes_for(pfx("10.9.0.0/16"));
  EXPECT_EQ(routes.at(2).origin, 4u);
  EXPECT_EQ(routes.at(2).validity, RouteValidity::kValid);
}

TEST(Routing, WithdrawRemovesRoutes) {
  const AsGraph g = line_graph();
  RoutingSystem routing(g);
  routing.announce({pfx("10.3.0.0/16"), 3});
  EXPECT_EQ(routing.routes_for(pfx("10.3.0.0/16")).size(), 5u);
  EXPECT_TRUE(routing.withdraw({pfx("10.3.0.0/16"), 3}));
  EXPECT_TRUE(routing.routes_for(pfx("10.3.0.0/16")).empty());
  EXPECT_FALSE(routing.withdraw({pfx("10.3.0.0/16"), 3}));
}

TEST(Routing, PolicyChangeInvalidatesOnlyRovSensitivePrefixes) {
  const AsGraph g = line_graph();
  RoutingSystem routing(g);
  VrpSet vrps;
  vrps.add({pfx("10.3.0.0/16"), 16, 99});  // makes 3's announcement invalid
  routing.set_vrps(std::move(vrps));
  routing.announce({pfx("10.3.0.0/16"), 3});
  routing.announce({pfx("10.4.0.0/16"), 4});  // unknown validity

  (void)routing.routes_for(pfx("10.3.0.0/16"));
  (void)routing.routes_for(pfx("10.4.0.0/16"));
  EXPECT_EQ(routing.cached_prefixes(), 2u);

  AsPolicy full;
  full.rov = RovMode::kFull;
  routing.set_policy(2, full);
  // Only the invalid prefix should have been dropped from the cache.
  EXPECT_EQ(routing.cached_prefixes(), 1u);
  EXPECT_FALSE(routing.routes_for(pfx("10.3.0.0/16")).contains(1));
}

TEST(Routing, CandidatePrefixesMostSpecificFirst) {
  const AsGraph g = line_graph();
  RoutingSystem routing(g);
  routing.announce({pfx("10.0.0.0/8"), 3});
  routing.announce({pfx("10.1.0.0/16"), 4});
  const auto candidates =
      routing.candidate_prefixes(*Ipv4Address::parse("10.1.2.3"));
  ASSERT_EQ(candidates.size(), 2u);
  EXPECT_EQ(candidates[0].length(), 16);
  EXPECT_EQ(candidates[1].length(), 8);
}

TEST(Routing, SlurmGivesPerAsValidityView) {
  const AsGraph g = line_graph();
  RoutingSystem routing(g);
  VrpSet vrps;
  vrps.add({pfx("10.3.0.0/16"), 16, 99});
  routing.set_vrps(std::move(vrps));

  AsPolicy with_slurm;
  with_slurm.rov = RovMode::kFull;
  with_slurm.slurm.assertions.push_back({pfx("10.3.0.0/16"), 16, 3});
  routing.set_policy(2, with_slurm);
  routing.announce({pfx("10.3.0.0/16"), 3});

  // Base view says invalid; AS 2's SLURM-adjusted view says valid.
  EXPECT_EQ(routing.base_validity(pfx("10.3.0.0/16"), 3),
            RouteValidity::kInvalid);
  EXPECT_EQ(routing.validity_for(2, pfx("10.3.0.0/16"), 3),
            RouteValidity::kValid);
  // So AS 2 keeps the route despite full ROV.
  EXPECT_TRUE(routing.routes_for(pfx("10.3.0.0/16")).contains(2));
}

TEST(Routing, RovSensitiveIsQueryOrderIndependent) {
  // Regression: rov_sensitive() used to answer from the lazily built
  // SLURM view map, so the same prefix got different answers depending
  // on whether any validity_for() call had warmed a view first.
  const AsGraph g = line_graph();
  RoutingSystem routing(g);
  VrpSet vrps;
  vrps.add({pfx("10.3.0.0/16"), 16, 3});
  routing.set_vrps(std::move(vrps));
  routing.announce({pfx("10.3.0.0/16"), 3});  // valid
  routing.announce({pfx("10.4.0.0/16"), 4});  // unknown

  AsPolicy with_slurm;
  with_slurm.rov = RovMode::kFull;
  with_slurm.slurm.filters.push_back({pfx("10.4.0.0/16"), std::nullopt});
  routing.set_policy(2, with_slurm);

  // Cold: no view materialized yet.
  const bool cold_valid = routing.rov_sensitive(pfx("10.3.0.0/16"));
  const bool cold_unknown = routing.rov_sensitive(pfx("10.4.0.0/16"));
  // Warm AS 2's view, then ask again.
  (void)routing.validity_for(2, pfx("10.3.0.0/16"), 3);
  EXPECT_EQ(routing.slurm_view_count(), 1u);
  EXPECT_EQ(routing.rov_sensitive(pfx("10.3.0.0/16")), cold_valid);
  EXPECT_EQ(routing.rov_sensitive(pfx("10.4.0.0/16")), cold_unknown);
  // With a SLURM policy configured, every prefix is sensitive (local
  // exceptions can flip even Unknown-only validity).
  EXPECT_TRUE(cold_valid);
  EXPECT_TRUE(cold_unknown);

  // Without SLURM, a uniformly valid prefix is insensitive and a mixed/
  // invalid one is not.
  RoutingSystem plain(g);
  VrpSet base;
  base.add({pfx("10.3.0.0/16"), 16, 3});
  plain.set_vrps(std::move(base));
  plain.announce({pfx("10.3.0.0/16"), 3});
  plain.announce({pfx("10.4.0.0/16"), 4});
  EXPECT_FALSE(plain.rov_sensitive(pfx("10.3.0.0/16")));
  EXPECT_FALSE(plain.rov_sensitive(pfx("10.4.0.0/16")));
  plain.announce({pfx("10.3.0.0/16"), 4});  // MOAS: valid + invalid
  EXPECT_TRUE(plain.rov_sensitive(pfx("10.3.0.0/16")));
}

TEST(Routing, SlurmDeltaInstallMatchesFreshWorld) {
  // apply_vrp_delta with SLURM-bearing policies must land on the same
  // routing state a fresh world built on the new VRPs computes, without
  // dropping the whole cache or the materialized views.
  const AsGraph g = line_graph();
  const auto configure = [&](RoutingSystem& r) {
    AsPolicy with_slurm;
    with_slurm.rov = RovMode::kFull;
    with_slurm.slurm.assertions.push_back({pfx("10.3.0.0/16"), 16, 3});
    r.set_policy(2, with_slurm);
    AsPolicy full;
    full.rov = RovMode::kFull;
    r.set_policy(5, full);
    r.announce({pfx("10.3.0.0/16"), 3});
    r.announce({pfx("10.4.0.0/16"), 4});
  };

  VrpSet old_vrps;
  old_vrps.add({pfx("10.3.0.0/16"), 16, 99});  // 3's announcement invalid
  VrpSet new_vrps;  // the VRP is withdrawn: 10.3.0.0/16 becomes unknown

  RoutingSystem tracked(g);
  configure(tracked);
  tracked.set_vrps(old_vrps);
  (void)tracked.routes_for(pfx("10.3.0.0/16"));
  (void)tracked.routes_for(pfx("10.4.0.0/16"));
  ASSERT_EQ(tracked.cached_prefixes(), 2u);
  ASSERT_EQ(tracked.slurm_view_count(), 1u);

  using rovista::incremental::DirtyPrefixTracker;
  using rovista::incremental::VrpDeltaComputer;
  const auto delta = VrpDeltaComputer::diff(old_vrps, new_vrps);
  const DirtyPrefixTracker tracker(delta);
  const auto dirty = tracker.dirty_prefixes(old_vrps, new_vrps, tracked);
  tracked.apply_vrp_delta(new_vrps, dirty, delta.announced, delta.withdrawn);

  // The untouched prefix stayed cached and the view survived — proof the
  // install did not fall back to invalidate_all.
  EXPECT_EQ(tracked.slurm_view_count(), 1u);
  EXPECT_GE(tracked.cached_prefixes(), 1u);

  RoutingSystem fresh(g);
  configure(fresh);
  fresh.set_vrps(new_vrps);
  for (const char* p : {"10.3.0.0/16", "10.4.0.0/16"}) {
    const RouteMap& a = tracked.routes_for(pfx(p));
    const RouteMap& b = fresh.routes_for(pfx(p));
    ASSERT_EQ(a.size(), b.size()) << p;
    for (const auto& [asn, ea] : a) {
      const auto it = b.find(asn);
      ASSERT_NE(it, b.end()) << p << " AS " << asn;
      EXPECT_EQ(ea.next_hop, it->second.next_hop) << p << " AS " << asn;
      EXPECT_EQ(ea.origin, it->second.origin) << p << " AS " << asn;
      EXPECT_EQ(ea.learned_from, it->second.learned_from) << p;
      EXPECT_EQ(ea.validity, it->second.validity) << p << " AS " << asn;
      EXPECT_EQ(ea.path_len, it->second.path_len) << p << " AS " << asn;
    }
  }
  // AS 5 (plain full ROV) regained the now-unknown route; AS 2's
  // asserted view kept it valid throughout.
  EXPECT_TRUE(tracked.routes_for(pfx("10.3.0.0/16")).contains(5));
  EXPECT_EQ(tracked.validity_for(2, pfx("10.3.0.0/16"), 3),
            RouteValidity::kValid);
}

// ---------- collectors ----------

TEST(Collector, SnapshotSeesPeerTables) {
  const AsGraph g = line_graph();
  RoutingSystem routing(g);
  routing.announce({pfx("10.3.0.0/16"), 3});
  Collector collector("rv", {1, 4});
  const CollectorSnapshot snap = collector.snapshot(routing);
  EXPECT_EQ(snap.entries.size(), 2u);
  const auto origins = snap.origins_of(pfx("10.3.0.0/16"));
  ASSERT_EQ(origins.size(), 1u);
  EXPECT_EQ(origins[0], 3u);
}

TEST(Collector, LimitedVisibility) {
  // A peer-originated prefix is invisible to a collector peering only
  // with ASes the route never reaches.
  const AsGraph g = line_graph();
  RoutingSystem routing(g);
  routing.announce({pfx("10.4.0.0/16"), 4});
  Collector collector("rv", {1, 5});
  const CollectorSnapshot snap = collector.snapshot(routing);
  EXPECT_TRUE(snap.entries.empty());
}

TEST(Collector, ClassifySnapshotCountsInvalids) {
  const AsGraph g = line_graph();
  RoutingSystem routing(g);
  VrpSet vrps;
  vrps.add({pfx("10.3.0.0/16"), 16, 99});
  vrps.add({pfx("10.5.0.0/16"), 16, 5});
  routing.announce({pfx("10.3.0.0/16"), 3});   // exclusively invalid
  routing.announce({pfx("10.5.0.0/16"), 5});   // valid
  routing.announce({pfx("10.5.0.0/16"), 3});   // MOAS: invalid origin too
  // Peer 5 must be in the feed set: everywhere else the (invalid)
  // customer-learned route to 10.5/16 wins best-path, so the valid
  // origin would be invisible — exactly the limited-visibility pitfall
  // the paper's §3.2 test-prefix selection has to contend with.
  Collector collector("rv", {1, 2, 4, 5});
  const auto snap = collector.snapshot(routing);
  const auto stats = classify_snapshot(snap, vrps);
  EXPECT_EQ(stats.total_prefixes, 2u);
  EXPECT_EQ(stats.covered_prefixes, 2u);
  EXPECT_EQ(stats.invalid_prefixes, 2u);      // both have an invalid origin
  EXPECT_EQ(stats.exclusively_invalid, 1u);   // only 10.3/16
}

TEST(Collector, OriginsByPrefixMatchesPerPrefixScan) {
  // Interleaved prefixes, an origin seen from several peers, and a
  // pathless entry (origin 0): the one-pass grouping must list the same
  // prefixes, and the same origins per prefix, in the same first-seen
  // order as prefixes() + origins_of().
  const auto entry = [](const char* prefix, std::vector<Asn> path) {
    CollectorEntry e;
    e.prefix = pfx(prefix);
    e.peer = path.empty() ? 0 : path.front();
    e.as_path = std::move(path);
    return e;
  };
  CollectorSnapshot snap;
  snap.entries = {entry("10.1.0.0/16", {1, 7}),
                  entry("10.2.0.0/16", {2, 8}),
                  entry("10.1.0.0/16", {3, 9}),
                  entry("10.3.0.0/24", {1, 4, 6}),
                  entry("10.1.0.0/16", {2, 5, 7}),
                  entry("10.2.0.0/16", {4, 8}),
                  entry("10.1.0.0/16", {4, 6}),
                  entry("10.3.0.0/24", {}),
                  entry("10.2.0.0/16", {5, 9}),
                  entry("10.1.0.0/16", {5, 9})};

  const std::vector<PrefixOrigins> grouped = snap.origins_by_prefix();
  const std::vector<Ipv4Prefix> prefixes = snap.prefixes();
  ASSERT_EQ(grouped.size(), prefixes.size());
  for (std::size_t i = 0; i < prefixes.size(); ++i) {
    EXPECT_EQ(grouped[i].prefix, prefixes[i]) << i;
    EXPECT_EQ(grouped[i].origins, snap.origins_of(prefixes[i])) << i;
  }
  ASSERT_EQ(grouped.size(), 3u);
  EXPECT_EQ(grouped[0].origins, (std::vector<Asn>{7, 9, 6}));
  EXPECT_EQ(grouped[1].origins, (std::vector<Asn>{8, 9}));
  EXPECT_EQ(grouped[2].origins, (std::vector<Asn>{6, 0}));
}

// ---------- valley-free property over random topologies ----------

class ValleyFree : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ValleyFree, AllPathsAreValleyFree) {
  Rng rng(GetParam());
  rovista::topology::TopologyParams params;
  params.tier1_count = 4;
  params.tier2_count = 12;
  params.tier3_count = 30;
  params.stub_count = 80;
  const AsGraph g = rovista::topology::generate_topology(params, rng);
  RoutingSystem routing(g);

  // Originate from a handful of random ASes and verify every resulting
  // path is valley-free: once the path goes "down" (provider→customer)
  // or "across" (peer), it must never go "up" or "across" again.
  const auto all = g.all_asns();
  for (int i = 0; i < 5; ++i) {
    const auto origin = all[rng.index(all.size())];
    const Ipv4Prefix prefix(
        Ipv4Address(static_cast<std::uint32_t>((i + 1) << 24)), 8);
    routing.announce({prefix, origin});
    const RouteMap& routes = routing.routes_for(prefix);
    for (const auto& [asn, entry] : routes) {
      const auto path = routing.as_path(asn, prefix);
      ASSERT_FALSE(path.empty());
      EXPECT_EQ(path.back(), origin);
      // Walk from the origin toward the holder: the "uphill" phase
      // (customer→provider hops) must come first; after any peer or
      // downhill hop, only downhill hops may follow.
      bool descending = false;
      for (std::size_t k = path.size() - 1; k > 0; --k) {
        const auto from = path[k];      // closer to origin
        const auto to = path[k - 1];    // closer to holder
        const auto rel = g.relationship(from, to);
        ASSERT_TRUE(rel.has_value());
        if (rel == NeighborKind::kProvider) {
          // going up: allowed only before any descent
          EXPECT_FALSE(descending) << "valley in path";
        } else {
          descending = true;  // peer or customer hop starts the descent
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ValleyFree, ::testing::Values(3, 11, 27));

}  // namespace
