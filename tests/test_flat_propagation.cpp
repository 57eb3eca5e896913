// Flat-engine equivalence and substrate tests (bgp/flat_propagation.h,
// DESIGN.md "Rank-flattened propagation").
//
// The contract under test: every RouteMap the production RoutingSystem
// computes is bit-identical to the Adj-RIB-In fixed point
// (propagation_oracle.h) on the same configuration. Alongside the
// equivalence axis: tie-break pins for each comparator level, rank
// invariants of the flattened graph, the refusal of customer-provider
// cycles, arena epoch-reuse determinism, and the BatchedLpm vs
// PrefixTrie oracle.
#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "bgp/flat_propagation.h"
#include "bgp/routing_system.h"
#include "net/batched_lpm.h"
#include "net/prefix_trie.h"
#include "propagation_oracle.h"
#include "rpki/validation.h"
#include "scenario/scenario.h"
#include "topology/as_graph.h"
#include "topology/generator.h"
#include "util/rng.h"
#include "wire_fuzz.h"

namespace rovista {
namespace {

using bgp::RouteEntry;
using bgp::RouteMap;
using net::Ipv4Address;
using net::Ipv4Prefix;
using topology::AsGraph;
using topology::AsInfo;
using topology::Asn;
using topology::NeighborKind;

Ipv4Prefix pfx(const char* s) {
  const auto p = Ipv4Prefix::parse(s);
  EXPECT_TRUE(p.has_value()) << s;
  return *p;
}

// The production routes for `prefix` must equal the oracle's, entry by
// entry.
void expect_matches_oracle(bgp::RoutingSystem& routing,
                           const Ipv4Prefix& prefix) {
  const RouteMap& got = routing.routes_for(prefix);
  const RouteMap want = test::fixed_point_routes(routing, prefix);
  ASSERT_EQ(got.size(), want.size()) << prefix.to_string();
  for (const auto& [asn, e] : want) {
    const auto it = got.find(asn);
    ASSERT_NE(it, got.end()) << prefix.to_string() << " @ AS" << asn;
    const RouteEntry& f = it->second;
    EXPECT_EQ(f.next_hop, e.next_hop) << prefix.to_string() << " @ " << asn;
    EXPECT_EQ(f.origin, e.origin) << prefix.to_string() << " @ " << asn;
    EXPECT_EQ(f.learned_from, e.learned_from)
        << prefix.to_string() << " @ " << asn;
    EXPECT_EQ(f.validity, e.validity) << prefix.to_string() << " @ " << asn;
    EXPECT_EQ(f.path_len, e.path_len) << prefix.to_string() << " @ " << asn;
  }
}

// -- Scenario-world equivalence ---------------------------------------

scenario::ScenarioParams equivalence_params() {
  scenario::ScenarioParams params;
  params.seed = 11;
  params.topology.tier1_count = 4;
  params.topology.tier2_count = 14;
  params.topology.tier3_count = 36;
  params.topology.stub_count = 120;
  params.tnode_prefix_count = 4;
  params.measured_as_count = 12;
  params.hosts_per_measured_as = 3;
  params.collector_peer_count = 30;
  return params;
}

// Every AS /16 plus every tNode prefix must match the oracle at every
// date (the dates cross ROV enablements, the invalid surge and MOAS
// churn).
void expect_scenario_equivalence(const scenario::ScenarioParams& params,
                                 const std::vector<util::Date>& dates) {
  scenario::Scenario s(params);
  for (const util::Date date : dates) {
    s.advance_to(date);
    for (const Asn asn : s.graph().all_asns()) {
      expect_matches_oracle(s.routing(), s.as_prefix(asn));
      if (::testing::Test::HasFatalFailure()) return;
    }
    for (const auto& [prefix, origin] : s.tnode_prefixes()) {
      expect_matches_oracle(s.routing(), prefix);
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

TEST(FlatEquivalence, SeedScenarioAcrossTimeline) {
  const scenario::ScenarioParams params = equivalence_params();
  expect_scenario_equivalence(
      params, {params.start + 30, util::Date::from_ymd(2022, 6, 15),
               params.start + 150});
}

TEST(FlatEquivalence, SlurmWorld) {
  scenario::ScenarioParams params = equivalence_params();
  params.seed = 12;
  params.slurm_fraction = 0.3;
  expect_scenario_equivalence(params, {params.start + 150});
}

TEST(FlatEquivalence, PreferValidAndExemptWorld) {
  scenario::ScenarioParams params = equivalence_params();
  params.seed = 13;
  params.prefer_valid_fraction = 0.35;
  params.exempt_customers_fraction = 0.35;
  expect_scenario_equivalence(params, {params.start + 150});
}

TEST(FlatEquivalence, FaultDegradedWorld) {
  // Fault injection binds per-AS effective views; the flat engine's
  // validity groups must reproduce every degraded viewpoint exactly.
  scenario::ScenarioParams params = equivalence_params();
  params.seed = 14;
  params.faults.rp_failure_rate = 0.3;
  params.faults.rtr_drop_rate = 0.2;
  params.faults.rp_divergence_fraction = 0.25;
  expect_scenario_equivalence(
      params, {params.start + 90, params.start + 150});
}

// -- Tie-break pins ----------------------------------------------------
//
// One hand-built graph per comparator level. Each pin asserts the
// expected winner on the production engine as well as equality with the
// oracle, so a tie-break regression cannot hide behind both agreeing on
// the wrong answer.

AsInfo as_info(Asn asn, int tier) {
  AsInfo info;
  info.asn = asn;
  info.name = "AS" + std::to_string(asn);
  info.tier = tier;
  return info;
}

void expect_best(bgp::RoutingSystem& routing, const Ipv4Prefix& prefix,
                 Asn at, Asn next_hop, NeighborKind learned_from,
                 std::uint16_t path_len) {
  expect_matches_oracle(routing, prefix);
  const RouteEntry* e = routing.route_at(at, prefix);
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->next_hop, next_hop);
  EXPECT_EQ(e->learned_from, learned_from);
  EXPECT_EQ(e->path_len, path_len);
}

TEST(FlatTieBreak, LocalPreferenceCustomerBeatsPeerBeatsProvider) {
  // 60 reaches origin 9 three ways: via customer 10, via peer 20, via
  // provider 30 — all length 3. Local preference must pick the customer;
  // removing it must fall to the peer.
  AsGraph g;
  for (const Asn a : {60u, 10u, 20u, 30u, 9u}) g.add_as(as_info(a, 2));
  g.add_p2c(60, 10);
  g.add_p2p(60, 20);
  g.add_p2c(30, 60);
  for (const Asn mid : {10u, 20u, 30u}) g.add_p2c(mid, 9);

  const Ipv4Prefix p = pfx("203.0.113.0/24");
  bgp::RoutingSystem sys(g);
  sys.announce({p, 9});
  expect_best(sys, p, 60, 10, NeighborKind::kCustomer, 3);

  AsGraph g2 = g;
  g2.remove_edge(60, 10);
  bgp::RoutingSystem sys2(g2);
  sys2.announce({p, 9});
  expect_best(sys2, p, 60, 20, NeighborKind::kPeer, 3);
}

TEST(FlatTieBreak, ShorterPathWinsWithinClass) {
  // Two customer routes: via 10 directly to the origin (len 3) and via
  // 20 -> 21 -> origin (len 4).
  AsGraph g;
  for (const Asn a : {60u, 10u, 20u, 21u, 9u}) g.add_as(as_info(a, 2));
  g.add_p2c(60, 10);
  g.add_p2c(60, 20);
  g.add_p2c(20, 21);
  g.add_p2c(10, 9);
  g.add_p2c(21, 9);

  const Ipv4Prefix p = pfx("203.0.113.0/24");
  bgp::RoutingSystem sys(g);
  sys.announce({p, 9});
  expect_best(sys, p, 60, 10, NeighborKind::kCustomer, 3);
}

TEST(FlatTieBreak, LowestNextHopBreaksFullTies) {
  // Same class, same length: neighbors 3 and 5 both reach the origin
  // directly. The lower next-hop ASN wins regardless of insertion order
  // (5 is added to the graph first).
  AsGraph g;
  for (const Asn a : {60u, 5u, 3u, 9u}) g.add_as(as_info(a, 2));
  g.add_p2c(60, 5);
  g.add_p2c(60, 3);
  g.add_p2c(5, 9);
  g.add_p2c(3, 9);

  const Ipv4Prefix p = pfx("203.0.113.0/24");
  bgp::RoutingSystem sys(g);
  sys.announce({p, 9});
  expect_best(sys, p, 60, 3, NeighborKind::kCustomer, 3);
}

TEST(FlatTieBreak, PreferValidOutranksPathLength) {
  // MOAS: valid origin 9 three hops out, invalid origin 8 one hop out.
  // kNone picks the short invalid route; kPreferValid ranks validity
  // above everything and takes the long valid one.
  AsGraph g;
  for (const Asn a : {60u, 10u, 11u, 9u, 8u}) g.add_as(as_info(a, 2));
  g.add_p2c(60, 10);
  g.add_p2c(10, 11);
  g.add_p2c(11, 9);
  g.add_p2c(60, 8);

  const Ipv4Prefix p = pfx("203.0.113.0/24");
  rpki::VrpSet vrps;
  vrps.add({p, 24, 9});

  for (const bgp::RovMode mode :
       {bgp::RovMode::kNone, bgp::RovMode::kPreferValid}) {
    bgp::RoutingSystem sys(g);
    sys.set_vrps(vrps);
    bgp::AsPolicy policy;
    policy.rov = mode;
    sys.set_policy(60, policy);
    sys.announce({p, 9});
    sys.announce({p, 8});
    if (mode == bgp::RovMode::kNone) {
      expect_best(sys, p, 60, 8, NeighborKind::kCustomer, 2);
    } else {
      expect_best(sys, p, 60, 10, NeighborKind::kCustomer, 4);
    }
  }
}

// -- Flattened-graph invariants ---------------------------------------

TEST(FlatGraph, RankAndUpOrderInvariants) {
  topology::TopologyParams params;
  params.tier1_count = 4;
  params.tier2_count = 12;
  params.tier3_count = 30;
  params.stub_count = 100;
  util::Rng rng(77);
  const AsGraph g = topology::generate_topology(params, rng);
  const bgp::flat::FlatGraph fg = bgp::flat::FlatGraph::build(g);
  ASSERT_EQ(fg.size(), g.size());

  // Every provider ranks strictly above each of its customers.
  for (std::uint32_t i = 0; i < fg.size(); ++i) {
    for (const std::uint32_t* c = fg.customers.begin(i);
         c != fg.customers.end(i); ++c) {
      EXPECT_GT(fg.rank[i], fg.rank[*c])
          << "AS" << fg.asn_of[i] << " -> AS" << fg.asn_of[*c];
    }
  }

  // up_order is a permutation sorted by (rank, index).
  ASSERT_EQ(fg.up_order.size(), fg.size());
  std::vector<bool> seen(fg.size(), false);
  for (std::size_t k = 0; k < fg.up_order.size(); ++k) {
    const std::uint32_t i = fg.up_order[k];
    ASSERT_LT(i, fg.size());
    EXPECT_FALSE(seen[i]);
    seen[i] = true;
    if (k > 0) {
      const std::uint32_t prev = fg.up_order[k - 1];
      EXPECT_TRUE(fg.rank[prev] < fg.rank[i] ||
                  (fg.rank[prev] == fg.rank[i] && prev < i));
    }
  }
}

TEST(FlatGraph, CustomerCycleThrowsNamingEveryAs) {
  // 1 -> 2 -> 3 (providers to customers) converges; adding 3 -> 1
  // closes a provider cycle, which has no rank order and no Gao–Rexford
  // stable state. Relationship edits reach the engine through the
  // invalidate_all fence, so the refusal must come from the recompiled
  // graph, not only from a load-time check.
  AsGraph g;
  for (const Asn a : {1u, 2u, 3u, 9u}) g.add_as(as_info(a, 2));
  g.add_p2c(1, 2);
  g.add_p2c(2, 3);
  g.add_p2c(3, 9);

  const Ipv4Prefix p = pfx("203.0.113.0/24");
  bgp::RoutingSystem sys(g);
  sys.announce({p, 9});
  EXPECT_EQ(sys.routes_for(p).size(), 4u);

  g.add_p2c(3, 1);
  sys.invalidate_all();
  EXPECT_EQ(topology::find_customer_cycle(g), (std::vector<Asn>{1, 2, 3}));
  try {
    sys.routes_for(p);
    ADD_FAILURE() << "routes_for converged a graph with a provider cycle";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "customer-provider cycle: AS1 -> AS2 -> AS3 -> AS1");
  }
}

// -- Arena epoch reuse -------------------------------------------------

TEST(FlatRouteTable, EpochReuseIsDeterministic) {
  // A chain 1 -> 2 -> 3 with the origin alternating between ends. The
  // same PrefixInput must reproduce the same digest after the arena has
  // been recycled for a different prefix — stale state from the
  // interleaved run must be invisible.
  AsGraph g;
  for (const Asn a : {1u, 2u, 3u}) g.add_as(as_info(a, 2));
  g.add_p2c(1, 2);
  g.add_p2c(2, 3);
  const bgp::flat::FlatGraph fg = bgp::flat::FlatGraph::build(g);

  bgp::flat::FlatPolicy policy;
  policy.rov_mode.assign(fg.size(), 0);
  policy.coverage.assign(fg.size(), 1.0);
  policy.validity_group.assign(fg.size(), 0);
  policy.group_rep = {0};

  auto input = [&](const char* prefix, Asn origin) {
    bgp::flat::PrefixInput in;
    in.graph = &fg;
    in.policy = &policy;
    in.prefix = pfx(prefix);
    in.origin_idx = {fg.idx_of.at(origin)};
    in.validity = {rpki::RouteValidity::kUnknown};
    return in;
  };

  bgp::flat::FlatRouteTable table;
  ASSERT_TRUE(bgp::flat::propagate(input("203.0.113.0/24", 3), table));
  const std::uint64_t first = table.digest();
  ASSERT_TRUE(bgp::flat::propagate(input("198.51.100.0/24", 1), table));
  EXPECT_NE(table.digest(), first);  // different world state
  ASSERT_TRUE(bgp::flat::propagate(input("203.0.113.0/24", 3), table));
  EXPECT_EQ(table.digest(), first);

  // All three ASes hold a route both times (chain is fully reachable).
  for (std::uint32_t i = 0; i < fg.size(); ++i) {
    EXPECT_TRUE(table.has(i, bgp::flat::FlatRouteTable::kBest));
  }
}

// -- BatchedLpm vs PrefixTrie oracle ----------------------------------

TEST(BatchedLpm, MatchesPrefixTrieOracle) {
  test::FuzzRng rng(0x10a9u);
  std::vector<Ipv4Prefix> prefixes;
  net::PrefixTrie<int> trie;
  for (int i = 0; i < 600; ++i) {
    const auto len = static_cast<std::uint8_t>(8 + rng.below(21));  // 8..28
    const Ipv4Prefix p(Ipv4Address(static_cast<std::uint32_t>(rng.next())),
                       len);
    prefixes.push_back(p);
    trie.insert(p, i);
  }
  const net::BatchedLpm lpm(prefixes);

  std::vector<Ipv4Address> queries;
  for (int i = 0; i < 4000; ++i) {
    // Half the queries land inside a stored prefix so the covered path
    // is exercised heavily; half are uniform.
    if (i % 2 == 0) {
      const Ipv4Prefix& base = prefixes[rng.below(prefixes.size())];
      queries.emplace_back(base.address().value() |
                           (static_cast<std::uint32_t>(rng.next()) &
                            ~base.mask()));
    } else {
      queries.emplace_back(static_cast<std::uint32_t>(rng.next()));
    }
  }

  const std::vector<std::int32_t> batch = lpm.lookup_batch(queries);
  ASSERT_EQ(batch.size(), queries.size());
  std::size_t matched = 0;
  for (std::size_t i = 0; i < queries.size(); ++i) {
    const Ipv4Address addr = queries[i];
    const auto oracle = trie.longest_match(addr);
    const auto got = lpm.lookup(addr);
    ASSERT_EQ(got.has_value(), oracle.has_value()) << addr.to_string();
    if (oracle.has_value()) {
      ++matched;
      EXPECT_EQ(*got, oracle->first) << addr.to_string();
      ASSERT_GE(batch[i], 0) << addr.to_string();
      EXPECT_EQ(lpm.prefixes()[static_cast<std::size_t>(batch[i])],
                oracle->first)
          << addr.to_string();
    } else {
      EXPECT_EQ(batch[i], net::BatchedLpm::kNoMatch) << addr.to_string();
    }

    // matches() is most-specific-first; the trie's all_matches is
    // shortest-first over the same covering set.
    std::vector<Ipv4Prefix> want;
    for (const auto& entry : trie.all_matches(addr)) {
      want.push_back(entry.first);
    }
    std::reverse(want.begin(), want.end());
    EXPECT_EQ(lpm.matches(addr), want) << addr.to_string();
  }
  EXPECT_GT(matched, queries.size() / 4);
}

}  // namespace
}  // namespace rovista
