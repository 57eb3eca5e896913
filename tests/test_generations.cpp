// World generations (DESIGN.md, "World generations"): the mutation
// counters of the repositories, the AS graph, the routing system and the
// data plane, and the three reuses keyed on them.
//
//   * every public mutator moves its object's generation, and lazy
//     fills (warm(), a routes_for() miss, a SLURM view validity_for()
//     materializes, a path computation) move none,
//   * a relying-party run's VRPs hold on every date in [d, stable_until)
//     (seed-3 small and seed-42 paper repositories), and
//     Scenario::advance_to skips the run only then,
//   * an epoch published on an unchanged build world shares the last
//     one's frozen state, digests to its own recompute, measures what a
//     freshly materialized epoch measures, and any mutator of the graph,
//     routing or plane before a publish stops the sharing.
// The third reuse, the kept fingerprint memo, is held by
// FingerprintOracle.MemoMatchesRecompute in test_incremental_round.
#include <gtest/gtest.h>

#include <cstring>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "core/parallel_round.h"
#include "incremental/longitudinal_engine.h"
#include "incremental/vrp_delta.h"
#include "round_fixture.h"
#include "snapshot/epoch_publisher.h"
#include "snapshot/world_source.h"

namespace {

using namespace rovista;

// The CLI's `--scale small --seed 3` world: the benchmark's.
scenario::ScenarioParams small_params() { return testfx::round_params(3); }

std::vector<rpki::Vrp> flat(const rpki::VrpSet& vrps) {
  return incremental::VrpDeltaComputer::flatten(vrps);
}

// ---------- Generations ----------

// One mutator of one object: `generation` reads that object's counter.
struct Mutation {
  const char* name;
  std::function<std::uint64_t()> generation;
  std::function<void()> mutate;
};

// Every public mutator of the graph, routing and plane of `world`, each
// applied to state the publisher can still publish. Graph edits attach a
// new AS below `a`, so no customer-provider cycle can form. (In
// production the scenario's relationship events are the only graph
// edits; the const_cast stands in for them.)
std::vector<Mutation> world_mutations(scenario::Scenario& world) {
  topology::AsGraph& graph = const_cast<topology::AsGraph&>(world.graph());
  bgp::RoutingSystem& routing = world.routing();
  dataplane::DataPlane& plane = world.plane();
  const auto graph_gen = [&graph] { return graph.generation(); };
  const auto routing_gen = [&routing] { return routing.generation(); };
  const auto plane_gen = [&plane] { return plane.generation(); };

  const std::vector<topology::Asn> asns = graph.all_asns();
  const topology::Asn a = asns.front();
  const topology::Asn b = asns.back();
  const topology::Asn x = 4200000000u;  // not in the world
  const net::Ipv4Prefix fresh(net::Ipv4Address(0x0a0b0c00u), 24);
  rpki::VrpSet view;
  view.add({fresh, 24, a});
  return {
      {"AsGraph::add_as", graph_gen,
       [&graph, x] {
         topology::AsInfo info;
         info.asn = x;
         graph.add_as(info);
       }},
      {"AsGraph::add_p2c", graph_gen, [&graph, a, x] { graph.add_p2c(a, x); }},
      {"AsGraph::add_p2p", graph_gen, [&graph, b, x] { graph.add_p2p(x, b); }},
      {"AsGraph::remove_edge", graph_gen,
       [&graph, b, x] { graph.remove_edge(x, b); }},
      {"AsGraph::set_relationship", graph_gen,
       [&graph, a, x] {
         graph.set_relationship(a, x, topology::NeighborKind::kCustomer);
       }},
      {"RoutingSystem::invalidate_all", routing_gen,
       [&routing] { routing.invalidate_all(); }},
      {"RoutingSystem::set_policy", routing_gen,
       [&routing, b] { routing.set_policy(b, routing.policy(b)); }},
      {"RoutingSystem::announce", routing_gen,
       [&routing, a, fresh] { routing.announce({fresh, a}); }},
      {"RoutingSystem::withdraw", routing_gen,
       [&routing, a, fresh] { routing.withdraw({fresh, a}); }},
      {"RoutingSystem::invalidate_prefix", routing_gen,
       [&routing, &world, a] {
         routing.invalidate_prefix(world.as_prefix(a));
       }},
      {"RoutingSystem::apply_vrp_delta", routing_gen,
       [&routing] { routing.apply_vrp_delta(routing.vrps(), {}, {}, {}); }},
      {"RoutingSystem::set_effective_views", routing_gen,
       [&routing, view, b] { routing.set_effective_views({view}, {{b, 1}}); }},
      {"RoutingSystem::set_vrps", routing_gen,
       [&routing, &world] { routing.set_vrps(world.current_vrps()); }},
      {"DataPlane::add_host", plane_gen,
       [&plane, &world, a] {
         dataplane::HostConfig config;
         config.address = net::Ipv4Address(
             world.as_prefix(a).address().value() + 0xf000u);
         plane.add_host(a, config);
       }},
      {"DataPlane::set_filter", plane_gen,
       [&plane, a] { plane.set_filter(a, plane.filter(a)); }},
      {"DataPlane::set_loss_probability", plane_gen,
       [&plane] { plane.set_loss_probability(plane.loss_probability()); }},
      {"DataPlane::set_hop_latency", plane_gen,
       [&plane] { plane.set_hop_latency(plane.hop_latency()); }},
  };
}

TEST(Generations, EveryMutatorMovesItsGeneration) {
  scenario::Scenario world(small_params());
  for (const Mutation& m : world_mutations(world)) {
    const std::uint64_t before = m.generation();
    m.mutate();
    EXPECT_GT(m.generation(), before) << m.name;
  }

  rpki::RepositorySystem& repos = world.repositories();
  rpki::Repository& arin = repos.repository(topology::Rir::kArin);
  const net::Ipv4Prefix space(net::Ipv4Address(198u << 24 | 18u << 16), 15);
  const std::vector<std::pair<const char*, std::function<void()>>>
      repo_mutations = {
          {"Repository::issue_certificate",
           [&] {
             rpki::ResourceSet resources;
             resources.prefixes.push_back(space);
             arin.issue_certificate("gen", resources, world.start(),
                                    world.end());
           }},
          {"Repository::publish_roa",
           [&] {
             arin.publish_roa(arin.certificates().back().serial, 64496,
                              {{space, 24}}, world.start(), world.end());
           }},
          {"Repository::withdraw_roa",
           [&] {
             arin.withdraw_roa(arin.certificates().back().serial, 64496,
                               space);
           }},
      };
  for (const auto& [name, mutate] : repo_mutations) {
    const std::uint64_t repo_before = arin.generation();
    const std::uint64_t system_before = repos.generation();
    mutate();
    EXPECT_GT(arin.generation(), repo_before) << name;
    EXPECT_GT(repos.generation(), system_before) << name;
  }
}

TEST(Generations, LazyFillsMoveNoGeneration) {
  scenario::ScenarioParams params = small_params();
  params.slurm_fraction = 0.35;
  scenario::Scenario world(params);
  world.advance_to(world.start() + 150);  // set_vrps: every cache empty
  bgp::RoutingSystem& routing = world.routing();
  dataplane::DataPlane& plane = world.plane();
  const dataplane::WorldGenerations before = plane.world_generations();
  const std::uint64_t repos_before = world.repositories().generation();

  // A SLURM view materialized by a validity query.
  topology::Asn slurm_as = 0;
  for (const topology::Asn asn : world.graph().all_asns()) {
    if (routing.policy(asn).has_slurm()) slurm_as = asn;
  }
  ASSERT_NE(slurm_as, 0u) << "no SLURM-bearing AS by the probe date";
  ASSERT_EQ(routing.slurm_view_count(), 0u);
  const net::Ipv4Prefix prefix = world.as_prefix(slurm_as);
  routing.validity_for(slurm_as, prefix, slurm_as);
  EXPECT_EQ(routing.slurm_view_count(), 1u);

  // A routes_for() miss, route_at() and a path computation.
  ASSERT_EQ(routing.cached_prefixes(), 0u);
  routing.routes_for(prefix);
  routing.route_at(slurm_as, world.as_prefix(world.client_as_a()));
  plane.compute_path(world.client_as_a(), world.client_addr_b());
  EXPECT_GT(routing.cached_prefixes(), 1u);

  // warm() converging everything else.
  EXPECT_GT(routing.warm(), 0u);

  EXPECT_EQ(plane.world_generations(), before);
  EXPECT_EQ(world.repositories().generation(), repos_before);
}

// ---------- Relying-party stability ----------

// Every date in [d, stable_until) yields the VRPs of d, for dates spread
// over the window of a world built from `params`; at most `span` dates
// are checked per d.
void expect_vrps_stable(const scenario::ScenarioParams& params, int span,
                        const std::string& label) {
  scenario::Scenario world(params);
  const rpki::RepositorySystem& repos = world.repositories();
  std::int64_t stable_days = 0;
  std::size_t runs = 0;
  for (util::Date d = world.start(); d <= world.end(); d = d + 37) {
    const rpki::ValidationRun run = rpki::run_relying_party(repos, d);
    ASSERT_GT(run.stable_until, d) << label << " " << d.to_string();
    const std::vector<rpki::Vrp> want = flat(run.vrps);
    for (util::Date e = d + 1; e < run.stable_until && e < d + span;
         e = e + 1) {
      ASSERT_EQ(flat(rpki::run_relying_party(repos, e).vrps), want)
          << label << ": VRPs of " << d.to_string() << " changed on "
          << e.to_string() << ", before stable_until "
          << run.stable_until.to_string();
    }
    stable_days += run.stable_until - d;
    ++runs;
  }
  // The key must be useful as well as sound: quiet stretches span days.
  EXPECT_GT(stable_days, static_cast<std::int64_t>(runs)) << label;
}

TEST(RelyingPartyStability, VrpsHoldUntilStableUntilSeed3) {
  expect_vrps_stable(small_params(), 1000, "seed 3");
}

TEST(RelyingPartyStability, VrpsHoldUntilStableUntilSeed42) {
  // The default parameters: the CLI's seed-42 paper world.
  expect_vrps_stable(scenario::ScenarioParams(), 40, "seed 42");
}

// Scenario::advance_to with an installer skips the relying party only
// while its VRPs are provably current: across a daily stretch every
// date's installed VRPs equal a fresh run's, and a repository edit
// forces the next run.
TEST(RelyingPartyStability, AdvanceSkipsOnlyWhileStable) {
  scenario::Scenario world(small_params());
  std::size_t installs = 0;
  const scenario::VrpInstaller installer =
      [&installs](bgp::RoutingSystem& routing, const rpki::VrpSet&,
                  rpki::VrpSet next) {
        ++installs;
        routing.set_vrps(std::move(next));
      };
  std::size_t skipped = 0;
  std::size_t ran = 0;
  for (int day = 0; day < 200; ++day) {
    const util::Date date = world.start() + day;
    const std::size_t installs_before = installs;
    const scenario::AdvanceStats stats = world.advance_to(date, installer);
    EXPECT_EQ(installs == installs_before, stats.relying_party_skipped)
        << date.to_string();
    (stats.relying_party_skipped ? skipped : ran) += 1;
    ASSERT_EQ(flat(world.current_vrps()),
              flat(rpki::run_relying_party(world.repositories(), date).vrps))
        << date.to_string();
    ASSERT_EQ(flat(world.routing().vrps()), flat(world.current_vrps()))
        << date.to_string();
  }
  EXPECT_GT(skipped, 0u);
  EXPECT_GT(ran, 1u);  // some window opened or closed in the stretch

  // A ROA published today: the repositories moved, so the next advance
  // re-runs the relying party even on the same date.
  rpki::Repository& arin =
      world.repositories().repository(topology::Rir::kArin);
  const net::Ipv4Prefix space(net::Ipv4Address(198u << 24 | 18u << 16), 15);
  rpki::ResourceSet resources;
  resources.prefixes.push_back(space);
  const auto serial = arin.issue_certificate("stable", resources,
                                             world.start(), world.end());
  ASSERT_TRUE(serial.has_value());
  ASSERT_TRUE(arin.publish_roa(*serial, 64496, {{space, 24}},
                               world.current(), world.end()));
  const scenario::AdvanceStats stats =
      world.advance_to(world.current(), installer);
  EXPECT_FALSE(stats.relying_party_skipped);
  EXPECT_EQ(flat(world.current_vrps()),
            flat(rpki::run_relying_party(world.repositories(),
                                         world.current())
                     .vrps));

  // The plain advance_to always re-runs it.
  const std::size_t installs_before = installs;
  world.advance_to(world.current());
  EXPECT_EQ(installs, installs_before);  // set_vrps, not the installer
  EXPECT_EQ(flat(world.routing().vrps()), flat(world.current_vrps()));
}

// ---------- Shared epochs ----------

void expect_same_round(const core::MeasurementRound& a,
                       const core::MeasurementRound& b) {
  ASSERT_EQ(a.observations.size(), b.observations.size());
  for (std::size_t i = 0; i < a.observations.size(); ++i) {
    ASSERT_EQ(a.observations[i].vvp.value(), b.observations[i].vvp.value());
    ASSERT_EQ(a.observations[i].tnode.value(),
              b.observations[i].tnode.value());
    ASSERT_EQ(a.observations[i].verdict, b.observations[i].verdict) << i;
  }
  ASSERT_EQ(a.scores.size(), b.scores.size());
  for (std::size_t i = 0; i < a.scores.size(); ++i) {
    ASSERT_EQ(a.scores[i].asn, b.scores[i].asn);
    ASSERT_EQ(std::memcmp(&a.scores[i].score, &b.scores[i].score,
                          sizeof(double)),
              0);
  }
}

core::MeasurementRound measure(scenario::Scenario& world,
                               const snapshot::EpochRef& epoch) {
  const core::RovistaConfig config = testfx::round_config();
  const snapshot::RoundInputs inputs =
      snapshot::acquire_inputs_on_epoch(world, epoch, config);
  EXPECT_FALSE(inputs.vvps.empty());
  EXPECT_FALSE(inputs.tnodes.empty());
  const core::ParallelRoundRunner runner(
      snapshot::make_reader_factory(epoch),
      {config.experiment, config.scoring, 2});
  return runner.run(inputs.vvps, inputs.tnodes);
}

TEST(SharedEpoch, QuietDaySharesStateAndMeasuresLikeAFreshEpoch) {
  // Days 200 and 201 of the seed-3 world: no event, no VRP change.
  const scenario::ScenarioParams params = small_params();
  const util::Date day = params.start + 200;
  snapshot::EpochPublisher pub(params);
  const scenario::VrpInstaller installer =
      incremental::make_vrp_installer(nullptr);
  pub.advance_to(day, installer);
  const snapshot::EpochRef first = pub.publish();
  EXPECT_FALSE(pub.last_publish_shared());
  const scenario::AdvanceStats stats = pub.advance_to(day + 1, installer);
  ASSERT_EQ(stats.events(), 0u);
  ASSERT_TRUE(stats.relying_party_skipped);
  const snapshot::EpochRef shared = pub.publish();
  ASSERT_TRUE(pub.last_publish_shared());

  // The parts are the first epoch's; seq, date and digest are new.
  EXPECT_EQ(&shared->state(), &first->state());
  EXPECT_EQ(&shared->graph(), &first->graph());
  EXPECT_EQ(&shared->shared_routing(), &first->shared_routing());
  EXPECT_EQ(shared->sequence(), first->sequence() + 1);
  EXPECT_EQ(shared->date(), day + 1);
  EXPECT_NE(shared->digest(), first->digest());
  EXPECT_EQ(shared->recompute_digest(), shared->digest());
  EXPECT_EQ(first->recompute_digest(), first->digest());
  EXPECT_EQ(pub.live_epochs(), 2);  // epochs, not states

  // A world built and published fresh at that date measures the same.
  snapshot::EpochPublisher fresh(params);
  fresh.advance_to(day + 1);
  const snapshot::EpochRef fresh_epoch = fresh.publish();
  expect_same_round(measure(fresh.world(), fresh_epoch),
                    measure(pub.world(), shared));
}

TEST(SharedEpoch, AnyMutatorBeforeAPublishStopsTheSharing) {
  snapshot::EpochPublisher pub(small_params());
  pub.advance_to(pub.world().start() + 200,
                 incremental::make_vrp_installer(nullptr));
  snapshot::EpochRef prev = pub.publish();
  for (const Mutation& m : world_mutations(pub.world())) {
    m.mutate();
    snapshot::EpochRef next = pub.publish();
    EXPECT_FALSE(pub.last_publish_shared()) << m.name;
    EXPECT_NE(&next->state(), &prev->state()) << m.name;
    EXPECT_EQ(next->recompute_digest(), next->digest()) << m.name;

    // Nothing moved since: the next publish shares again.
    const snapshot::EpochRef again = pub.publish();
    EXPECT_TRUE(pub.last_publish_shared()) << m.name;
    EXPECT_EQ(&again->state(), &next->state()) << m.name;
    EXPECT_EQ(again->digest(), next->digest()) << m.name;
    prev = std::move(next);
  }
}

}  // namespace
