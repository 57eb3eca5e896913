// Edge cases of the measurement experiment: IP-ID wraparound mid-
// experiment, nonstationary vVP backgrounds (trend/seasonal), deviant
// tNode stacks, and a parameterized sweep over background rates.
#include <gtest/gtest.h>

#include <memory>

#include "core/experiment.h"

namespace {

using namespace rovista;
using namespace rovista::core;
using rovista::bgp::AsPolicy;
using rovista::bgp::RoutingSystem;
using rovista::bgp::RovMode;
using rovista::dataplane::DataPlane;
using rovista::dataplane::HostConfig;
using rovista::dataplane::IpIdPolicy;
using rovista::dataplane::TrafficModel;
using rovista::net::Ipv4Address;
using rovista::net::Ipv4Prefix;
using rovista::rpki::VrpSet;
using rovista::scan::MeasurementClient;
using rovista::scan::Tnode;
using rovista::scan::Vvp;
using rovista::topology::AsGraph;
using rovista::topology::Asn;

Ipv4Prefix pfx(const char* s) { return *Ipv4Prefix::parse(s); }
Ipv4Address addr(const char* s) { return *Ipv4Address::parse(s); }

struct Fixture {
  AsGraph graph;
  std::unique_ptr<RoutingSystem> routing;
  std::unique_ptr<DataPlane> plane;
  std::unique_ptr<MeasurementClient> client;
  Tnode tnode;

  explicit Fixture(bool vvp_as_filters = false) {
    for (Asn a : {1u, 2u, 3u, 4u}) graph.add_as({a, ""});
    for (Asn a : {2u, 3u, 4u}) graph.add_p2c(1, a);
    routing = std::make_unique<RoutingSystem>(graph);
    for (Asn a : {2u, 3u, 4u}) {
      routing->announce({Ipv4Prefix(Ipv4Address(a << 24), 8), a});
    }
    VrpSet vrps;
    vrps.add({pfx("6.6.6.0/24"), 24, 99});
    routing->set_vrps(std::move(vrps));
    routing->announce({pfx("6.6.6.0/24"), 4});
    if (vvp_as_filters) {
      AsPolicy full;
      full.rov = RovMode::kFull;
      routing->set_policy(3, full);
    }
    plane = std::make_unique<DataPlane>(*routing, 2718);
    client = std::make_unique<MeasurementClient>(*plane, 2, addr("2.0.0.10"));

    HostConfig tnode_config;
    tnode_config.address = addr("6.6.6.10");
    tnode_config.open_ports = {80};
    tnode_config.rto_seconds = 3.0;
    tnode_config.max_retransmits = 1;
    tnode_config.seed = 12;
    plane->add_host(4, tnode_config);
    tnode = {tnode_config.address, 80, pfx("6.6.6.0/24"), 4};
  }

  Vvp add_vvp(HostConfig config) {
    config.address = addr("3.0.0.1");
    config.seed = 77;
    plane->add_host(3, config);
    return Vvp{config.address, 3, config.background.base_rate};
  }
};

TEST(ExperimentEdge, IpIdWraparoundMidExperiment) {
  Fixture fx;
  HostConfig config;
  config.ipid_policy = IpIdPolicy::kGlobal;
  config.initial_ipid = 65530;  // wraps within the first probes
  config.background.base_rate = 3.0;
  const Vvp vvp = fx.add_vvp(config);
  const auto result = run_experiment(*fx.plane, *fx.client, vvp, fx.tnode);
  EXPECT_EQ(result.verdict, FilteringVerdict::kNoFiltering);
}

TEST(ExperimentEdge, TrendBackgroundStillClassified) {
  Fixture fx(/*vvp_as_filters=*/true);
  HostConfig config;
  config.ipid_policy = IpIdPolicy::kGlobal;
  config.background.kind = TrafficModel::Kind::kTrend;
  config.background.base_rate = 3.0;
  config.background.trend_per_sec = 0.15;
  const Vvp vvp = fx.add_vvp(config);
  const auto result = run_experiment(*fx.plane, *fx.client, vvp, fx.tnode);
  EXPECT_EQ(result.verdict, FilteringVerdict::kOutboundFiltering);
}

TEST(ExperimentEdge, SeasonalBackgroundStillClassified) {
  // Seasonal backgrounds are the hardest case for a 9-point model; a
  // single run may miss the burst against an unlucky phase, so require
  // a correct majority over repetitions (which is also how scores
  // aggregate in practice).
  Fixture fx;
  HostConfig config;
  config.ipid_policy = IpIdPolicy::kGlobal;
  config.background.kind = TrafficModel::Kind::kSeasonal;
  config.background.base_rate = 4.0;
  config.background.season_amplitude = 2.0;
  config.background.season_period_s = 8.0;
  const Vvp vvp = fx.add_vvp(config);
  int correct = 0;
  int conclusive = 0;
  for (int i = 0; i < 7; ++i) {
    const auto result = run_experiment(*fx.plane, *fx.client, vvp, fx.tnode);
    if (result.verdict == FilteringVerdict::kInconclusive) continue;
    ++conclusive;
    if (result.verdict == FilteringVerdict::kNoFiltering) ++correct;
  }
  ASSERT_GT(conclusive, 2);
  EXPECT_GE(correct * 2, conclusive);
}

TEST(ExperimentEdge, SilentVvpInconclusive) {
  Fixture fx;
  HostConfig config;
  config.ipid_policy = IpIdPolicy::kGlobal;
  config.capture = true;  // never answers probes
  const Vvp vvp = fx.add_vvp(config);
  const auto result = run_experiment(*fx.plane, *fx.client, vvp, fx.tnode);
  EXPECT_EQ(result.verdict, FilteringVerdict::kInconclusive);
  EXPECT_EQ(result.rst_samples, 0);
}

TEST(ExperimentEdge, MissingTnodeLooksInbound) {
  // A tNode that vanished between qualification and measurement: the
  // spoofed SYNs land on nothing, so no spike appears anywhere — the
  // experiment reads as inbound filtering (and the aggregation layer
  // discards inbound-only tNodes).
  Fixture fx;
  HostConfig config;
  config.ipid_policy = IpIdPolicy::kGlobal;
  config.background.base_rate = 2.0;
  const Vvp vvp = fx.add_vvp(config);
  const Tnode ghost{addr("6.6.6.99"), 80, pfx("6.6.6.0/24"), 4};
  const auto result = run_experiment(*fx.plane, *fx.client, vvp, ghost);
  EXPECT_EQ(result.verdict, FilteringVerdict::kInboundFiltering);
}

TEST(ExperimentEdge, ZeroBackgroundVvp) {
  // A totally quiet host: deltas are exactly the probe responses; the
  // burst must still stand out.
  Fixture fx;
  HostConfig config;
  config.ipid_policy = IpIdPolicy::kGlobal;
  config.background.base_rate = 0.0;
  const Vvp vvp = fx.add_vvp(config);
  const auto result = run_experiment(*fx.plane, *fx.client, vvp, fx.tnode);
  EXPECT_EQ(result.verdict, FilteringVerdict::kNoFiltering);
}

// Sweep: verdicts stay correct across background rates within the
// usable envelope, in both reachability regimes.
//
// gtest prints a parameter without a PrintTo overload as its raw bytes,
// and gtest_discover_tests names each ctest case from that printout.
// The padding after `filtered` is spelled out and zeroed so those bytes
// (and the case names) are the same on every run.
struct SweepParam {
  double rate;
  bool filtered;
  unsigned char padding[7] = {};
};
static_assert(sizeof(SweepParam) == 16, "every byte of SweepParam is a member");

class ExperimentSweep : public ::testing::TestWithParam<SweepParam> {};

TEST_P(ExperimentSweep, VerdictMatchesRegime) {
  const SweepParam param = GetParam();
  Fixture fx(param.filtered);
  HostConfig config;
  config.ipid_policy = IpIdPolicy::kGlobal;
  config.background.base_rate = param.rate;
  const Vvp vvp = fx.add_vvp(config);

  // Majority vote over 5 repetitions (a single run may be inconclusive
  // at the noisy end of the envelope).
  int expected_hits = 0;
  int conclusive = 0;
  for (int i = 0; i < 5; ++i) {
    const auto result = run_experiment(*fx.plane, *fx.client, vvp, fx.tnode);
    if (result.verdict == FilteringVerdict::kInconclusive) continue;
    ++conclusive;
    const auto expected = param.filtered
                              ? FilteringVerdict::kOutboundFiltering
                              : FilteringVerdict::kNoFiltering;
    if (result.verdict == expected) ++expected_hits;
  }
  ASSERT_GT(conclusive, 0);
  EXPECT_GE(expected_hits * 2, conclusive);  // majority correct
}

INSTANTIATE_TEST_SUITE_P(
    Rates, ExperimentSweep,
    ::testing::Values(SweepParam{0.5, false}, SweepParam{0.5, true},
                      SweepParam{2.0, false}, SweepParam{2.0, true},
                      SweepParam{5.0, false}, SweepParam{5.0, true},
                      SweepParam{8.0, false}, SweepParam{8.0, true}));

}  // namespace
