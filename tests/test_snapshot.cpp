// Epoch-snapshot lifecycle and immutability properties
// (snapshot/epoch_world.h, snapshot/epoch_publisher.h):
//
//   * a frozen RoutingSystem refuses every mutation and answers every
//     warmed query (the reader-safety contract),
//   * an epoch's digest at pin time equals its digest at release, no
//     matter how much the build world evolved or how many epochs were
//     published in between (immutability),
//   * no epoch is freed while pinned, and the live-epoch chain stays
//     bounded — publishing N times with no readers leaves exactly one
//     epoch alive (grace period / reclamation),
//   * routes converge in the build world and epochs share every RouteMap
//     a day did not dirty, and the memoized digest equals the full-walk
//     oracle on every publish.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "incremental/dirty_prefix.h"
#include "incremental/longitudinal_engine.h"
#include "incremental/vrp_delta.h"
#include "round_fixture.h"
#include "snapshot/epoch_publisher.h"
#include "snapshot/world_source.h"
#include "util/logging.h"

namespace {

using namespace rovista;

scenario::ScenarioParams small_params() { return testfx::round_params(); }

// The incremental engine's VRP install: only the prefixes whose base
// validity flipped lose their converged routes, so the rest survive
// the advance. Records that dirty set in `dirty` when non-null.
scenario::VrpInstaller delta_installer(
    std::vector<net::Ipv4Prefix>* dirty = nullptr) {
  return [dirty](bgp::RoutingSystem& routing, const rpki::VrpSet& prev,
                 rpki::VrpSet next) {
    if (dirty != nullptr) {
      *dirty = incremental::DirtyPrefixTracker(
                   incremental::VrpDeltaComputer::diff(prev, next))
                   .dirty_prefixes(prev, next, routing);
    }
    incremental::make_vrp_installer(nullptr)(routing, prev, std::move(next));
  };
}

std::vector<topology::Asn> sorted_origins(const bgp::RoutingSystem& routing,
                                          const net::Ipv4Prefix& prefix) {
  std::vector<topology::Asn> origins = routing.origins_of(prefix);
  std::sort(origins.begin(), origins.end());
  return origins;
}

TEST(SnapshotFreeze, FrozenRoutingRefusesEveryMutator) {
  scenario::Scenario world(small_params());
  world.advance_to(world.start() + 60);

  topology::AsGraph graph_copy(world.graph());
  bgp::RoutingSystem frozen(world.routing(), graph_copy);
  EXPECT_FALSE(frozen.frozen());
  frozen.freeze();
  EXPECT_TRUE(frozen.frozen());
  frozen.freeze();  // idempotent
  EXPECT_TRUE(frozen.frozen());

  EXPECT_THROW(frozen.set_policy(1, bgp::AsPolicy{}), std::logic_error);
  EXPECT_THROW(frozen.set_vrps(rpki::VrpSet{}), std::logic_error);
  EXPECT_THROW(frozen.apply_vrp_delta(rpki::VrpSet{}, {}, {}, {}),
               std::logic_error);
  EXPECT_THROW(frozen.invalidate_all(), std::logic_error);
  const net::Ipv4Prefix some = frozen.all_prefixes().front();
  EXPECT_THROW(frozen.invalidate_prefix(some), std::logic_error);
  bgp::OriginAnnouncement ann;
  ann.prefix = some;
  ann.origin = 1;
  EXPECT_THROW(frozen.announce(ann), std::logic_error);
  EXPECT_THROW(frozen.withdraw(ann), std::logic_error);
  std::vector<rpki::VrpSet> views(1);
  EXPECT_THROW(frozen.set_effective_views(std::move(views), {{1, 1}}),
               std::logic_error);
}

TEST(SnapshotFreeze, FrozenRoutingAnswersEveryWarmedQuery) {
  scenario::Scenario world(small_params());
  world.advance_to(world.start() + 60);

  topology::AsGraph graph_copy(world.graph());
  bgp::RoutingSystem frozen(world.routing(), graph_copy);
  frozen.freeze();

  // Every announced prefix was warmed: routes_for is a pure cache hit
  // and agrees with the (mutable) source world.
  for (const net::Ipv4Prefix& prefix : frozen.all_prefixes()) {
    const bgp::RouteMap& got = frozen.routes_for(prefix);
    const bgp::RouteMap& want = world.routing().routes_for(prefix);
    ASSERT_EQ(got.size(), want.size()) << prefix.to_string();
    for (const auto& [asn, entry] : want) {
      const auto it = got.find(asn);
      ASSERT_NE(it, got.end());
      EXPECT_EQ(it->second.next_hop, entry.next_hop);
      EXPECT_EQ(it->second.origin, entry.origin);
      EXPECT_EQ(it->second.validity, entry.validity);
      EXPECT_EQ(it->second.path_len, entry.path_len);
    }
  }
}

TEST(SnapshotLifecycle, PublishPinReleaseAndSequence) {
  snapshot::EpochPublisher pub(small_params());
  EXPECT_EQ(pub.published_epochs(), 0u);
  EXPECT_FALSE(pub.current());

  pub.advance_to(pub.world().start() + 30);
  snapshot::EpochRef e1 = pub.publish();
  ASSERT_TRUE(e1);
  EXPECT_EQ(e1->sequence(), 1u);
  EXPECT_EQ(pub.published_epochs(), 1u);
  EXPECT_EQ(pub.live_epochs(), 1);
  EXPECT_EQ(e1->pins(), 1);

  // Copying a ref adds a pin; dropping it removes one.
  {
    snapshot::EpochRef extra = e1;
    EXPECT_EQ(e1->pins(), 2);
  }
  EXPECT_EQ(e1->pins(), 1);

  // current() pins the same epoch until the next publish.
  snapshot::EpochRef cur = pub.current();
  ASSERT_TRUE(cur);
  EXPECT_EQ(cur->sequence(), 1u);
  EXPECT_EQ(e1->pins(), 2);
  cur.reset();
  EXPECT_EQ(e1->pins(), 1);
}

TEST(SnapshotLifecycle, NoEpochFreedWhilePinnedAndChainBounded) {
  snapshot::EpochPublisher pub(small_params());
  const util::Date start = pub.world().start();

  pub.advance_to(start + 30);
  snapshot::EpochRef pinned = pub.publish();
  const std::uint64_t pinned_digest = pinned->digest();

  // Three more publishes while the first epoch stays pinned: it must
  // survive (live count = pinned + current), fully readable.
  for (int i = 1; i <= 3; ++i) {
    pub.advance_to(start + 30 + 20 * i);
    pub.publish();  // returned pin dropped immediately
  }
  EXPECT_EQ(pub.published_epochs(), 4u);
  EXPECT_EQ(pub.live_epochs(), 2);  // the pinned one + the current one
  EXPECT_EQ(pinned->sequence(), 1u);
  EXPECT_EQ(pinned->recompute_digest(), pinned_digest);

  // Releasing the pin reclaims the old epoch immediately (grace period
  // is exactly the pin lifetime).
  pinned.reset();
  EXPECT_EQ(pub.live_epochs(), 1);

  // Unpinned publishes never accumulate: the chain stays at length 1.
  for (int i = 4; i <= 9; ++i) {
    pub.advance_to(start + 30 + 20 * i);
    pub.publish();
    EXPECT_EQ(pub.live_epochs(), 1);
  }
}

namespace {
std::string drain_log(std::FILE* sink) {
  std::rewind(sink);
  std::string text;
  char buf[512];
  while (std::fgets(buf, sizeof buf, sink) != nullptr) text += buf;
  return text;
}
}  // namespace

TEST(SnapshotLifecycle, PinLeakDiagnosticNamesStuckEpochs) {
  snapshot::EpochPublisher pub(small_params());
  const util::Date start = pub.world().start();
  EXPECT_EQ(pub.live_epoch_warn_depth(), 0);  // disabled by default
  pub.set_live_epoch_warn_depth(2);

  pub.advance_to(start + 30);
  snapshot::EpochRef leak1 = pub.publish();
  pub.advance_to(start + 50);
  snapshot::EpochRef leak2 = pub.publish();

  // Two leaked pins + the new current epoch: the third publish crosses
  // the depth-2 threshold and must name the two stuck epochs — with
  // digest and pin count — but never the epoch it just installed.
  std::FILE* sink = std::tmpfile();
  ASSERT_NE(sink, nullptr);
  util::set_log_sink(sink);
  pub.advance_to(start + 70);
  snapshot::EpochRef cur = pub.publish();
  util::set_log_sink(nullptr);

  const std::string log = drain_log(sink);
  EXPECT_NE(log.find("epoch chain depth 3 exceeds 2"), std::string::npos)
      << log;
  EXPECT_NE(log.find("stuck epoch seq=1 digest=" +
                     std::to_string(leak1->digest()) + " pins=1"),
            std::string::npos)
      << log;
  EXPECT_NE(log.find("stuck epoch seq=2 digest=" +
                     std::to_string(leak2->digest()) + " pins=1"),
            std::string::npos)
      << log;
  EXPECT_EQ(log.find("stuck epoch seq=3"), std::string::npos) << log;

  // Releasing the leaked pins brings the chain back under the
  // threshold: the next publish is silent.
  leak1.reset();
  leak2.reset();
  std::FILE* quiet_sink = std::tmpfile();
  ASSERT_NE(quiet_sink, nullptr);
  util::set_log_sink(quiet_sink);
  pub.advance_to(start + 90);
  cur = pub.publish();
  util::set_log_sink(nullptr);
  EXPECT_EQ(drain_log(quiet_sink), "");
  std::fclose(quiet_sink);

  // Depth 0 disables the check even with a deep chain.
  pub.set_live_epoch_warn_depth(0);
  snapshot::EpochRef held = cur;
  std::FILE* off_sink = std::tmpfile();
  ASSERT_NE(off_sink, nullptr);
  util::set_log_sink(off_sink);
  pub.advance_to(start + 110);
  pub.publish();
  util::set_log_sink(nullptr);
  EXPECT_EQ(pub.live_epochs(), 2);  // held + current — over any depth
  EXPECT_EQ(drain_log(off_sink), "");
  std::fclose(off_sink);
  std::fclose(sink);
}

TEST(SnapshotImmutability, DigestAtPinEqualsDigestAtRelease) {
  snapshot::EpochPublisher pub(small_params());
  const util::Date start = pub.world().start();
  pub.advance_to(start + 30);
  snapshot::EpochRef epoch = pub.publish();

  const std::uint64_t at_pin = epoch->digest();
  EXPECT_EQ(epoch->recompute_digest(), at_pin);

  // Evolve the build world hard — 200 days of policy events, churn and
  // relying-party reruns — and publish over it repeatedly. The pinned
  // epoch is frozen and shares only immutable route maps; nothing may
  // leak through.
  std::uint64_t last_digest = at_pin;
  bool changed = false;
  for (int i = 1; i <= 4; ++i) {
    pub.advance_to(start + 30 + 50 * i);
    snapshot::EpochRef next = pub.publish();
    EXPECT_EQ(epoch->recompute_digest(), at_pin);
    if (next->digest() != last_digest) changed = true;
    last_digest = next->digest();
  }
  // Digest sensitivity: 200 days of ROA/ROV churn must move the digest
  // at least once — otherwise the immutability check above is vacuous.
  EXPECT_TRUE(changed);
  EXPECT_EQ(epoch->recompute_digest(), at_pin);  // at release
}

TEST(SnapshotImmutability, MemoizedDigestEqualsFullWalkOnEveryPublish) {
  // SLURM views and fault degradation on, so every input of the digest
  // moves somewhere in the series.
  scenario::ScenarioParams params = small_params();
  params.slurm_fraction = 0.35;
  params.faults.rp_failure_rate = 0.15;
  params.faults.rp_divergence_fraction = 0.15;
  params.faults.rtr_drop_rate = 0.15;
  snapshot::EpochPublisher pub(params);

  // Daily publishes from just before the relationship change (the
  // invalidate_all fence) to just after the 2022-05-27 surge of invalid
  // announcements, with incremental VRP installs so most sub-digests
  // come from the memo.
  const util::Date first =
      pub.world().cases().cloudflare_becomes_customer - 5;
  const util::Date last = util::Date::from_ymd(2022, 5, 27) + 5;
  ASSERT_GE(last - first, 60);
  std::size_t relationship_days = 0;
  std::size_t churn_days = 0;
  std::size_t policy_days = 0;
  std::size_t zero_delta_flips = 0;
  std::size_t shared_maps = 0;  // sub-digests the memo could reuse
  snapshot::EpochRef prev;
  std::uint64_t prev_walk = 0;
  std::uint64_t prev_views = 0;
  rpki::VrpSet prev_vrps;
  for (util::Date date = first; date <= last; date = date + 1) {
    SCOPED_TRACE(date.to_string());
    const scenario::AdvanceStats stats =
        pub.advance_to(date, delta_installer());
    snapshot::EpochRef epoch = pub.publish();
    const std::uint64_t walk = epoch->recompute_digest();
    ASSERT_EQ(epoch->digest(), walk);
    if (prev) {
      EXPECT_EQ(epoch->digest() != prev->digest(), walk != prev_walk);
      for (const net::Ipv4Prefix& p : epoch->shared_routing().all_prefixes()) {
        if (epoch->shared_routing().route_map(p) ==
            prev->shared_routing().route_map(p)) {
          ++shared_maps;
        }
      }
      const std::uint64_t views = pub.world().effective_views_digest();
      if (incremental::VrpDeltaComputer::diff(prev_vrps,
                                              pub.world().current_vrps())
              .empty() &&
          views != prev_views) {
        ++zero_delta_flips;
      }
    }
    relationship_days += stats.relationship_events > 0 ? 1 : 0;
    churn_days += stats.announce_events > 0 ? 1 : 0;
    policy_days += stats.policy_events > 0 ? 1 : 0;
    prev = std::move(epoch);
    prev_walk = walk;
    prev_views = pub.world().effective_views_digest();
    prev_vrps = pub.world().current_vrps();
  }
  // The series must exercise the memo and cover every kind of change it
  // has to notice.
  EXPECT_GT(shared_maps, 0u);
  EXPECT_GT(relationship_days, 0u);
  EXPECT_GT(churn_days, 0u);
  EXPECT_GT(policy_days, 0u);
  EXPECT_GT(zero_delta_flips, 0u);
}

TEST(SnapshotSharing, EpochsShareEveryRouteMapTheDayDidNotDirty) {
  snapshot::EpochPublisher pub(small_params());
  const util::Date start = pub.world().start();
  pub.advance_to(start + 30, delta_installer());
  snapshot::EpochRef prev = pub.publish();

  // A publish with nothing dirty converges nothing: the build world is
  // already warm, and the new epoch shares every map with the old one.
  {
    bgp::RoutingSystem& build = pub.world().routing();
    EXPECT_EQ(build.cached_prefixes(), build.all_prefixes().size());
    EXPECT_EQ(build.warm(), 0u);
    const snapshot::EpochRef again = pub.publish();
    for (const net::Ipv4Prefix& p : again->shared_routing().all_prefixes()) {
      EXPECT_EQ(&again->shared_routing().routes_for(p),
                &prev->shared_routing().routes_for(p))
          << p.to_string();
    }
    EXPECT_EQ(again->digest(), prev->digest());
  }

  // Day by day: a prefix gets a new map exactly when the advance erased
  // it — a base-validity flip, an origin announced or withdrawn, or a
  // policy event on a ROV-sensitive prefix (set_policy).
  std::size_t shared = 0;
  std::size_t vrp_dirtied = 0;
  std::size_t churned = 0;
  for (int day = 31; day <= 225; ++day) {  // through the 2022 surge
    SCOPED_TRACE("day " + std::to_string(day));
    std::vector<net::Ipv4Prefix> dirty;
    const scenario::AdvanceStats stats =
        pub.advance_to(start + day, delta_installer(&dirty));
    snapshot::EpochRef next = pub.publish();
    bgp::RoutingSystem& build = pub.world().routing();
    ASSERT_EQ(build.cached_prefixes(), build.all_prefixes().size());
    // Routes converged in the build world; freezing the clone computed
    // nothing, so the epoch holds the build world's own maps.
    for (const net::Ipv4Prefix& p : build.all_prefixes()) {
      ASSERT_EQ(&next->shared_routing().routes_for(p), &build.routes_for(p));
    }
    if (stats.relationship_events > 0) {  // invalidate_all: all new maps
      prev = std::move(next);
      continue;
    }

    bgp::RoutingSystem& before = prev->shared_routing();
    bgp::RoutingSystem& after = next->shared_routing();
    const std::vector<net::Ipv4Prefix> old_prefixes = before.all_prefixes();
    const std::unordered_set<net::Ipv4Prefix> was_announced(
        old_prefixes.begin(), old_prefixes.end());
    const std::unordered_set<net::Ipv4Prefix> flipped(dirty.begin(),
                                                      dirty.end());
    for (const net::Ipv4Prefix& p : after.all_prefixes()) {
      if (!was_announced.contains(p)) {
        ++churned;  // newly announced: necessarily a new map
        continue;
      }
      const bool origins_moved =
          sorted_origins(before, p) != sorted_origins(after, p);
      const bool policy_dropped =
          stats.policy_events > 0 && before.rov_sensitive(p);
      const bool erased =
          flipped.contains(p) || origins_moved || policy_dropped;
      const bool same_map = &before.routes_for(p) == &after.routes_for(p);
      EXPECT_NE(same_map, erased) << p.to_string();
      shared += same_map ? 1 : 0;
      vrp_dirtied += flipped.contains(p) ? 1 : 0;
      churned += origins_moved ? 1 : 0;
    }
    prev = std::move(next);
  }
  // The window must exercise both kinds of erase, and sharing itself.
  EXPECT_GT(shared, 0u);
  EXPECT_GT(vrp_dirtied, 0u);
  EXPECT_GT(churned, 0u);
}

TEST(SnapshotReader, ReadersShareRoutingButOwnHostState) {
  snapshot::EpochPublisher pub(small_params());
  pub.advance_to(pub.world().start() + 30);
  snapshot::EpochRef epoch = pub.publish();

  auto r1 = snapshot::make_reader(epoch);
  auto r2 = snapshot::make_reader(epoch);
  EXPECT_EQ(epoch->pins(), 3);  // our ref + one per reader

  // Same frozen routing underneath...
  EXPECT_EQ(&r1->plane().routing(), &r2->plane().routing());
  EXPECT_TRUE(r1->plane().routing().frozen());
  // ...but private planes and clients.
  EXPECT_NE(&r1->plane(), &r2->plane());
  EXPECT_NE(&r1->client(), &r2->client());

  // Probing through one reader advances only that reader's world.
  const net::Ipv4Address target = epoch->client_addr_b();
  r1->client_a().probe_at(1000, target, 80, 40001);
  r1->plane().sim().run();
  EXPECT_GT(r1->plane().packets_sent(), 0u);
  EXPECT_EQ(r2->plane().packets_sent(), 0u);
  EXPECT_EQ(r2->plane().sim().now(), 0u);

  r1.reset();
  r2.reset();
  EXPECT_EQ(epoch->pins(), 1);
}

}  // namespace
