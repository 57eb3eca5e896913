#include "snapshot/epoch_world.h"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <vector>

#include "scenario/scenario.h"

namespace rovista::snapshot {

namespace {

// Same FNV-1a shape as dataplane/fingerprint.cpp — local on purpose,
// this digest is a lifetime invariant of one epoch, not a wire format.
class Fnv1a {
 public:
  void mix(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      hash_ ^= (v >> (i * 8)) & 0xff;
      hash_ *= 0x100000001b3ull;
    }
  }
  std::uint64_t value() const noexcept { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ull;
};

std::uint64_t prefix_key(const net::Ipv4Prefix& p) noexcept {
  return (std::uint64_t{p.address().value()} << 8) | p.length();
}

void mix_vrp_set(Fnv1a& h, const rpki::VrpSet& set) {
  std::vector<rpki::Vrp> vrps;
  vrps.reserve(set.size());
  set.for_each([&](const rpki::Vrp& v) { vrps.push_back(v); });
  std::sort(vrps.begin(), vrps.end());
  h.mix(vrps.size());
  for (const rpki::Vrp& v : vrps) {
    h.mix(prefix_key(v.prefix));
    h.mix(v.max_length);
    h.mix(v.asn);
  }
}

// splitmix64's finalizer: a full-avalanche mix of one 64-bit word.
std::uint64_t mix64(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

// Sub-digest of one announced prefix: its key, its origins and the
// converged route of every AS. Each route entry is mixed as two whole
// words and the entry hashes are summed, so the value does not depend
// on hash-map iteration order.
std::uint64_t prefix_digest(const bgp::RoutingSystem& routing,
                            const net::Ipv4Prefix& prefix,
                            const bgp::RouteMap& routes) {
  std::vector<topology::Asn> origins = routing.origins_of(prefix);
  std::sort(origins.begin(), origins.end());
  std::uint64_t h = mix64(prefix_key(prefix));
  for (const topology::Asn origin : origins) h = mix64(h ^ origin);
  std::uint64_t entries = 0;
  for (const auto& [asn, e] : routes) {
    const std::uint64_t hop = (std::uint64_t{asn} << 32) | e.next_hop;
    const std::uint64_t route =
        (std::uint64_t{e.origin} << 32) |
        (static_cast<std::uint64_t>(e.learned_from) << 24) |
        (static_cast<std::uint64_t>(e.validity) << 16) | e.path_len;
    entries += mix64(mix64(hop) ^ route);
  }
  return mix64(mix64(h ^ routes.size()) ^ entries);
}

// The state digest: the number of announced prefixes, the sum of their
// sub-digests (from `sub`), and the RPKI surface — base VRPs plus the
// per-AS fault-degraded views, content-fingerprinted, so a fault window
// flipping one AS's view moves the digest even with a base-VRP delta of
// exactly zero. Each sub-digest carries its prefix's key, so summing
// them keeps the digest independent of iteration order.
template <typename SubDigest>
std::uint64_t compose_state_digest(const bgp::RoutingSystem& routing,
                                   SubDigest&& sub) {
  const std::vector<net::Ipv4Prefix> prefixes = routing.all_prefixes();
  std::uint64_t routes = 0;
  for (const net::Ipv4Prefix& prefix : prefixes) routes += sub(prefix);
  Fnv1a h;
  h.mix(prefixes.size());
  h.mix(routes);
  mix_vrp_set(h, routing.vrps());
  h.mix(routing.effective_views_fingerprint());
  h.mix(routing.slurm_view_count());
  return h.value();
}

// The epoch digest: the date, then the state digest.
std::uint64_t epoch_digest(Date date, std::uint64_t state_digest) {
  Fnv1a h;
  h.mix(static_cast<std::uint64_t>(date.days_since_epoch()));
  h.mix(state_digest);
  return h.value();
}

}  // namespace

std::uint64_t DigestMemo::digest(const bgp::RoutingSystem& routing) {
  // Rebuilt every publish, so the memo holds exactly the current maps.
  std::unordered_map<net::Ipv4Prefix, Entry> next;
  next.reserve(entries_.size());
  const std::uint64_t digest =
      compose_state_digest(routing, [&](const net::Ipv4Prefix& prefix) {
        std::shared_ptr<const bgp::RouteMap> routes = routing.route_map(prefix);
        if (routes == nullptr) {
          throw std::logic_error("DigestMemo: " + prefix.to_string() +
                                 " is announced but not converged");
        }
        const auto it = entries_.find(prefix);
        const std::uint64_t sub =
            it != entries_.end() && it->second.routes == routes
                ? it->second.digest
                : prefix_digest(routing, prefix, *routes);
        next.emplace(prefix, Entry{std::move(routes), sub});
        return sub;
      });
  entries_ = std::move(next);
  return digest;
}

FrozenState::FrozenState(const scenario::Scenario& world, DigestMemo& digests)
    : client_as_a_(world.client_as_a()),
      client_as_b_(world.client_as_b()),
      client_addr_a_(world.client_addr_a()),
      client_addr_b_(world.client_addr_b()) {
  // Scenario's accessors are non-const for historical reasons; epoch
  // materialization only reads, so the cast is sound.
  auto& mutable_world = const_cast<scenario::Scenario&>(world);
  graph_ = std::make_unique<topology::AsGraph>(world.graph());
  routing_ = std::make_unique<bgp::RoutingSystem>(mutable_world.routing(),
                                                  *graph_);
  routing_->freeze();
  template_plane_ = mutable_world.plane().clone_fresh(*routing_);
  digest_ = digests.digest(*routing_);
}

std::uint64_t FrozenState::recompute_digest() const {
  return compose_state_digest(*routing_, [this](const net::Ipv4Prefix& p) {
    return prefix_digest(*routing_, p, routing_->routes_for(p));
  });
}

EpochWorld::EpochWorld(std::shared_ptr<const FrozenState> state, Date date,
                       std::uint64_t sequence,
                       std::shared_ptr<std::atomic<long>> live)
    : state_(std::move(state)),
      sequence_(sequence),
      date_(date),
      digest_(epoch_digest(date, state_->digest())),
      live_(std::move(live)) {
  if (live_) live_->fetch_add(1, std::memory_order_relaxed);
}

EpochWorld::~EpochWorld() {
  if (live_) live_->fetch_sub(1, std::memory_order_relaxed);
}

std::uint64_t EpochWorld::recompute_digest() const {
  return epoch_digest(date_, state_->recompute_digest());
}

EpochReader::EpochReader(EpochRef epoch) : epoch_(std::move(epoch)) {
  const EpochWorld& w = epoch_.world();
  plane_ = w.template_plane().clone_fresh(w.shared_routing());
  client_a_ = std::make_unique<scan::MeasurementClient>(
      *plane_, w.client_as_a(), w.client_addr_a());
  client_b_ = std::make_unique<scan::MeasurementClient>(
      *plane_, w.client_as_b(), w.client_addr_b());
}

}  // namespace rovista::snapshot
