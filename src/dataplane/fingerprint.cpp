#include "dataplane/fingerprint.h"

#include <bit>

#include "rpki/validation.h"

namespace rovista::dataplane {

namespace {

void append_journey(DataPlane& plane, Asn from_as, net::Ipv4Address dst,
                    std::vector<std::uint64_t>& out) {
  const PathResult path = plane.compute_path(from_as, dst);
  out.push_back(path.delivered ? 1 : 0);
  out.push_back(static_cast<std::uint64_t>(path.reason));
  out.push_back(path.hops.size());
  const bgp::RoutingSystem& routing = plane.routing();
  for (const Asn hop : path.hops) {
    const FilterConfig& f = plane.filter(hop);
    out.push_back(hop);
    out.push_back((f.sav_egress ? 1u : 0u) |
                  (f.egress_drop_invalid_source ? 2u : 0u) |
                  (f.ingress_drop_external ? 4u : 0u));
    out.push_back(routing.policy_epoch(hop));
  }
}

void append_address_context(const bgp::RoutingSystem& routing,
                            net::Ipv4Address addr,
                            std::vector<std::uint64_t>& out) {
  out.push_back(addr.value());
  const auto prefixes = routing.candidate_prefixes(addr);
  out.push_back(prefixes.size());
  for (const net::Ipv4Prefix& prefix : prefixes) {
    out.push_back(prefix.address().value());
    out.push_back(prefix.length());
    for (const Asn origin : routing.origins_of(prefix)) {
      out.push_back(origin);
      out.push_back(
          static_cast<std::uint64_t>(routing.base_validity(prefix, origin)));
    }
  }
}

}  // namespace

std::array<FingerprintStream, kPairStreams> pair_streams(
    const PairEndpoints& p) {
  using Kind = FingerprintStream::Kind;
  return {{{Kind::kJourney, p.client_as, p.vvp_addr},
           {Kind::kJourney, p.vvp_as, p.client_addr},
           {Kind::kJourney, p.client_as, p.tnode_addr},
           {Kind::kJourney, p.tnode_as, p.vvp_addr},
           {Kind::kJourney, p.vvp_as, p.tnode_addr},
           {Kind::kAddress, 0, p.client_addr},
           {Kind::kAddress, 0, p.vvp_addr},
           {Kind::kAddress, 0, p.tnode_addr}}};
}

void append_stream_words(DataPlane& plane, const FingerprintStream& stream,
                         std::vector<std::uint64_t>& out) {
  if (stream.kind == FingerprintStream::Kind::kJourney) {
    append_journey(plane, stream.from_as, stream.addr, out);
  } else {
    append_address_context(plane.routing(), stream.addr, out);
  }
}

void append_global_words(const DataPlane& plane,
                         std::vector<std::uint64_t>& out) {
  out.push_back(static_cast<std::uint64_t>(plane.hop_latency()));
  out.push_back(std::bit_cast<std::uint64_t>(plane.loss_probability()));
}

std::uint64_t hash_streams(
    std::span<const std::span<const std::uint64_t>, kPairStreams> streams,
    std::span<const std::uint64_t> globals) {
  std::uint64_t hash = 0xcbf29ce484222325ull;
  const auto mix = [&hash](std::span<const std::uint64_t> words) {
    for (const std::uint64_t word : words) {
      for (int i = 0; i < 8; ++i) {
        hash ^= (word >> (8 * i)) & 0xffu;
        hash *= 0x100000001b3ull;
      }
    }
  };
  for (const std::span<const std::uint64_t> stream : streams) mix(stream);
  mix(globals);
  return hash;
}

std::uint64_t pair_fingerprint(DataPlane& plane, const PairEndpoints& pair) {
  const std::array<FingerprintStream, kPairStreams> keys = pair_streams(pair);
  std::array<std::vector<std::uint64_t>, kPairStreams> words;
  std::array<std::span<const std::uint64_t>, kPairStreams> streams;
  for (std::size_t i = 0; i < kPairStreams; ++i) {
    append_stream_words(plane, keys[i], words[i]);
    streams[i] = words[i];
  }
  std::vector<std::uint64_t> globals;
  append_global_words(plane, globals);
  return hash_streams(streams, globals);
}

}  // namespace rovista::dataplane
