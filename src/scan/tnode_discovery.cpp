#include "scan/tnode_discovery.h"

#include <algorithm>

namespace rovista::scan {

std::vector<net::Ipv4Prefix> select_test_prefixes(
    const bgp::CollectorSnapshot& snapshot, const rpki::VrpSet& vrps) {
  std::vector<net::Ipv4Prefix> out;
  for (const auto& [prefix, origins] : snapshot.origins_by_prefix()) {
    if (origins.empty()) continue;
    const bool all_invalid =
        std::all_of(origins.begin(), origins.end(), [&](topology::Asn o) {
          return vrps.validate(prefix, o) == rpki::RouteValidity::kInvalid;
        });
    if (all_invalid) out.push_back(prefix);
  }
  return out;
}

TnodeBehaviour qualify_tnode(dataplane::DataPlane& plane,
                             MeasurementClient& client_a,
                             MeasurementClient& client_b,
                             net::Ipv4Address target, std::uint16_t port,
                             const TnodeProtocolConfig& config) {
  TnodeBehaviour behaviour;
  const TimeUs observe = dataplane::microseconds(config.observe_s);

  // Phase 1 — spoofed SYN, nobody answers: the tNode should SYN/ACK and
  // then retransmit on RTO.
  client_b.clear();
  const TimeUs t0 = plane.sim().now() + 1000;
  client_a.spoofed_syn_at(t0, client_b.address(), target, port, 51001);
  plane.sim().run_until(t0 + observe);

  {
    const std::vector<TimeUs> arrivals =
        client_b.syn_ack_times(target, 51001);
    behaviour.responds_to_spoof = !arrivals.empty();
    if (arrivals.size() >= 2) {
      const double gap = dataplane::to_seconds(arrivals[1] - arrivals[0]);
      behaviour.implements_rto =
          gap >= config.rto_min_s && gap <= config.rto_max_s;
    }
  }

  // Phase 2 — spoofed SYN, B RSTs the SYN/ACK: no retransmission may
  // follow. B's RST is sent shortly after the SYN/ACK would arrive and
  // before the earliest legitimate RTO.
  client_b.clear();
  const TimeUs t1 = plane.sim().now() + 1000;
  client_a.spoofed_syn_at(t1, client_b.address(), target, port, 51002);
  const TimeUs rst_time = t1 + dataplane::microseconds(0.3);
  client_b.send_at(rst_time,
                   net::Packet::make_tcp(client_b.address(), target, 51002,
                                         port, net::TcpFlags::kRst, 0));
  plane.sim().run_until(t1 + observe);

  {
    const std::vector<TimeUs> arrivals =
        client_b.syn_ack_times(target, 51002);
    // Count only SYN/ACKs arriving after the RST had time to land.
    const TimeUs settled = rst_time + dataplane::microseconds(0.3);
    const auto late = std::count_if(
        arrivals.begin(), arrivals.end(),
        [settled](TimeUs arrival) { return arrival > settled; });
    behaviour.stops_after_rst = behaviour.responds_to_spoof && late == 0;
  }

  return behaviour;
}

std::vector<Tnode> filter_false_tnodes(
    dataplane::DataPlane& plane, std::vector<Tnode> tnodes,
    std::span<const topology::Asn> rov_reference_ases,
    std::span<const topology::Asn> non_rov_reference_ases,
    double threshold) {
  std::vector<Tnode> out;
  for (const Tnode& tnode : tnodes) {
    std::size_t rov_unreachable = 0;
    for (const topology::Asn asn : rov_reference_ases) {
      if (!plane.compute_path(asn, tnode.address).delivered) {
        ++rov_unreachable;
      }
    }
    std::size_t nonrov_reachable = 0;
    for (const topology::Asn asn : non_rov_reference_ases) {
      if (plane.compute_path(asn, tnode.address).delivered) {
        ++nonrov_reachable;
      }
    }
    const bool rov_ok =
        rov_reference_ases.empty() ||
        static_cast<double>(rov_unreachable) >=
            threshold * static_cast<double>(rov_reference_ases.size());
    const bool nonrov_ok =
        non_rov_reference_ases.empty() ||
        static_cast<double>(nonrov_reachable) >=
            threshold * static_cast<double>(non_rov_reference_ases.size());
    if (rov_ok && nonrov_ok) out.push_back(tnode);
  }
  return out;
}

}  // namespace rovista::scan
