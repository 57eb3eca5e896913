// Reachability fingerprint of one (vVP, tNode) measurement pair.
//
// The experiment's packets traverse exactly five directed journeys:
//
//   client AS → vVP        (SYN/ACK probes)
//   vVP AS    → client     (the probes' RSTs)
//   client AS → tNode      (the spoofed burst; source = vVP address)
//   tNode AS  → vVP        (the burst's SYN/ACKs, plus RTO retransmits)
//   vVP AS    → tNode      (the vVP's RSTs answering those SYN/ACKs)
//
// Given a fixed canonical time slot, host construction seeds and probe
// schedule (all functions of the scenario parameters and the pair's
// matrix position), the experiment outcome is a deterministic function
// of how those journeys forward and filter. The fingerprint digests,
// per journey: the control-plane path (delivered / drop reason / hop
// list) and each hop's FilterConfig and policy epoch; plus, for each of
// the three addresses involved, its covering announced prefixes with
// their origins and base validities (these feed source-invalid egress
// filtering and LPM); plus the global loss probability and hop latency.
//
// Those are word streams: one per journey and one per address context
// (each a function of its FingerprintStream key and the world, never of
// the pair), then the globals. The fingerprint is FNV-1a over their
// concatenation in the order pair_streams() lists them, followed by the
// globals (hash_streams). A caller fingerprinting many pairs of one
// world may therefore compute each distinct stream once and hash every
// pair from the memoized words, and gets pair_fingerprint's values bit
// for bit; the incremental engine does (incremental/fingerprint_memo.h).
// The values are stored in checkpoints (RVCP SCORECACHE), so the streams'
// words and order are part of the format.
//
// Equal fingerprints across two worlds ⇒ the pair's packets see
// identical treatment ⇒ the observation can be reused. Hash collisions
// are the usual 64-bit FNV caveat and are ignored by design.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "dataplane/dataplane.h"

namespace rovista::dataplane {

/// The six endpoints of one measurement pair.
struct PairEndpoints {
  Asn client_as = 0;
  net::Ipv4Address client_addr;
  Asn vvp_as = 0;
  net::Ipv4Address vvp_addr;
  Asn tnode_as = 0;
  net::Ipv4Address tnode_addr;

  bool operator==(const PairEndpoints&) const = default;
};

/// Key of one word stream: a directed journey (packets sent from inside
/// `from_as` to `addr`) or the context of the address `addr`.
struct FingerprintStream {
  enum class Kind : std::uint8_t { kJourney, kAddress };
  Kind kind = Kind::kJourney;
  Asn from_as = 0;  // journeys only
  net::Ipv4Address addr;

  bool operator==(const FingerprintStream&) const = default;
};

/// Streams per pair, not counting the globals.
inline constexpr std::size_t kPairStreams = 8;

/// A pair's streams in hashing order: the five journeys as listed above,
/// then the client, vVP and tNode address contexts.
std::array<FingerprintStream, kPairStreams> pair_streams(
    const PairEndpoints& pair);

/// Append the words of `stream`, as found on `plane`, to `out`.
void append_stream_words(DataPlane& plane, const FingerprintStream& stream,
                         std::vector<std::uint64_t>& out);

/// Append the words of the globals every journey is subject to (hop
/// latency, loss probability) to `out`.
void append_global_words(const DataPlane& plane,
                         std::vector<std::uint64_t>& out);

/// FNV-1a over `streams` in order, then `globals`.
std::uint64_t hash_streams(
    std::span<const std::span<const std::uint64_t>, kPairStreams> streams,
    std::span<const std::uint64_t> globals);

/// The reference: every stream of `pair` computed afresh on `plane`,
/// then hashed.
std::uint64_t pair_fingerprint(DataPlane& plane, const PairEndpoints& pair);

}  // namespace rovista::dataplane
