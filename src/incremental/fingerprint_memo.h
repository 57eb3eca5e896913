// One round's pair-fingerprint word streams (dataplane/fingerprint.h),
// kept so the next round can tell which pairs' fingerprints changed.
//
// A matrix of P pairs hashes 8·P streams, but few distinct ones: the
// vVP journeys and address repeat along a row, the tNode ones down a
// column, and the client's address context in every pair. Building a
// memo computes each distinct stream once on the round's world and
// compares its words with the previous round's memo. A pair is
// unchanged when its endpoints equal the previous memo's pair at the
// same position and each of its eight streams and the globals has the
// same words: its fingerprint is then the one the previous round
// computed for that position. Every other pair is hashed from the
// memoized words by fingerprint(), equal bit for bit to
// dataplane::pair_fingerprint.
//
// Reuse follows from comparing recomputed words: a stream the previous
// memo lacks counts as changed, and an empty previous memo leaves every
// pair changed. Words are recomputed only when they can have changed: a
// memo records the world generations (dataplane::WorldGenerations) it
// was built at, and while none has moved and the pairs are the same,
// every word is provably still the world's, so the memo is kept whole
// (current(), kept()) instead of re-walking its journeys.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <unordered_map>
#include <vector>

#include "dataplane/fingerprint.h"

namespace rovista::incremental {

class FingerprintMemo {
 public:
  FingerprintMemo() = default;

  /// The streams of `pairs` on `plane`, each distinct one computed once,
  /// and each pair compared with `previous`, the memo of the last round.
  FingerprintMemo(dataplane::DataPlane& plane,
                  std::span<const dataplane::PairEndpoints> pairs,
                  const FingerprintMemo& previous);

  /// This memo's words are still those of `plane`'s world for `pairs`:
  /// no generation of the graph, routing or plane has moved since it
  /// was built, and it covers exactly `pairs`.
  bool current(const dataplane::DataPlane& plane,
               std::span<const dataplane::PairEndpoints> pairs) const;

  /// This memo as the next round's, every pair unchanged. Call only when
  /// current() holds for the next round's world and pairs.
  FingerprintMemo kept() &&;

  /// Pair i's fingerprint equals the previous memo's pair i's.
  bool unchanged(std::size_t i) const noexcept { return unchanged_[i] != 0; }

  /// Pair i's fingerprint, hashed from the memoized words.
  std::uint64_t fingerprint(std::size_t i) const;

 private:
  using StreamId = std::uint32_t;

  struct StreamHash {
    std::size_t operator()(
        const dataplane::FingerprintStream& s) const noexcept {
      const std::uint64_t key =
          (std::uint64_t{s.from_as} << 32) | s.addr.value();
      return std::hash<std::uint64_t>{}(key * 0x9e3779b97f4a7c15ull +
                                        static_cast<std::uint64_t>(s.kind));
    }
  };

  StreamId intern(dataplane::DataPlane& plane,
                  const dataplane::FingerprintStream& key,
                  const FingerprintMemo& previous);
  std::span<const std::uint64_t> words(StreamId id) const;

  dataplane::WorldGenerations generations_;  // the world's, once built
  std::vector<dataplane::PairEndpoints> pairs_;
  std::vector<std::array<StreamId, dataplane::kPairStreams>> pair_streams_;
  std::unordered_map<dataplane::FingerprintStream, StreamId, StreamHash>
      ids_;
  // Stream id → words_[offsets_[id], offsets_[id + 1]).
  std::vector<std::uint64_t> words_;
  std::vector<std::size_t> offsets_{0};
  std::vector<char> stream_changed_;  // by stream id, vs `previous`
  std::vector<std::uint64_t> globals_;
  std::vector<char> unchanged_;       // by pair
};

}  // namespace rovista::incremental
