#include "incremental/fingerprint_memo.h"

#include <algorithm>

namespace rovista::incremental {

FingerprintMemo::FingerprintMemo(
    dataplane::DataPlane& plane,
    std::span<const dataplane::PairEndpoints> pairs,
    const FingerprintMemo& previous)
    : pairs_(pairs.begin(), pairs.end()) {
  pair_streams_.resize(pairs_.size());
  for (std::size_t i = 0; i < pairs_.size(); ++i) {
    const auto keys = dataplane::pair_streams(pairs_[i]);
    for (std::size_t s = 0; s < keys.size(); ++s) {
      pair_streams_[i][s] = intern(plane, keys[s], previous);
    }
  }
  dataplane::append_global_words(plane, globals_);

  const bool globals_same = globals_ == previous.globals_;
  unchanged_.resize(pairs_.size());
  for (std::size_t i = 0; i < pairs_.size(); ++i) {
    unchanged_[i] =
        globals_same && i < previous.pairs_.size() &&
        previous.pairs_[i] == pairs_[i] &&
        std::none_of(pair_streams_[i].begin(), pair_streams_[i].end(),
                     [&](StreamId id) { return stream_changed_[id] != 0; });
  }
  // Computing paths only fills routing caches, which moves no generation.
  generations_ = plane.world_generations();
}

bool FingerprintMemo::current(
    const dataplane::DataPlane& plane,
    std::span<const dataplane::PairEndpoints> pairs) const {
  return generations_ == plane.world_generations() &&
         std::ranges::equal(pairs_, pairs);
}

FingerprintMemo FingerprintMemo::kept() && {
  std::ranges::fill(unchanged_, 1);
  return std::move(*this);
}

FingerprintMemo::StreamId FingerprintMemo::intern(
    dataplane::DataPlane& plane, const dataplane::FingerprintStream& key,
    const FingerprintMemo& previous) {
  const auto [it, inserted] =
      ids_.try_emplace(key, static_cast<StreamId>(offsets_.size() - 1));
  if (!inserted) return it->second;
  dataplane::append_stream_words(plane, key, words_);
  offsets_.push_back(words_.size());
  const auto before = previous.ids_.find(key);
  stream_changed_.push_back(
      before == previous.ids_.end() ||
      !std::ranges::equal(previous.words(before->second), words(it->second)));
  return it->second;
}

std::span<const std::uint64_t> FingerprintMemo::words(StreamId id) const {
  return std::span<const std::uint64_t>(words_).subspan(
      offsets_[id], offsets_[id + 1] - offsets_[id]);
}

std::uint64_t FingerprintMemo::fingerprint(std::size_t i) const {
  std::array<std::span<const std::uint64_t>, dataplane::kPairStreams> streams;
  for (std::size_t s = 0; s < streams.size(); ++s) {
    streams[s] = words(pair_streams_[i][s]);
  }
  return dataplane::hash_streams(streams, globals_);
}

}  // namespace rovista::incremental
