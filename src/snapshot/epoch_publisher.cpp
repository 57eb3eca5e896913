#include "snapshot/epoch_publisher.h"

#include <algorithm>
#include <string>

#include "util/logging.h"

namespace rovista::snapshot {

EpochPublisher::EpochPublisher(scenario::ScenarioParams params)
    : world_(std::make_unique<scenario::Scenario>(std::move(params))),
      live_(std::make_shared<std::atomic<long>>(0)) {}

EpochPublisher::EpochPublisher(std::unique_ptr<scenario::Scenario> world)
    : world_(std::move(world)),
      live_(std::make_shared<std::atomic<long>>(0)) {}

EpochRef EpochPublisher::publish() {
  const std::uint64_t seq =
      sequence_.fetch_add(1, std::memory_order_relaxed) + 1;
  // Warm and materialize outside the lock: both touch only the
  // (publisher-private) build world and the new epoch.
  world_->routing().warm();
  const dataplane::WorldGenerations generations =
      world_->plane().world_generations();
  last_shared_ = state_ != nullptr && generations == state_generations_;
  if (!last_shared_) {
    state_ = std::make_shared<const FrozenState>(*world_, digests_);
    state_generations_ = generations;
  }
  auto epoch = std::make_shared<const EpochWorld>(state_, world_->current(),
                                                  seq, live_);
  std::lock_guard<std::mutex> lock(current_mutex_);
  current_ = epoch;  // previous epoch: kept alive only by reader pins
  published_.erase(
      std::remove_if(published_.begin(), published_.end(),
                     [](const std::weak_ptr<const EpochWorld>& w) {
                       return w.expired();
                     }),
      published_.end());
  published_.push_back(epoch);

  const long warn_depth = warn_depth_.load(std::memory_order_relaxed);
  const long live = live_->load(std::memory_order_relaxed);
  if (warn_depth > 0 && live > warn_depth) {
    util::log(util::LogLevel::kWarn,
              "epoch chain depth " + std::to_string(live) + " exceeds " +
                  std::to_string(warn_depth) +
                  " after publishing epoch " + std::to_string(seq) +
                  " — a reader is likely holding a stale pin");
    for (const std::weak_ptr<const EpochWorld>& w : published_) {
      const std::shared_ptr<const EpochWorld> stuck = w.lock();
      if (!stuck || stuck->sequence() == seq) continue;
      util::log(util::LogLevel::kWarn,
                "  stuck epoch seq=" + std::to_string(stuck->sequence()) +
                    " digest=" + std::to_string(stuck->digest()) +
                    " pins=" + std::to_string(stuck->pins()));
    }
  }
  return EpochRef(std::move(epoch));
}

EpochRef EpochPublisher::current() const {
  std::lock_guard<std::mutex> lock(current_mutex_);
  return current_ ? EpochRef(current_) : EpochRef();
}

}  // namespace rovista::snapshot
