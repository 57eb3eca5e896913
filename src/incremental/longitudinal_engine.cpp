#include "incremental/longitudinal_engine.h"

#include <algorithm>
#include <utility>

#include "dataplane/fingerprint.h"
#include "incremental/dirty_prefix.h"
#include "persist/wire.h"
#include "snapshot/world_source.h"
#include "util/logging.h"

namespace rovista::incremental {

using util::LogLevel;

namespace {

std::size_t count_inconclusive(
    const std::vector<core::PairObservation>& observations) {
  std::size_t n = 0;
  for (const core::PairObservation& obs : observations) {
    if (obs.verdict == core::FilteringVerdict::kInconclusive) ++n;
  }
  return n;
}

// Digest helpers: every field that can change measurement output feeds
// the writer. kDigestSchema bumps whenever the field set changes, so an
// old checkpoint meets a clean digest mismatch instead of a stale hash
// collision (docs/FORMATS.md, "Compatibility"). Fault knobs join the
// digest only when enabled — knob-0 configs keep producing the schema-2
// bytes, so their digests (and checkpoints) stay byte-identical to
// pre-fault builds.
constexpr std::uint8_t kDigestSchema = 2;        // 2: + slurm_fraction
constexpr std::uint8_t kDigestSchemaFaults = 3;  // 3: + fault knobs
constexpr std::uint8_t kDigestSchemaCaida = 4;   // 4: + caida topology path

void digest_fault_params(persist::ByteWriter& w, const faults::FaultParams& f) {
  w.f64(f.rp_failure_rate);
  w.f64(f.rp_divergence_fraction);
  w.f64(f.rtr_drop_rate);
  w.f64(f.rtr_corrupt_fraction);
  w.u32(static_cast<std::uint32_t>(f.rp_instance_count));
  w.u32(static_cast<std::uint32_t>(f.fault_window_days));
  w.u32(static_cast<std::uint32_t>(f.rtr_expire_days));
}

void digest_params(persist::ByteWriter& w,
                   const scenario::ScenarioParams& p) {
  w.u64(p.seed);
  w.u32(static_cast<std::uint32_t>(p.topology.tier1_count));
  w.u32(static_cast<std::uint32_t>(p.topology.tier2_count));
  w.u32(static_cast<std::uint32_t>(p.topology.tier3_count));
  w.u32(static_cast<std::uint32_t>(p.topology.stub_count));
  w.f64(p.topology.tier2_peer_prob);
  w.f64(p.topology.tier3_peer_prob);
  w.f64(p.topology.stub_multihome_prob);
  w.u32(p.topology.first_asn);
  w.i64(p.start.days_since_epoch());
  w.i64(p.end.days_since_epoch());
  w.f64(p.roa_fraction_start);
  w.f64(p.roa_fraction_end);
  w.f64(p.rov_end_tier1);
  w.f64(p.rov_end_tier2);
  w.f64(p.rov_end_tier3);
  w.f64(p.rov_end_stub);
  w.f64(p.exempt_customers_fraction);
  w.f64(p.prefer_valid_fraction);
  w.f64(p.slurm_fraction);
  w.u32(static_cast<std::uint32_t>(p.tnode_prefix_count));
  w.u32(static_cast<std::uint32_t>(p.tnode_hosts_per_prefix));
  w.u32(static_cast<std::uint32_t>(p.moas_invalid_count));
  w.u32(static_cast<std::uint32_t>(p.surge_invalid_count));
  w.u32(static_cast<std::uint32_t>(p.measured_as_count));
  w.u32(static_cast<std::uint32_t>(p.hosts_per_measured_as));
  w.f64(p.global_ipid_fraction);
  w.f64(p.background_pareto_xm);
  w.f64(p.background_pareto_alpha);
  w.f64(p.nonstationary_traffic_fraction);
  w.u32(static_cast<std::uint32_t>(p.collector_peer_count));
}

void digest_rovista(persist::ByteWriter& w, const core::RovistaConfig& c) {
  w.f64(c.experiment.probe_interval_s);
  w.u32(static_cast<std::uint32_t>(c.experiment.background_probes));
  w.u32(static_cast<std::uint32_t>(c.experiment.spoof_count));
  w.f64(c.experiment.wait_after_burst_s);
  w.u32(static_cast<std::uint32_t>(c.experiment.observe_probes));
  w.f64(c.experiment.tail_wait_s);
  w.u16(c.experiment.vvp_port);
  w.f64(c.experiment.detector.alpha);
  w.u32(static_cast<std::uint32_t>(c.experiment.detector.max_p));
  w.u32(static_cast<std::uint32_t>(c.experiment.detector.max_q));
  w.f64(c.experiment.detector.spike_packets);
  w.f64(c.experiment.detector.spike_stddev);
  w.u32(static_cast<std::uint32_t>(c.experiment.detector.planned_index));
  w.u8(c.experiment.detector.check_residual_whiteness ? 1 : 0);
  w.u32(static_cast<std::uint32_t>(c.vvp_protocol.probes_per_phase));
  w.f64(c.vvp_protocol.probe_interval_s);
  w.u32(static_cast<std::uint32_t>(c.vvp_protocol.burst_count));
  w.u16(c.vvp_protocol.target_port);
  w.f64(c.vvp_protocol.tail_wait_s);
  w.f64(c.tnode_protocol.rto_min_s);
  w.f64(c.tnode_protocol.rto_max_s);
  w.f64(c.tnode_protocol.observe_s);
  w.u32(static_cast<std::uint32_t>(c.scoring.min_vvps_per_as));
  w.u32(static_cast<std::uint32_t>(c.scoring.min_tnodes));
  w.f64(c.max_background_rate);
  w.u32(static_cast<std::uint32_t>(c.max_vvps_per_as));
  w.f64(c.tnode_reference_threshold);
  // num_threads deliberately excluded: output is thread-invariant and a
  // series may resume at a different parallelism.
}

}  // namespace

scenario::VrpInstaller make_vrp_installer(RoundReport* report) {
  return [report](bgp::RoutingSystem& routing, const rpki::VrpSet& prev,
                  rpki::VrpSet next) {
    const VrpDelta delta = VrpDeltaComputer::diff(prev, next);
    // Nothing to install: leave routing, and so its generation, alone.
    if (delta.empty()) return;
    const DirtyPrefixTracker tracker(delta);
    const std::size_t touched = tracker.touched_announced(routing);
    std::vector<net::Ipv4Prefix> dirty =
        tracker.dirty_prefixes(prev, next, routing);
    if (report != nullptr) {
      report->vrp_announced = delta.announced.size();
      report->vrp_withdrawn = delta.withdrawn.size();
      report->touched_announced = touched;
      report->dirty_prefix_count = dirty.size();
    }
    routing.apply_vrp_delta(std::move(next), dirty, delta.announced,
                            delta.withdrawn);
  };
}

IncrementalLongitudinalRunner::IncrementalLongitudinalRunner(
    IncrementalConfig config)
    : config_(std::move(config)),
      publisher_(std::make_unique<snapshot::EpochPublisher>(config_.params)),
      archive_dir_(config_.archive_dir.empty() ? config_.checkpoint_dir
                                               : config_.archive_dir) {}

IncrementalLongitudinalRunner::~IncrementalLongitudinalRunner() {
  // Exit checkpoint: anything recorded since the last periodic write is
  // persisted so a clean shutdown never loses completed rounds. (A
  // crash loses at most checkpoint_every - 1 rounds.)
  if (!config_.checkpoint_dir.empty() && rounds_since_checkpoint_ > 0) {
    write_checkpoint();
  }
}

std::uint64_t IncrementalLongitudinalRunner::config_digest(
    const IncrementalConfig& config) {
  persist::ByteWriter w;
  const bool faulted = config.params.faults.enabled();
  const std::string& caida = config.params.topology.caida_path;
  // Like the fault knobs, the caida path joins the digest only when set,
  // so synthetic configs keep their schema-2/3 bytes. The digest covers
  // the *path*, not the file contents — swapping the file behind an
  // unchanged path invalidates nothing; use a fresh path per snapshot.
  w.u8(!caida.empty() ? kDigestSchemaCaida
                      : (faulted ? kDigestSchemaFaults : kDigestSchema));
  if (!caida.empty()) {
    w.u8(faulted ? 1 : 0);
    w.u32(static_cast<std::uint32_t>(caida.size()));
    w.bytes({reinterpret_cast<const std::uint8_t*>(caida.data()),
             caida.size()});
  }
  digest_params(w, config.params);
  if (faulted) digest_fault_params(w, config.params.faults);
  digest_rovista(w, config.rovista);
  // The retired engine-mode byte, fed as its constant 1 so that every
  // digest (and with it every checkpoint) keeps its bytes.
  w.u8(1);
  return persist::fnv1a64(w.data());
}

persist::CheckpointState IncrementalLongitudinalRunner::checkpoint_state()
    const {
  persist::CheckpointState state;
  state.config_digest = config_digest(config_);
  state.user_tag = config_.checkpoint_user_tag;
  if (archive_writer_.has_value()) {
    const analytics::RvlaHead& head = archive_writer_->head();
    state.archive = {head.frame_count, head.data_size, archive_writer_->crc()};
  }
  state.vvps = vvps_;
  state.tnodes = tnodes_;
  state.cache_vvp_addrs.assign(cache_.vvp_addrs().begin(),
                               cache_.vvp_addrs().end());
  state.cache_tnode_addrs.assign(cache_.tnode_addrs().begin(),
                                 cache_.tnode_addrs().end());
  state.cache_entries.reserve(cache_.raw_entries().size());
  for (const std::optional<CacheEntry>& e : cache_.raw_entries()) {
    if (e.has_value()) {
      state.cache_entries.emplace_back(
          persist::CacheEntryState{e->fingerprint, e->observation});
    } else {
      state.cache_entries.emplace_back(std::nullopt);
    }
  }
  const scenario::Scenario& world = publisher_->world();
  state.vrps = VrpDeltaComputer::flatten(world.current_vrps());
  if (world.fault_chain() != nullptr) {
    state.faulted = true;
    state.fault_digest = world.fault_chain()->schedule().digest();
  }
  return state;
}

bool IncrementalLongitudinalRunner::restore(
    const persist::CheckpointState& state) {
  if (state.config_digest != config_digest(config_)) {
    util::log(LogLevel::kWarn,
              "checkpoint: config digest mismatch (different scenario/"
              "measurement parameters) — cold start");
    return false;
  }
  if (state.user_tag != config_.checkpoint_user_tag) {
    util::log(LogLevel::kWarn,
              "checkpoint: series tag mismatch (checkpoint belongs to a "
              "differently-shaped series) — cold start");
    return false;
  }
  if (state.faulted != config_.params.faults.enabled()) {
    util::log(LogLevel::kWarn,
              "checkpoint: fault-injection mode mismatch — cold start");
    return false;
  }

  // Stream the frames the checkpoint names: they rebuild the store and
  // give the world replay its dates (the cursor refuses dates that go
  // backwards). The archive must still hold that exact prefix — the
  // same frame count, length and CRC — or the checkpoint describes
  // some other history.
  const persist::ArchiveRef& ref = state.archive;
  std::string error;
  auto cursor = analytics::RvlaCursor::open(archive_dir_, &error);
  if (!cursor.has_value()) {
    util::log(LogLevel::kWarn,
              "checkpoint: no archive to resume from (" + error +
                  ") — cold start");
    return false;
  }
  if (cursor->head().frame_count < ref.frames) {
    util::log(LogLevel::kWarn,
              "checkpoint: archive commits " +
                  std::to_string(cursor->head().frame_count) +
                  " frame(s), the checkpoint names " +
                  std::to_string(ref.frames) + " — cold start");
    return false;
  }
  const char* const other_bytes =
      "checkpoint: archive bytes differ from the checkpoint's reference "
      "(length or CRC) — cold start";
  if (analytics::data_crc(archive_dir_, ref.length) != ref.crc) {
    util::log(LogLevel::kWarn, other_bytes);
    return false;
  }
  core::LongitudinalStore store;
  std::vector<Date> dates;
  std::vector<core::AsScore> scores;
  while (dates.size() < ref.frames) {
    const std::optional<analytics::RvlaFrame> frame = cursor->next();
    if (!frame.has_value()) {
      util::log(LogLevel::kWarn,
                "checkpoint: archive frames unreadable — cold start");
      return false;
    }
    scores.resize(frame->asns.size());
    for (std::size_t i = 0; i < scores.size(); ++i) {
      scores[i].asn = frame->asns[i];
      scores[i].score = frame->scores[i];
    }
    store.record(frame->date, scores);
    if (frame->has_health) store.record_health(frame->date, frame->health);
    dates.push_back(frame->date);
  }
  const analytics::RvlaHead head = cursor->read_head();
  if (head.data_size != ref.length) {
    util::log(LogLevel::kWarn, other_bytes);
    return false;
  }

  // Replay the tracking world over the archived dates, through the same
  // install path run_round uses. Deterministic and measurement-free:
  // only BGP/RP work, no probing.
  auto world = std::make_unique<scenario::Scenario>(config_.params);
  for (const Date date : dates) {
    world->advance_to(date, make_vrp_installer(nullptr));
  }

  // Oracle check: the replayed relying-party output must equal the
  // snapshot taken when the checkpoint was written. flatten() is sorted
  // unique, so equality is positional.
  const std::vector<rpki::Vrp> replayed =
      VrpDeltaComputer::flatten(world->current_vrps());
  std::vector<rpki::Vrp> stored = state.vrps;
  std::sort(stored.begin(), stored.end());
  if (replayed != stored) {
    util::log(LogLevel::kWarn,
              "checkpoint: replayed VRP state disagrees with stored "
              "snapshot — cold start");
    return false;
  }

  // Fault oracle: the rebuilt world must carry the very fault schedule
  // the checkpoint was written under — including mid-failure-window
  // resumes, since the schedule is precomputed and date-independent.
  if (state.faulted) {
    const faults::FaultChain* chain = world->fault_chain();
    if (chain == nullptr ||
        chain->schedule().digest() != state.fault_digest) {
      util::log(LogLevel::kWarn,
                "checkpoint: replayed fault schedule disagrees with "
                "stored digest — cold start");
      return false;
    }
  }

  // All checks passed. Cut the archive back to the named frames: frames
  // a crash left past them become debris that the next append drops.
  auto writer =
      analytics::RvlaWriter::reopen(archive_dir_, head, ref.crc, &error);
  if (!writer.has_value()) {
    util::log(LogLevel::kWarn, "checkpoint: " + error + " — cold start");
    return false;
  }

  // Install: the publisher adopts the replayed world as its build world
  // (nothing published yet; the next round publishes as usual). Nothing
  // below can fail in a way that breaks soundness: a cache shape
  // mismatch just clears the cache, which only costs recomputation.
  publisher_ = std::make_unique<snapshot::EpochPublisher>(std::move(world));
  store_ = std::move(store);
  archive_writer_ = std::move(writer);
  archive_failed_ = false;
  vvps_ = state.vvps;
  tnodes_ = state.tnodes;
  completed_rounds_ = dates.size();
  // run_round keeps views_digest_ equal to the latest round's digest
  // (reuse is only ever granted while it is unchanged), so the replayed
  // world's digest is exactly the one the restored lists were last
  // validated against. Zero — hence a no-op — in fault-free worlds.
  views_digest_ = publisher_->world().effective_views_digest();

  std::vector<std::optional<CacheEntry>> entries;
  entries.reserve(state.cache_entries.size());
  for (const std::optional<persist::CacheEntryState>& e :
       state.cache_entries) {
    if (e.has_value()) {
      entries.emplace_back(CacheEntry{e->fingerprint, e->observation});
    } else {
      entries.emplace_back(std::nullopt);
    }
  }
  if (!cache_.restore(state.cache_vvp_addrs, state.cache_tnode_addrs,
                      std::move(entries))) {
    util::log(LogLevel::kWarn,
              "checkpoint: score-cache shape mismatch — cache dropped, "
              "next round recomputes in full");
  }
  // The memo is not checkpointed: the next round re-hashes every pair.
  memo_ = FingerprintMemo();
  rounds_since_checkpoint_ = 0;
  return true;
}

bool IncrementalLongitudinalRunner::resume_from_checkpoint() {
  if (config_.checkpoint_dir.empty()) return false;
  const auto state = persist::load_checkpoint_file(config_.checkpoint_dir);
  if (!state.has_value()) {
    util::log(LogLevel::kWarn, "checkpoint: no usable checkpoint in " +
                                   config_.checkpoint_dir + " — cold start");
    return false;
  }
  return restore(*state);
}

bool IncrementalLongitudinalRunner::write_checkpoint() {
  // With the archive off, a checkpoint would pair this round's state
  // with fewer frames than rounds — a resume from it would be unsound.
  if (config_.checkpoint_dir.empty() || archive_failed_) return false;
  if (!checkpoint_writer_.has_value()) {
    checkpoint_writer_ = persist::CheckpointWriter::open(config_.checkpoint_dir);
    if (!checkpoint_writer_.has_value()) return false;
  }
  if (!checkpoint_writer_->write(checkpoint_state())) {
    checkpoint_writer_.reset();
    return false;
  }
  rounds_since_checkpoint_ = 0;
  return true;
}

void IncrementalLongitudinalRunner::finish_round(
    Date date, std::span<const core::AsScore> scores,
    const core::RoundHealth& health) {
  store_.record(date, scores);
  ++completed_rounds_;
  if (!archive_dir_.empty() && !archive_failed_) {
    std::vector<std::pair<core::Asn, double>> rows;
    rows.reserve(scores.size());
    for (const core::AsScore& s : scores) rows.emplace_back(s.asn, s.score);
    const analytics::RvlaFrame frame = analytics::make_frame(
        date, rows, world().fault_chain() != nullptr, health);
    std::string error;
    if (!archive_writer_.has_value()) {
      // A cold start's first round begins a fresh archive.
      archive_writer_ = analytics::RvlaWriter::create(
          archive_dir_, std::span(&frame, 1), &error);
    } else if (!archive_writer_->append(frame, &error)) {
      archive_writer_.reset();
    }
    if (!archive_writer_.has_value()) {
      util::log(LogLevel::kWarn,
                "archive: " + error +
                    " — archive and checkpoints off for the rest of this run");
      archive_failed_ = true;
    }
  }
  maybe_checkpoint();
}

void IncrementalLongitudinalRunner::maybe_checkpoint() {
  ++rounds_since_checkpoint_;
  if (config_.checkpoint_dir.empty() || config_.checkpoint_every <= 0) {
    return;
  }
  if (rounds_since_checkpoint_ >=
      static_cast<std::size_t>(config_.checkpoint_every)) {
    write_checkpoint();
  }
}

RoundReport IncrementalLongitudinalRunner::run_round(Date date) {
  RoundReport report;
  report.date = date;

  // 1. Advance the tracking world, installing the new VRPs by delta
  // (the shared installer also fills the delta fields of the report).
  const scenario::AdvanceStats stats =
      publisher_->advance_to(date, make_vrp_installer(&report));
  report.events = stats.events();
  report.relying_party_skipped = stats.relying_party_skipped;

  // The round's epoch: one immutable snapshot of the fully-advanced
  // tracking world (VRPs installed, fault views bound), shared by the
  // discovery pass and every measurement worker below. The previous
  // round's epoch is released here; it dies once its last reader does.
  const snapshot::EpochRef epoch = publisher_->publish();
  report.epoch_shared = publisher_->last_publish_shared();

  // Round health: only fault-injection worlds record it, keeping the
  // store (and everything published from it) byte-identical otherwise.
  if (world().fault_chain() != nullptr) {
    const faults::DegradationStats& d = world().degradation();
    report.health.stale_ases = d.stale_ases;
    report.health.expired_ases = d.expired_ases;
    report.health.diverged_ases = d.diverged_ases;
    report.health.max_staleness_days = d.max_staleness_days;
    report.health.error_reports = d.error_reports;
    store_.record_health(date, report.health);
  }

  // 2. Discovery: reuse the previous round's lists only when nothing the
  // acquisition pipeline reads can have changed — no timeline events, no
  // announced prefix touched by the VRP delta, and (under fault
  // injection) no change to any per-AS effective view. The last guard
  // matters because a failure window opening or stale data crossing the
  // expire threshold flips reference-AS ROV behaviour with a VRP delta
  // of exactly zero.
  const std::uint64_t views_digest = world().effective_views_digest();
  const bool can_reuse_discovery =
      completed_rounds_ > 0 && report.events == 0 &&
      report.touched_announced == 0 && views_digest == views_digest_;
  if (!can_reuse_discovery) {
    snapshot::RoundInputs inputs =
        snapshot::acquire_inputs_on_epoch(world(), epoch, config_.rovista);
    vvps_ = std::move(inputs.vvps);
    tnodes_ = std::move(inputs.tnodes);
  }
  views_digest_ = views_digest;
  report.discovery_reused = can_reuse_discovery;

  const std::size_t v_count = vvps_.size();
  const std::size_t t_count = tnodes_.size();
  report.total_rows = v_count;
  report.total_pairs = v_count * t_count;

  const core::ParallelRoundRunner runner(
      snapshot::make_reader_factory(epoch),
      {config_.rovista.experiment, config_.rovista.scoring,
       config_.rovista.num_threads});

  // 3. Fingerprint every pair on the tracking world and find dirty rows.
  // The memo computes each distinct word stream once; a pair whose
  // streams all match last round's keeps the fingerprint its cache
  // entry holds, and only the others are re-hashed. A world no mutator
  // touched since last round's memo keeps that memo, every pair
  // unchanged.
  scenario::Scenario& tracking = world();
  dataplane::DataPlane& plane = tracking.plane();
  std::vector<dataplane::PairEndpoints> pairs;
  pairs.reserve(v_count * t_count);
  for (const scan::Vvp& vvp : vvps_) {
    for (const scan::Tnode& tnode : tnodes_) {
      pairs.push_back({tracking.client_as_a(), tracking.client_addr_a(),
                       vvp.asn, vvp.address, plane.as_of(tnode.address),
                       tnode.address});
    }
  }
  report.memo_kept = memo_.current(plane, pairs);
  FingerprintMemo memo =
      report.memo_kept ? std::exchange(memo_, FingerprintMemo()).kept()
                       : FingerprintMemo(plane, pairs, memo_);

  const bool cache_usable = cache_.matches(vvps_, tnodes_);
  std::vector<std::uint64_t> fingerprints(pairs.size(), 0);
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    const CacheEntry* entry =
        cache_usable && memo.unchanged(i)
            ? cache_.lookup(i / t_count, i % t_count)
            : nullptr;
    if (entry != nullptr) {
      fingerprints[i] = entry->fingerprint;
    } else {
      fingerprints[i] = memo.fingerprint(i);
      ++report.rehashed_pairs;
    }
  }

  if (!cache_usable) {
    cache_.reset(vvps_, tnodes_);
    report.matrix_reset = true;
  }

  std::vector<std::size_t> dirty_rows;
  dirty_rows.reserve(v_count);
  for (std::size_t v = 0; v < v_count; ++v) {
    bool row_dirty = !cache_usable;
    for (std::size_t t = 0; !row_dirty && t < t_count; ++t) {
      const CacheEntry* entry = cache_.lookup(v, t);
      row_dirty =
          entry == nullptr || entry->fingerprint != fingerprints[v * t_count + t];
    }
    if (row_dirty) dirty_rows.push_back(v);
  }
  report.dirty_rows = dirty_rows.size();
  report.executed_pairs = dirty_rows.size() * t_count;
  report.reused_pairs = report.total_pairs - report.executed_pairs;

  // 4. Execute dirty rows in their canonical slots; merge cached
  // observations for the clean rows.
  core::MeasurementRound round;
  round.observations.resize(v_count * t_count);
  round.experiments_run = v_count * t_count;
  if (round.experiments_run == 0) round.observations.clear();

  runner.run_rows(vvps_, tnodes_, dirty_rows, round.observations);

  std::size_t next_dirty = 0;
  for (std::size_t v = 0; v < v_count; ++v) {
    const bool executed =
        next_dirty < dirty_rows.size() && dirty_rows[next_dirty] == v;
    if (executed) {
      ++next_dirty;
      for (std::size_t t = 0; t < t_count; ++t) {
        cache_.store(v, t, fingerprints[v * t_count + t],
                     round.observations[v * t_count + t]);
      }
    } else {
      for (std::size_t t = 0; t < t_count; ++t) {
        round.observations[v * t_count + t] =
            cache_.lookup(v, t)->observation;
      }
    }
  }
  // Every cache entry now holds this round's fingerprint, the one the
  // memo's streams hash to: commit the two together.
  memo_ = std::move(memo);

  round.inconclusive = count_inconclusive(round.observations);
  round.scores =
      core::aggregate_scores(round.observations, config_.rovista.scoring);
  report.round = std::move(round);
  finish_round(date, report.round.scores, report.health);
  return report;
}

}  // namespace rovista::incremental
