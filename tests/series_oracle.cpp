#include "series_oracle.h"

#include <map>
#include <stdexcept>
#include <utility>

#include "core/parallel_round.h"
#include "core/publish.h"
#include "snapshot/world_source.h"

namespace rovista::test {

SeriesOracle::SeriesOracle(scenario::ScenarioParams params,
                           core::RovistaConfig rovista)
    : publisher_(std::move(params)), rovista_(std::move(rovista)) {}

const OracleRound& SeriesOracle::run_round(util::Date date) {
  if (!rounds_.empty() && date <= rounds_.back().date) {
    throw std::logic_error("SeriesOracle: dates must strictly increase");
  }
  publisher_.advance_to(date);
  const snapshot::EpochRef epoch = publisher_.publish();
  scenario::Scenario& world = publisher_.world();
  const snapshot::RoundInputs inputs =
      snapshot::acquire_inputs_on_epoch(world, epoch, rovista_);
  const core::ParallelRoundRunner runner(
      snapshot::make_reader_factory(epoch),
      {rovista_.experiment, rovista_.scoring, rovista_.num_threads});

  OracleRound& out = rounds_.emplace_back();
  out.date = date;
  out.vvp_count = inputs.vvps.size();
  out.tnode_count = inputs.tnodes.size();
  out.round = runner.run(inputs.vvps, inputs.tnodes);
  if (world.fault_chain() != nullptr) {
    const faults::DegradationStats& d = world.degradation();
    out.health.stale_ases = d.stale_ases;
    out.health.expired_ases = d.expired_ases;
    out.health.diverged_ases = d.diverged_ases;
    out.health.max_staleness_days = d.max_staleness_days;
    out.health.error_reports = d.error_reports;
  }
  return out;
}

std::optional<std::size_t> SeriesOracle::publish(
    const std::string& directory) const {
  std::optional<core::DatasetWriter> out =
      core::DatasetWriter::create(directory);
  if (!out.has_value()) return std::nullopt;
  const bool faulted = publisher_.world().fault_chain() != nullptr;
  std::map<util::Date, core::RoundHealth> health;
  std::vector<std::pair<core::Asn, double>> rows;
  for (const OracleRound& r : rounds_) {
    // Scores arrive in ascending ASN order. A date that scored no AS
    // gets no scores file and no index row; its health still counts.
    if (!r.round.scores.empty()) {
      rows.clear();
      for (const core::AsScore& s : r.round.scores) {
        rows.emplace_back(s.asn, s.score);
      }
      out->add_date(r.date, rows);
    }
    if (faulted) health[r.date] = r.health;
  }
  return out->finish(health);
}

}  // namespace rovista::test
