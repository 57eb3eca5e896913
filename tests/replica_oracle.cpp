#include "replica_oracle.h"

#include <memory>
#include <utility>

#include "scan/measurement_client.h"

namespace rovista::test {

namespace {

class ScenarioReplica final : public core::MeasurementReplica {
 public:
  ScenarioReplica(const scenario::ScenarioParams& params, util::Date date)
      : scenario_(params) {
    scenario_.advance_to(date);
    client_a_ = std::make_unique<scan::MeasurementClient>(
        scenario_.plane(), scenario_.client_as_a(), scenario_.client_addr_a());
    client_b_ = std::make_unique<scan::MeasurementClient>(
        scenario_.plane(), scenario_.client_as_b(), scenario_.client_addr_b());
  }

  dataplane::DataPlane& plane() override { return scenario_.plane(); }
  scan::MeasurementClient& client() override { return *client_a_; }

 private:
  scenario::Scenario scenario_;
  std::unique_ptr<scan::MeasurementClient> client_a_;
  std::unique_ptr<scan::MeasurementClient> client_b_;
};

}  // namespace

core::ReplicaFactory make_replica_factory(scenario::ScenarioParams params,
                                          util::Date date) {
  if (date < params.start) date = params.start;
  if (date > params.end) date = params.end;
  return [params = std::move(params), date] {
    return std::unique_ptr<core::MeasurementReplica>(
        std::make_unique<ScenarioReplica>(params, date));
  };
}

}  // namespace rovista::test
