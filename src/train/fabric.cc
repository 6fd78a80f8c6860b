#include "src/train/fabric.h"

#include <utility>

namespace hipress {

Fabric::Fabric(int num_nodes, const NetworkConfig& net, bool record_timeline,
               const ObservabilityOptions& observability,
               const std::vector<std::string>& events)
    : watchdog_enabled_(observability.watchdog),
      metrics_(std::make_shared<MetricsRegistry>()),
      spans_(record_timeline ? std::make_shared<SpanCollector>() : nullptr),
      net_(&sim_, num_nodes, net, metrics_.get(), spans_.get()) {
  gpu_storage_.reserve(static_cast<size_t>(num_nodes));
  for (int node = 0; node < num_nodes; ++node) {
    gpu_storage_.push_back(
        std::make_unique<GpuDevice>(&sim_, node, 2, metrics_.get()));
    if (record_timeline) {
      gpu_storage_.back()->set_record_timeline(true);
    }
    gpus_.push_back(gpu_storage_.back().get());
  }
  // Always-on black box: every net send/delivery, transport retry and
  // driver event appends a 24-byte record to the owning node's ring.
  // Installed as the process fatal hook so a CHECK failure dumps the rings
  // before aborting.
  if (observability.flight_recorder) {
    FlightRecorder::Options fr_options;
    fr_options.num_nodes = num_nodes;
    fr_options.events_per_node = observability.flight_events_per_node;
    fr_options.dump_path = observability.flight_dump_path;
    flight_ = std::make_shared<FlightRecorder>(fr_options);
    for (const std::string& name : events) {
      events_.push_back(flight_->Intern(name));
    }
    net_.set_flight_recorder(flight_.get());
    FlightRecorder::InstallGlobal(flight_.get());
  }
}

void Fabric::ArmWatchdog(const std::vector<std::string>& counters,
                         const std::vector<std::string>& gauges,
                         std::vector<HealthRule> rules) {
  if (!watchdog_enabled_) {
    return;
  }
  for (const std::string& counter : counters) {
    hub_.AttachCounter(metrics_.get(), counter);
  }
  for (const std::string& gauge : gauges) {
    hub_.AttachGauge(metrics_.get(), gauge);
  }
  watchdog_ =
      std::make_unique<HealthMonitor>(&hub_, metrics_.get(), flight_.get());
  for (HealthRule& rule : rules) {
    watchdog_->AddRule(std::move(rule));
  }
  // A trip is exactly the moment the black box exists for.
  watchdog_->set_on_trip([this](const HealthRule&) {
    if (flight_ != nullptr) {
      flight_->TriggerDump("watchdog-trip");
    }
  });
}

void Fabric::FeedWatchdog(const std::string& series, SimTime end,
                          double iteration_ms) {
  if (watchdog_ == nullptr) {
    return;
  }
  hub_.Series(series).Observe(end, iteration_ms);
  metrics_->gauge("sim.queue_depth")
      .Set(static_cast<double>(sim_.queue_depth()));
  hub_.SampleAll(end);
  watchdog_->Evaluate(end);
}

HealthReport Fabric::Finish() {
  HealthReport health;
  if (watchdog_ != nullptr) {
    health = watchdog_->Finalize();
  }
  // Scheduler health (docs/TOPOLOGY.md): event volume, sustained event
  // rate, peak queue depth and pool misses of the run.
  sim_.PublishHealth(metrics_.get());
  if (flight_ != nullptr) {
    flight_->PublishMetrics(metrics_.get());
    if (!flight_->dump_path().empty()) {
      flight_->TriggerDump("end-of-run");
    }
  }
  return health;
}

}  // namespace hipress
