// The simulated cluster both training drivers run on: SimulateTraining
// (trainer.h) and RunClusterJobs (cluster_job.h).
//
// A Fabric owns one metrics registry, the optional span collector (only
// when the caller records a timeline), the Simulator, the Network, one
// GpuDevice per node, and the observability stack of
// docs/OBSERVABILITY.md: the always-on flight recorder (installed as the
// process fatal hook), the windowed series hub and the health watchdog.
// It also owns the two feeds both drivers share: the per-iteration
// watchdog feed and the end-of-run publish. Drivers keep their own
// engines, job drivers, loops and reports.
#ifndef HIPRESS_SRC_TRAIN_FABRIC_H_
#define HIPRESS_SRC_TRAIN_FABRIC_H_

#include <memory>
#include <string>
#include <vector>

#include "src/casync/engine.h"
#include "src/common/flight_recorder.h"
#include "src/common/metrics.h"
#include "src/common/timeseries.h"
#include "src/common/watchdog.h"
#include "src/net/network.h"
#include "src/sim/simulator.h"
#include "src/simgpu/gpu.h"

namespace hipress {

class Fabric {
 public:
  // `events` are the driver's own flight-event names. They are interned
  // first and in order, ahead of the network's, so their HPFR type ids
  // stay stable; Record takes an index into this list.
  Fabric(int num_nodes, const NetworkConfig& net, bool record_timeline,
         const ObservabilityOptions& observability,
         const std::vector<std::string>& events);
  // Simulator callbacks and the watchdog's trip hook capture `this`.
  Fabric(const Fabric&) = delete;
  Fabric& operator=(const Fabric&) = delete;

  // Records `engine`'s transport retries and retry-budget exhaustion in
  // the black box (its ReliableChannel exists under fault injection).
  void WireEngine(CaSyncEngine* engine) {
    if (flight_ != nullptr && engine->reliable_channel() != nullptr) {
      engine->reliable_channel()->set_flight_recorder(flight_.get());
    }
  }

  // Arms the watchdog when observability.watchdog is on: mirrors the named
  // registry counters (as per-sample deltas) and gauges into the hub, then
  // adds `rules`. A trip dumps the black box.
  void ArmWatchdog(const std::vector<std::string>& counters,
                   const std::vector<std::string>& gauges,
                   std::vector<HealthRule> rules);
  bool watching() const { return watchdog_ != nullptr; }

  // Appends the driver event `event` (index into the constructor's list)
  // to `node`'s ring; no-op with the recorder off.
  void Record(int node, size_t event, SimTime at, uint64_t a0,
              uint64_t a1 = 0) {
    if (flight_ != nullptr) {
      flight_->Record(node, events_[event], at, a0, a1);
    }
  }

  // The per-iteration feed at an iteration end: observes `iteration_ms`
  // on `series`, publishes sim.queue_depth, samples every attached metric
  // and evaluates the rules. No-op while the watchdog is not armed.
  void FeedWatchdog(const std::string& series, SimTime end,
                    double iteration_ms);

  // End-of-run publish: closes the watchdog's report (empty when never
  // armed), sets the sim.* and fr.* gauges, and writes the end-of-run dump
  // when a dump path is set.
  HealthReport Finish();

  const std::shared_ptr<MetricsRegistry>& metrics() const { return metrics_; }
  const std::shared_ptr<SpanCollector>& spans() const { return spans_; }
  const std::shared_ptr<FlightRecorder>& flight() const { return flight_; }
  Simulator& sim() { return sim_; }
  Network& net() { return net_; }
  const std::vector<GpuDevice*>& gpus() const { return gpus_; }
  TimeSeriesHub& hub() { return hub_; }

 private:
  const bool watchdog_enabled_;
  std::shared_ptr<MetricsRegistry> metrics_;
  std::shared_ptr<SpanCollector> spans_;
  Simulator sim_;
  Network net_;
  std::vector<std::unique_ptr<GpuDevice>> gpu_storage_;
  std::vector<GpuDevice*> gpus_;
  std::shared_ptr<FlightRecorder> flight_;
  std::vector<uint16_t> events_;
  TimeSeriesHub hub_;
  std::unique_ptr<HealthMonitor> watchdog_;
};

}  // namespace hipress

#endif  // HIPRESS_SRC_TRAIN_FABRIC_H_
