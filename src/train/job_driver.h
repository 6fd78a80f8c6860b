// One training job's plan-and-launch loop, shared by SimulateTraining
// (trainer.h) and every job of RunClusterJobs (cluster_job.h).
//
// A JobDriver plans a model's sync units once: the codec's compression
// rate, SeCoPa's per-gradient <compress?, K> (or the baseline partition
// rules), Horovod-style ring fusion buckets, intra-node local aggregation,
// and the adaptive controller's codec ladder. Each iteration it builds one
// task graph per unit over the job's live nodes and launches unit i once
// its gradients are ready. Graphs run concurrently (CaSync) — a graph a
// peer failure cancels is rebuilt over the survivors and re-executed — or,
// under config.sequential_collectives, through one ordered-collective chain
// with per-unit negotiation (Horovod). At each idle iteration boundary the
// driver attributes the iteration's critical path and lets the adaptive
// controller re-plan. Callers own compute, barriers and bookkeeping.
#ifndef HIPRESS_SRC_TRAIN_JOB_DRIVER_H_
#define HIPRESS_SRC_TRAIN_JOB_DRIVER_H_

#include <functional>
#include <memory>
#include <vector>

#include "src/casync/adaptive.h"
#include "src/casync/builder.h"
#include "src/casync/critical_path.h"
#include "src/casync/engine.h"
#include "src/casync/secopa.h"
#include "src/common/status.h"
#include "src/models/model_profile.h"
#include "src/sim/simulator.h"

namespace hipress {

class JobDriver {
 public:
  // One gradient (or ring fusion bucket) to synchronize.
  struct Unit {
    uint64_t bytes = 0;
    SimTime ready_offset = 0;  // from backward start, incl. local aggregation
    int members = 1;           // gradients fused into this unit
    GradientSync plan;
  };

  // `config` sizes the job (num_nodes = the job's node count) and `nodes`
  // lists its physical node ids on `engine`'s cluster, in order.
  static StatusOr<std::unique_ptr<JobDriver>> Create(
      const ModelProfile& model, const SyncConfig& config,
      const AdaptiveOptions& adaptive, SimTime launch_overhead,
      Simulator* sim, CaSyncEngine* engine, std::vector<int> nodes);
  // Simulator and engine callbacks capture `this`.
  JobDriver(const JobDriver&) = delete;
  JobDriver& operator=(const JobDriver&) = delete;

  // Builds every unit's graph over `nodes` (the job's live nodes; fewer
  // than the job's own means degraded, with partitions clamped) and
  // launches unit i at base + (forward + ready_offset) * stretch +
  // launch_overhead, or now if that has passed. `on_synced` runs once every
  // unit has completed.
  void Launch(std::vector<int> nodes, SimTime base, double stretch,
              std::function<void()> on_synced);

  // Idle boundary after [start, end): critical-path attribution over every
  // graph since the last boundary (recovery rebuilds included), then the
  // adaptive controller's Observe (its decision is adaptive()->decisions()
  // .back()) — refreshed plans apply to the next Launch, a codec switch
  // goes straight to the idle engine. Drops the graphs.
  IterationAttribution EndIteration(int iteration, SimTime start,
                                    SimTime end);

  // Re-plans every unit for a membership view of `new_size` live members.
  void OnMembershipChange(int old_size, int new_size);

  const std::vector<Unit>& units() const { return units_; }
  const std::vector<int>& nodes() const { return nodes_; }
  const std::vector<std::unique_ptr<TaskGraph>>& graphs() const {
    return graphs_;
  }
  SimTime forward() const { return forward_; }
  SimTime compute_time() const { return compute_time_; }
  const AdaptiveController* adaptive() const { return adaptive_.get(); }
  // Graph rebuilds after a cancellation, whole run.
  uint64_t recoveries() const { return recoveries_; }
  // First failure in the latest Launch, -1 when none.
  SimTime recovery_started_at() const { return recovery_started_at_; }

 private:
  struct LaunchState {
    size_t remaining = 0;
    std::vector<int> nodes;
    std::function<void()> on_synced;
  };
  struct ChainEntry {
    size_t unit = 0;
    TaskGraph* graph = nullptr;
    std::shared_ptr<LaunchState> launch;
    bool ready = false;
  };

  JobDriver(const SyncConfig& config, SimTime launch_overhead, Simulator* sim,
            CaSyncEngine* engine, std::vector<int> nodes);
  Status PlanUnits(const ModelProfile& model, const AdaptiveOptions& adaptive);
  GradientSync PlanGradient(const SeCoPaPlanner& planner, uint32_t id,
                            uint64_t bytes) const;
  void RefreshPlans();
  void Run(size_t unit, TaskGraph* graph, std::shared_ptr<LaunchState> launch);
  void PumpChain();

  SyncConfig config_;
  SimTime launch_overhead_;
  Simulator* sim_;
  CaSyncEngine* engine_;
  std::vector<int> nodes_;
  SimTime forward_ = 0;
  SimTime compute_time_ = 0;
  double rate_ = 1.0;
  std::vector<Unit> units_;
  std::unique_ptr<AdaptiveController> adaptive_;
  std::vector<std::unique_ptr<TaskGraph>> graphs_;
  // Horovod ordered collectives: entries run one at a time, in launch
  // order, each once its gradients are ready (across iterations under SSP).
  std::vector<ChainEntry> chain_;
  size_t chain_next_ = 0;
  bool chain_busy_ = false;
  uint64_t recoveries_ = 0;
  SimTime recovery_started_at_ = -1;
};

}  // namespace hipress

#endif  // HIPRESS_SRC_TRAIN_JOB_DRIVER_H_
