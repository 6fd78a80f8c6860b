#include "src/train/trainer.h"

#include <algorithm>
#include <cstring>
#include <numeric>

#include "src/common/logging.h"
#include "src/common/string_util.h"
#include "src/net/membership.h"
#include "src/train/fabric.h"
#include "src/train/job_driver.h"

namespace hipress {
namespace {

// Static feasibility walk over the crash + membership schedule: joins only
// admit non-members, leaves only remove members, rejoins need a prior
// crash, and the view never empties. Detection timing is dynamic, but the
// node sets are decidable up front.
Status ValidateMembershipSchedule(int num_nodes, const FaultConfig& faults) {
  std::vector<bool> standby(static_cast<size_t>(num_nodes), false);
  for (const int node : faults.standby_nodes) {
    if (node < 0 || node >= num_nodes) {
      return InvalidArgumentError(
          StrFormat("standby node %d out of range", node));
    }
    if (standby[node]) {
      return InvalidArgumentError(
          StrFormat("standby node %d listed twice", node));
    }
    standby[node] = true;
  }
  std::vector<bool> member(static_cast<size_t>(num_nodes), false);
  std::vector<bool> crashed(static_cast<size_t>(num_nodes), false);
  int members = 0;
  for (int node = 0; node < num_nodes; ++node) {
    member[node] = !standby[node];
    members += member[node] ? 1 : 0;
  }
  if (members == 0) {
    return InvalidArgumentError("every node is standby");
  }
  struct WalkEvent {
    SimTime at = 0;
    int order = 0;  // crashes sort before membership events at equal time
    int node = -1;
    MembershipEventKind kind = MembershipEventKind::kJoin;
  };
  std::vector<WalkEvent> walk;
  for (const NodeCrash& crash : faults.crashes) {
    walk.push_back(WalkEvent{crash.at, 0, crash.node, {}});
  }
  for (const MembershipEvent& event : faults.membership) {
    if (event.node < 0 || event.node >= num_nodes) {
      return InvalidArgumentError(StrFormat(
          "%s node %d out of range", MembershipEventKindName(event.kind),
          event.node));
    }
    walk.push_back(WalkEvent{event.at, 1, event.node, event.kind});
  }
  std::sort(walk.begin(), walk.end(),
            [](const WalkEvent& a, const WalkEvent& b) {
              return a.at != b.at     ? a.at < b.at
                     : a.order != b.order ? a.order < b.order
                                          : a.node < b.node;
            });
  for (const WalkEvent& event : walk) {
    if (event.order == 0) {  // crash
      if (member[event.node]) {
        member[event.node] = false;
        if (--members == 0) {
          return InvalidArgumentError("crash schedule empties the cluster");
        }
      }
      crashed[event.node] = true;
      continue;
    }
    switch (event.kind) {
      case MembershipEventKind::kJoin:
        if (member[event.node]) {
          return InvalidArgumentError(
              StrFormat("join of current member %d", event.node));
        }
        if (crashed[event.node]) {
          return InvalidArgumentError(StrFormat(
              "join of crashed node %d (use rejoin)", event.node));
        }
        member[event.node] = true;
        ++members;
        break;
      case MembershipEventKind::kLeave:
        if (!member[event.node]) {
          return InvalidArgumentError(
              StrFormat("leave of non-member %d", event.node));
        }
        member[event.node] = false;
        if (--members == 0) {
          return InvalidArgumentError("leave schedule empties the cluster");
        }
        break;
      case MembershipEventKind::kRejoin:
        if (!crashed[event.node]) {
          return InvalidArgumentError(StrFormat(
              "rejoin of node %d without a prior crash", event.node));
        }
        crashed[event.node] = false;
        member[event.node] = true;
        ++members;
        break;
    }
  }
  return OkStatus();
}

// The trainer's own flight events, interned in this order ahead of the
// network's (Fabric keeps their HPFR type ids stable).
enum TrainEvent : size_t { kIterStart, kIterEnd, kRecovery, kMemberChange };

// Elastic membership (docs/FAULT_TOLERANCE.md). The manager keeps an
// epoch-numbered view of the live worker set; scheduled joins/leaves and
// crash rejoins apply at iteration boundaries (the engine is idle, so
// plans rebuild and the channel epoch advances without touching in-flight
// graphs). Each node carries a small replicated model state whose
// per-iteration delta is a pure function of (seed, iteration): live
// replicas stay bit-identical, a crashed replica is invalidated until a
// donor re-sync restores it, and a churned run must finish with exactly
// the churn-free run's state — the chaos-soak gate.
//
// Every transition is reached only through a scheduled membership event or
// a transport-detected crash. Either means fault injection or a live
// ReliableChannel, so the engine always built one and the session sends
// state over it directly.
class MembershipSession {
 public:
  MembershipSession(const ModelProfile& model, const FaultConfig& faults,
                    bool active, int num_nodes, Fabric* fabric,
                    CaSyncEngine* engine, JobDriver* driver)
      : faults_(faults),
        fabric_(fabric),
        engine_(engine),
        driver_(driver),
        manager_(num_nodes, faults.standby_nodes, fabric->metrics().get()),
        state_seed_(faults.seed ^ 0x6d6f64656cULL),  // "model"
        model_state_(static_cast<size_t>(num_nodes)),
        state_valid_(static_cast<size_t>(num_nodes), false),
        crash_processed_(faults.crashes.size(), false),
        rejoined_(static_cast<size_t>(num_nodes), false),
        schedule_(faults.membership) {
    for (int node = 0; node < num_nodes; ++node) {
      model_state_[node].resize(kStateFloats);
      for (size_t j = 0; j < kStateFloats; ++j) {
        model_state_[node][j] =
            static_cast<float>(FaultUniform(state_seed_, j));
      }
    }
    for (const int node : manager_.members()) {
      state_valid_[node] = true;
    }
    for (const uint64_t bytes : model.gradient_bytes) {
      model_bytes_ += bytes;
    }
    std::sort(schedule_.begin(), schedule_.end(),
              [](const MembershipEvent& a, const MembershipEvent& b) {
                return a.at != b.at ? a.at < b.at : a.node < b.node;
              });
    report_.enabled = active;
  }

  // The current view; failed or departed nodes neither compute nor sync.
  const std::vector<int>& members() const { return manager_.members(); }

  // A node that crashed, re-synced and rejoined is computing again.
  void CountContribution(int node) {
    if (rejoined_[node]) {
      ++report_.rejoined_contributions;
    }
  }

  // Applies crash evictions and due membership events at an iteration
  // boundary, then re-plans over the new view, advances the channel
  // epoch, and trims the wire pool when the view shrank.
  Status ProcessBoundary(SimTime boundary) {
    Simulator& sim = fabric_->sim();
    SpanCollector* spans = fabric_->spans().get();
    const int old_size = manager_.size();
    bool changed = EvictFailed(spans);
    while (next_event_ < schedule_.size() &&
           schedule_[next_event_].at <= boundary) {
      const MembershipEvent event = schedule_[next_event_++];
      if (event.at > sim.now()) {
        // Apply the transition at its scheduled time — a rejoin's crash
        // window only closes at event.at, so an earlier re-sync would send
        // into the blackhole.
        sim.ScheduleAt(event.at, [] {});
        sim.Run();
      }
      switch (event.kind) {
        case MembershipEventKind::kLeave: {
          if (!manager_.is_member(event.node) || manager_.size() <= 1) {
            break;  // crashed before its planned leave; nothing to drain
          }
          // Planned drain: in-flight units already completed (the engine
          // is idle at a boundary); the leaver ships its partition share
          // to the lowest-id remaining member, then exits cleanly.
          int successor = -1;
          for (const int member : manager_.members()) {
            if (member != event.node) {
              successor = member;
              break;
            }
          }
          const uint64_t share =
              model_bytes_ / static_cast<uint64_t>(manager_.size());
          const SimTime took =
              TransferState(event.node, successor, share, false);
          manager_.Remove(event.node, MembershipChange::kLeave, sim.now());
          state_valid_[event.node] = false;
          TransitionMs("membership.drain_ms").Observe(ToMillis(took));
          report_.resync_time += took;
          if (spans) {
            spans->Add(event.node, kTraceLaneMembership,
                       StrFormat("leave node %d (drain)", event.node),
                       sim.now() - took, sim.now());
          }
          changed = true;
          break;
        }
        case MembershipEventKind::kJoin:
        case MembershipEventKind::kRejoin: {
          const bool is_rejoin = event.kind == MembershipEventKind::kRejoin;
          if (is_rejoin && manager_.is_member(event.node)) {
            // The crash this rejoin answers was never detected (no traffic
            // touched the corpse); evict it first so the epoch history
            // reflects the full crash->rejoin cycle. When false transport
            // blames have already evicted everyone else, nobody is left to
            // re-sync it from.
            if (manager_.size() <= 1) {
              return UnavailableError(StrFormat(
                  "rejoin of node %d: no live donor left to re-sync from",
                  event.node));
            }
            manager_.Remove(event.node, MembershipChange::kCrash, sim.now());
          }
          if (manager_.is_member(event.node)) {
            break;  // duplicate admit; validation rejects hand-written ones
          }
          if (is_rejoin) {
            engine_->ReviveNode(event.node);
          }
          // Donor re-sync: the lowest-id member streams current model
          // state to the (re)joining node over the pooled wire path.
          const int donor = manager_.members().front();
          const SimTime took =
              TransferState(donor, event.node, model_bytes_, true);
          manager_.Admit(event.node,
                         is_rejoin ? MembershipChange::kRejoin
                                   : MembershipChange::kJoin,
                         sim.now());
          ++report_.resyncs;
          report_.resync_bytes += model_bytes_;
          report_.resync_time += took;
          TransitionMs("membership.resync_ms").Observe(ToMillis(took));
          if (is_rejoin) {
            rejoined_[event.node] = true;
          }
          if (spans) {
            spans->Add(event.node, kTraceLaneMembership,
                       StrFormat("%s node %d (resync from %d)",
                                 is_rejoin ? "rejoin" : "join", event.node,
                                 donor),
                       sim.now() - took, sim.now());
          }
          changed = true;
          break;
        }
      }
    }
    if (!changed) {
      return OkStatus();
    }
    const int new_size = manager_.size();
    fabric_->Record(0, kMemberChange, sim.now(), manager_.epoch(),
                    static_cast<uint64_t>(new_size));
    // Messages stamped under the old view are now stale on delivery.
    engine_->reliable_channel()->set_epoch(manager_.epoch());
    driver_->OnMembershipChange(old_size, new_size);
    if (new_size < old_size) {
      // Shrunken view: release the wire pool's peak-size buckets but keep
      // the proportional warm share so the smaller cluster stays miss-free
      // (watermark Trim, docs/MEMORY.md).
      BufferPool* wire_pool = fabric_->net().wire_pool();
      const BufferPool::Stats wire = wire_pool->stats();
      const size_t keep = static_cast<size_t>(wire.free_bytes) *
                          static_cast<size_t>(new_size) /
                          static_cast<size_t>(old_size);
      pool_trimmed_bytes_ += wire_pool->Trim(keep);
    }
    return OkStatus();
  }

  // Model-state step: every member that survived iteration `iteration`
  // (ending at `end`) applies the same (seed, iteration)-derived delta, so
  // live replicas stay bit-identical and a resynced joiner lands on the
  // churn-free sum. Ordinals start at kStateFloats to stay disjoint from
  // the init draws.
  void Step(int iteration, SimTime end) {
    InvalidateCrashed(end);
    for (const int node : manager_.members()) {
      if (!state_valid_[node] || engine_->node_failed(node)) {
        continue;
      }
      for (size_t j = 0; j < kStateFloats; ++j) {
        const uint64_t ordinal =
            static_cast<uint64_t>(iteration + 1) * kStateFloats + j;
        model_state_[node][j] += static_cast<float>(
            FaultUniform(state_seed_, ordinal) - 0.5);
      }
    }
  }

  // Quiesces the view — crashes detected during the final iteration
  // become evictions, so the report's view matches the epoch log — and
  // closes the report with the chaos-soak check: every final member holds
  // valid model state, bit-identical across members, fingerprinted for
  // cross-run comparison.
  MembershipReport Finish() {
    EvictFailed(nullptr);
    report_.final_epoch = manager_.epoch();
    report_.final_members = manager_.members();
    report_.joins = manager_.joins();
    report_.leaves = manager_.leaves();
    report_.crashes = manager_.crashes();
    report_.rejoins = manager_.rejoins();
    report_.event_log = manager_.LogString();
    report_.state_consistent = !report_.final_members.empty();
    const std::vector<float>& canon = model_state_[report_.final_members[0]];
    for (const int node : report_.final_members) {
      if (!state_valid_[node] ||
          std::memcmp(model_state_[node].data(), canon.data(), kStateBytes) !=
              0) {
        report_.state_consistent = false;
        break;
      }
    }
    uint64_t fingerprint = 14695981039346656037ULL;  // FNV-1a offset basis
    const uint8_t* canon_bytes =
        reinterpret_cast<const uint8_t*>(canon.data());
    for (size_t b = 0; b < kStateBytes; ++b) {
      fingerprint ^= canon_bytes[b];
      fingerprint *= 1099511628211ULL;
    }
    report_.model_fingerprint = fingerprint;
    MetricsRegistry* metrics = fabric_->metrics().get();
    metrics->counter("membership.resyncs").Increment(report_.resyncs);
    metrics->counter("membership.resync_bytes")
        .Increment(report_.resync_bytes);
    // Every leave is a planned drain.
    metrics->counter("membership.drains").Increment(manager_.leaves());
    metrics->counter("membership.rejoined_contributions")
        .Increment(report_.rejoined_contributions);
    metrics->counter("membership.pool_trimmed_bytes")
        .Increment(pool_trimmed_bytes_);
    TransitionMs("membership.resync_ms");  // published even when empty
    TransitionMs("membership.drain_ms");
    metrics->gauge("membership.state_consistent")
        .Set(report_.state_consistent ? 1.0 : 0.0);
    metrics->gauge("membership.final_members")
        .Set(static_cast<double>(report_.final_members.size()));
    return report_;
  }

 private:
  static constexpr size_t kStateFloats = 32;
  static constexpr size_t kStateBytes = kStateFloats * sizeof(float);

  // Ships `bytes` of state from src to dst over the pooled wire path and
  // runs the simulator to quiescence; returns the transfer's duration. The
  // payload carries src's replicated model state; `copy_state` installs it
  // on dst at delivery (donor re-sync), while drain handoffs only account
  // the wire time.
  SimTime TransferState(int src, int dst, uint64_t bytes, bool copy_state) {
    Simulator& sim = fabric_->sim();
    const SimTime started = sim.now();
    const std::span<const uint8_t> view(
        reinterpret_cast<const uint8_t*>(model_state_[src].data()),
        kStateBytes);
    NetMessage message;
    message.src = src;
    message.dst = dst;
    message.bytes = std::max<uint64_t>(1, bytes);
    message.tag = 0xe1a0000 + static_cast<uint64_t>(manager_.epoch());
    message.payload = MakePooledPayload(view, fabric_->net().wire_pool());
    engine_->reliable_channel()->Send(
        std::move(message),
        [this, dst, copy_state](const NetMessage& delivered) {
          if (!copy_state) {
            return;
          }
          auto payload =
              std::static_pointer_cast<PooledBytes>(delivered.payload);
          std::memcpy(model_state_[dst].data(), payload->data(),
                      std::min<size_t>(payload->size(), kStateBytes));
          state_valid_[dst] = true;
        },
        [](const Status&) {});
    sim.Run();
    return sim.now() - started;
  }

  Histogram& TransitionMs(const std::string& name) {
    return fabric_->metrics()->histogram(
        name, HistogramBuckets::Exponential(0.125, 2.0, 16));
  }

  // Crash detections from the reliable transport become membership
  // evictions (after the ground-truth invalidation below); true when the
  // view changed.
  bool EvictFailed(SpanCollector* spans) {
    const SimTime now = fabric_->sim().now();
    InvalidateCrashed(now);
    bool changed = false;
    for (const int node : engine_->failed_nodes()) {
      if (manager_.is_member(node) && manager_.size() > 1) {
        manager_.Remove(node, MembershipChange::kCrash, now);
        changed = true;
        if (spans) {
          spans->Add(node, kTraceLaneMembership,
                     StrFormat("crash node %d", node), now, now);
        }
      }
    }
    return changed;
  }

  // Ground-truth crash bookkeeping: a replica inside a crash window loses
  // its state (until re-synced) whether or not the transport has blamed
  // the node yet.
  void InvalidateCrashed(SimTime upto) {
    for (size_t c = 0; c < faults_.crashes.size(); ++c) {
      if (!crash_processed_[c] && faults_.crashes[c].at <= upto) {
        crash_processed_[c] = true;
        state_valid_[faults_.crashes[c].node] = false;
      }
    }
  }

  const FaultConfig& faults_;
  Fabric* fabric_;
  CaSyncEngine* engine_;
  JobDriver* driver_;
  MembershipManager manager_;
  const uint64_t state_seed_;
  std::vector<std::vector<float>> model_state_;
  std::vector<bool> state_valid_;
  uint64_t model_bytes_ = 0;
  std::vector<bool> crash_processed_;
  std::vector<bool> rejoined_;
  std::vector<MembershipEvent> schedule_;
  size_t next_event_ = 0;
  uint64_t pool_trimmed_bytes_ = 0;
  MembershipReport report_;
};

// Straggler skew of the iteration that started at `iter_start`: per-node
// offset of the last sync-task completion, max minus median across the
// nodes that synchronized (0 with fewer than two).
double StragglerSkewMs(const JobDriver& driver, int num_nodes,
                       SimTime iter_start) {
  std::vector<SimTime> last_end(static_cast<size_t>(num_nodes),
                                kTaskNeverRan);
  for (const auto& graph : driver.graphs()) {
    for (TaskId id = 0; id < graph->size(); ++id) {
      const SyncTask& task = graph->task(id);
      if (task.node < 0 || task.end_time == kTaskNeverRan) {
        continue;
      }
      last_end[task.node] = std::max(last_end[task.node], task.end_time);
    }
  }
  std::vector<SimTime> offsets;
  for (const SimTime t : last_end) {
    if (t != kTaskNeverRan) {
      offsets.push_back(t - iter_start);
    }
  }
  if (offsets.size() < 2) {
    return 0.0;
  }
  std::sort(offsets.begin(), offsets.end());
  const size_t n = offsets.size();
  const SimTime median = n % 2 == 1
                             ? offsets[n / 2]
                             : (offsets[n / 2 - 1] + offsets[n / 2]) / 2;
  return ToMillis(offsets.back() - median);
}

// The adaptive controller's latest decision as adaptive.* metrics, plus a
// trace span over the iteration when it re-planned.
void PublishAdaptiveDecision(const AdaptiveDecision& decision,
                             MetricsRegistry* metrics, SpanCollector* spans,
                             SimTime start, SimTime end) {
  metrics->gauge("adaptive.send_share").Set(decision.send_share);
  metrics->gauge("adaptive.observed_gbps").Set(decision.observed_gbps);
  metrics->gauge("adaptive.planned_gbps").Set(decision.planned_gbps);
  metrics->gauge("adaptive.compressed_units")
      .Set(static_cast<double>(decision.compressed_units));
  if (!decision.replanned) {
    return;
  }
  metrics->counter("adaptive.replans").Increment();
  metrics->counter("adaptive.replanned_units")
      .Increment(static_cast<uint64_t>(decision.replanned_units));
  if (decision.codec_switched) {
    metrics->counter("adaptive.codec_switches").Increment();
  }
  if (spans) {
    spans->Add(0, kTraceLaneAdaptive,
               StrFormat("adaptive:%s", decision.algorithm.c_str()), start,
               end);
  }
}

// Busy-occupancy bars for node 0's two link sides: bar length is the
// serialization time accrued this iteration, so it reads directly against
// the iteration span above it.
void AddLinkBusySpans(SpanCollector* spans, SimTime start, SimTime end,
                      SimTime uplink_busy, SimTime downlink_busy) {
  const double iter_span = static_cast<double>(end - start);
  spans->Add(0, kTraceLaneLinkBusy,
             StrFormat("uplink-busy %.1f%%",
                       100.0 * static_cast<double>(uplink_busy) / iter_span),
             start, start + uplink_busy);
  spans->Add(0, kTraceLaneLinkBusy,
             StrFormat("downlink-busy %.1f%%",
                       100.0 * static_cast<double>(downlink_busy) /
                           iter_span),
             start, start + downlink_busy);
}

EngineStats StatsSince(EngineStats now, const EngineStats& before) {
  now.encode_tasks -= before.encode_tasks;
  now.decode_tasks -= before.decode_tasks;
  now.merge_tasks -= before.merge_tasks;
  now.send_tasks -= before.send_tasks;
  now.encode_time -= before.encode_time;
  now.decode_time -= before.decode_time;
  now.merge_time -= before.merge_time;
  now.wire_bytes -= before.wire_bytes;
  return now;
}

// Closes the report on both the BSP and the SSP path: rates over
// report.iteration_time, the end-of-run report metrics, then the fabric's
// own end-of-run publish (watchdog report, sim.*, fr.*, dump).
void FinishReport(const JobDriver& driver, CaSyncEngine& engine,
                  int batch_per_gpu, bool record_timeline, Fabric& fabric,
                  TrainReport& report) {
  const double seconds = ToSeconds(report.iteration_time);
  if (seconds > 0) {
    report.throughput =
        static_cast<double>(report.total_gpus) * batch_per_gpu / seconds;
    report.scaling_efficiency = static_cast<double>(report.compute_time) /
                                static_cast<double>(report.iteration_time);
  }
  MetricsRegistry* metrics = fabric.metrics().get();
  const Histogram& iteration_ms = metrics->histogram(
      "train.iteration_ms", HistogramBuckets::Exponential(1.0, 2.0, 16));
  report.recoveries = driver.recoveries();
  metrics->counter("train.recoveries").Increment(report.recoveries);
  report.iteration_p50_ms = iteration_ms.Quantile(0.5);
  report.iteration_p95_ms = iteration_ms.Quantile(0.95);
  report.iteration_p99_ms = iteration_ms.Quantile(0.99);
  if (report.cp_attribution.total() > 0) {
    for (int c = 0; c < kNumCpCategories; ++c) {
      const CpCategory category = static_cast<CpCategory>(c);
      metrics->gauge(StrFormat("cp.%s_ms", CpCategoryName(category)))
          .Set(ToMillis(report.cp_attribution[category]));
      metrics->gauge(StrFormat("cp.share.%s", CpCategoryName(category)))
          .Set(report.cp_attribution.Share(category));
    }
  }
  engine.auditor().Publish(metrics);
  metrics->gauge("train.failed_nodes")
      .Set(static_cast<double>(report.failed_nodes.size()));
  metrics->gauge("train.surviving_nodes")
      .Set(static_cast<double>(report.surviving_nodes));
  metrics->gauge("train.throughput").Set(report.throughput);
  metrics->gauge("train.scaling_efficiency").Set(report.scaling_efficiency);
  metrics->gauge("train.iteration_ms_last")
      .Set(ToMillis(report.iteration_time));
  metrics->gauge("train.compute_ms").Set(ToMillis(report.compute_time));
  report.health = fabric.Finish();
  report.flight = fabric.flight();
  if (record_timeline) {
    const std::vector<GpuDevice*>& gpus = fabric.gpus();
    for (const GpuDevice* gpu : gpus) {
      report.node_timelines.push_back(gpu->timeline());
    }
    metrics->gauge("gpu.node0.compute_utilization")
        .Set(gpus[0]->ComputeUtilization(report.timeline_origin,
                                         fabric.sim().now()));
  }
}

}  // namespace

StatusOr<TrainReport> SimulateTraining(const ModelProfile& model,
                                       const SyncConfig& config,
                                       const TrainOptions& options) {
  if (config.num_nodes < 1) {
    return InvalidArgumentError("need at least one node");
  }
  const FaultConfig& faults = config.net.faults;
  const bool membership_active =
      !faults.membership.empty() || !faults.standby_nodes.empty();
  if ((!faults.crashes.empty() || membership_active) &&
      (options.staleness > 0 || config.sequential_collectives)) {
    return InvalidArgumentError(
        "node-crash recovery and elastic membership are only supported on "
        "the BSP concurrent-collectives path (staleness == 0, "
        "sequential_collectives off)");
  }
  if (membership_active || !faults.crashes.empty()) {
    RETURN_IF_ERROR(ValidateMembershipSchedule(config.num_nodes, faults));
  }
  if (options.adaptive.enabled &&
      (options.staleness > 0 || config.sequential_collectives)) {
    return InvalidArgumentError(
        "adaptive compression swaps plans at BSP iteration boundaries; "
        "it requires staleness == 0 and concurrent collectives");
  }

  Fabric fabric(config.num_nodes, config.net, options.record_timeline,
                options.observability,
                {"iter.start", "iter.end", "train.recovery", "member.change"});
  Simulator& sim = fabric.sim();
  Network& net = fabric.net();
  const std::vector<GpuDevice*>& gpus = fabric.gpus();
  MetricsRegistry* metrics = fabric.metrics().get();
  SpanCollector* spans = fabric.spans().get();
  CaSyncEngine engine(&sim, &net, gpus, config, metrics, spans);
  fabric.WireEngine(&engine);
  std::vector<int> all_nodes(static_cast<size_t>(config.num_nodes));
  std::iota(all_nodes.begin(), all_nodes.end(), 0);
  ASSIGN_OR_RETURN(std::unique_ptr<JobDriver> driver,
                   JobDriver::Create(model, config, options.adaptive,
                                     options.launch_overhead, &sim, &engine,
                                     all_nodes));
  const AdaptiveController* adaptive = driver->adaptive();
  const SimTime compute_time = driver->compute_time();
  // Straggler: its shard gates every gradient's aggregation, so BSP sync
  // launches follow the slow node's timeline and the barrier waits for its
  // compute.
  const bool has_straggler = options.straggler_node >= 0 &&
                             options.straggler_node < config.num_nodes &&
                             options.straggler_factor > 1.0;
  const double launch_stretch =
      has_straggler ? options.straggler_factor : 1.0;
  const SimTime slowest_compute = static_cast<SimTime>(
      static_cast<double>(compute_time) * launch_stretch);

  TrainReport report;
  report.compute_time = compute_time;
  report.total_gpus = config.num_nodes * config.gpus_per_node;
  report.surviving_nodes = config.num_nodes;
  report.metrics = fabric.metrics();
  report.spans = fabric.spans();
  Histogram& iteration_ms = metrics->histogram(
      "train.iteration_ms", HistogramBuckets::Exponential(1.0, 2.0, 16));
  Histogram& sync_tail_ms = metrics->histogram(
      "train.sync_tail_ms", HistogramBuckets::Exponential(0.125, 2.0, 16));
  Counter& iterations_counter = metrics->counter("train.iterations");
  Histogram& recovery_ms = metrics->histogram(
      "train.recovery_ms", HistogramBuckets::Exponential(0.125, 2.0, 16));
  // Max-minus-median of the per-node last-sync-completion offsets for the
  // latest iteration (0 on a balanced cluster; rises under stragglers and
  // degraded links).
  Gauge& straggler_skew = metrics->gauge("train.straggler_skew_ms");
  // Wire-pool misses during the latest iteration (delta of the cumulative
  // net.pool_misses counter): 0 in steady state once every link has
  // flushed a batch — the mem.step_pool_misses invariant, applied to the
  // wire path (batch frames, retransmit payloads, staging copies).
  Gauge& step_wire_pool_misses = metrics->gauge("net.step_pool_misses");

  // -----------------------------------------------------------------------
  // SSP path: iterations pipeline under the staleness bound. Iteration k's
  // compute may start once iteration k-1-staleness has synchronized; the
  // GPU compute stream still serializes successive forwards/backwards, so
  // the win is hiding the sync tail behind the next iteration's compute.
  // -----------------------------------------------------------------------
  if (options.staleness > 0) {
    const int total_iterations = std::max(options.iterations,
                                          options.staleness + 3);
    std::vector<bool> sync_done(static_cast<size_t>(total_iterations), false);
    // Sync completion time per iteration.
    std::vector<SimTime> iteration_end(static_cast<size_t>(total_iterations),
                                       0);
    int started = 0;
    std::function<void()> start_ready_iterations = [&] {
      while (started < total_iterations) {
        const int k = started;
        const int gate = k - 1 - options.staleness;
        if (gate >= 0 && !sync_done[gate]) {
          return;
        }
        ++started;
        // Compute queues FIFO on the device; its actual start time is the
        // stream's free time, which all launch offsets key off.
        const SimTime compute_start =
            std::max(sim.now(), gpus[0]->stream_free_at(
                                    GpuDevice::kComputeStream));
        for (int node = 0; node < config.num_nodes; ++node) {
          gpus[node]->SubmitCompute(compute_time, [] {});
        }
        // Launches are un-stretched here: the straggler only paces BSP.
        driver->Launch(all_nodes, compute_start, 1.0, [&, k] {
          sync_done[k] = true;
          iteration_end[k] = sim.now();
          start_ready_iterations();
        });
      }
    };
    sim.Schedule(0, start_ready_iterations);
    sim.Run();

    // Steady-state average over the pipelined window (skip iteration 0).
    report.iteration_time =
        (iteration_end[total_iterations - 1] - iteration_end[0]) /
        (total_iterations - 1);
    for (int k = 1; k < total_iterations; ++k) {
      iterations_counter.Increment();
      iteration_ms.Observe(
          ToMillis(iteration_end[k] - iteration_end[k - 1]));
    }
    report.engine_stats = engine.stats();
    FinishReport(*driver, engine, model.batch_per_gpu,
                 options.record_timeline, fabric, report);
    return report;
  }

  MembershipSession membership(model, faults, membership_active,
                               config.num_nodes, &fabric, &engine,
                               driver.get());

  // Windowed telemetry + health watchdog (docs/OBSERVABILITY.md): series
  // are fed once per iteration boundary — the trainer-observed signals
  // directly, the attached registry metrics via SampleAll — and the rules
  // compare each iteration's newest window against the run's own rolling
  // history, so trips replay deterministically for a fixed seed.
  std::vector<std::string> watched_gauges = {"sim.queue_depth",
                                             "cp.share.send"};
  if (adaptive) {
    watched_gauges.push_back("adaptive.observed_gbps");
  }
  fabric.ArmWatchdog({"net.retries", "net.pool_misses"}, watched_gauges,
                     HealthMonitor::DefaultTrainerRules());
  CostSampleStats send_stats_prev;

  SimTime iter_start = 0;

  for (int iteration = 0; iteration < options.iterations; ++iteration) {
    SimTime iteration_end = 0;
    const SimTime uplink_busy_before = net.uplink_busy(0);
    const SimTime downlink_busy_before = net.downlink_busy(0);
    const EngineStats stats_before = engine.stats();
    const uint64_t wire_misses_before = net.wire_pool()->stats().misses;
    const bool measured = iteration == options.iterations - 1;
    // Stray coordinator-timeout events can fire slightly after the last
    // sync completes; align the next iteration start past them.
    iter_start = std::max(iter_start, sim.now());
    // Membership transitions apply here, between iterations: the engine is
    // idle, so evictions, drains and donor re-syncs cannot race in-flight
    // graphs. Re-sync wire time pushes the boundary out.
    RETURN_IF_ERROR(membership.ProcessBoundary(iter_start));
    iter_start = std::max(iter_start, sim.now());
    fabric.Record(0, kIterStart, iter_start,
                  static_cast<uint64_t>(iteration));
    if (measured && options.record_timeline) {
      report.timeline_origin = iter_start;
    }

    // One starter event at the iteration boundary submits compute and arms
    // the per-gradient sync launches, so all offsets are iteration-relative.
    sim.ScheduleAt(iter_start, [&] {
      // The current membership view, minus any node the transport declared
      // failed since the boundary; failed or departed nodes neither compute
      // nor participate in synchronization.
      std::vector<int> alive = engine.LiveNodes(membership.members());
      // Forward + backward occupy the compute stream on every live node.
      for (const int node : alive) {
        const SimTime node_compute =
            node == options.straggler_node ? slowest_compute : compute_time;
        gpus[node]->SubmitCompute(node_compute, [] {});
        membership.CountContribution(node);
      }
      // Sync graphs over the live nodes, launched on the (straggler-
      // stretched) timeline of the slowest shard.
      driver->Launch(std::move(alive), sim.now(), launch_stretch,
                     [&] { iteration_end = sim.now(); });
    });

    sim.Run();
    const SimTime end =
        std::max(iteration_end, iter_start + slowest_compute);
    // First failure detection this iteration (-1: none); the recovery
    // window closes when the degraded BSP barrier completes.
    const SimTime recovery_started_at = driver->recovery_started_at();
    if (recovery_started_at >= 0) {
      // Recovery latency: failure detection to the degraded barrier.
      const SimTime window = end - recovery_started_at;
      report.recovery_time += window;
      recovery_ms.Observe(ToMillis(window));
      if (spans) {
        spans->Add(0, kTraceLaneRecovery,
                   StrFormat("recovery (%zu node(s) failed)",
                             engine.failed_nodes().size()),
                   recovery_started_at, end);
      }
    }
    membership.Step(iteration, end);
    StepRecord step;
    step.straggler_skew_ms =
        StragglerSkewMs(*driver, config.num_nodes, iter_start);
    // Idle boundary (sim.Run drained): critical-path attribution of this
    // iteration's window over every graph that executed, recovery rebuilds
    // included — the per-category milliseconds sum to the iteration time
    // by construction — then the adaptive decision.
    const IterationAttribution attrib =
        driver->EndIteration(iteration, iter_start, end);
    step.iteration = iteration;
    step.iteration_ms = ToMillis(end - iter_start);
    step.compute_ms = ToMillis(attrib.attribution[CpCategory::kCompute]);
    step.encode_ms = ToMillis(attrib.attribution[CpCategory::kEncode]);
    step.merge_ms = ToMillis(attrib.attribution[CpCategory::kMerge]);
    step.send_ms = ToMillis(attrib.attribution[CpCategory::kSend]);
    step.recv_ms = ToMillis(attrib.attribution[CpCategory::kRecv]);
    step.decode_ms = ToMillis(attrib.attribution[CpCategory::kDecode]);
    step.wait_ms = ToMillis(attrib.attribution[CpCategory::kWait]);
    step.path_tasks = static_cast<int>(attrib.path.steps.size());
    step.degraded = recovery_started_at >= 0;
    straggler_skew.Set(step.straggler_skew_ms);
    report.steps.push_back(step);
    if (measured) {
      report.cp_attribution = attrib.attribution;
      if (spans) {
        AddCriticalPathSpans(attrib.path, iter_start, /*compute_node=*/0,
                             spans);
      }
    }
    if (adaptive) {
      PublishAdaptiveDecision(adaptive->decisions().back(), metrics, spans,
                              iter_start, end);
    }
    // Feed the windowed series and run the watchdog at the boundary. The
    // send-bandwidth signal is the auditor's per-iteration sample delta —
    // the same windowed estimate the adaptive controller plans from.
    if (fabric.watching()) {
      const CostSampleStats send_now =
          engine.auditor().Snapshot(CostPrimitive::kSend);
      const CostSampleStats send_delta = send_now.Since(send_stats_prev);
      send_stats_prev = send_now;
      if (send_delta.count > 0) {
        fabric.hub().Series("net.send_gbps")
            .Observe(end, send_delta.MeanThroughput() * 8.0 / 1e9);
      }
      metrics->gauge("cp.share.send")
          .Set(attrib.attribution.Share(CpCategory::kSend));
    }
    fabric.FeedWatchdog("train.iteration_ms", end,
                        ToMillis(end - iter_start));
    fabric.Record(0, kIterEnd, end, static_cast<uint64_t>(iteration),
                  static_cast<uint64_t>(end - iter_start));
    if (recovery_started_at >= 0) {
      fabric.Record(0, kRecovery, end, static_cast<uint64_t>(iteration),
                    static_cast<uint64_t>(end - recovery_started_at));
    }
    iterations_counter.Increment();
    iteration_ms.Observe(ToMillis(end - iter_start));
    sync_tail_ms.Observe(ToMillis(
        std::max<SimTime>(0, end - (iter_start + compute_time))));
    step_wire_pool_misses.Set(static_cast<double>(
        net.wire_pool()->stats().misses - wire_misses_before));
    if (measured) {
      report.iteration_time = end - iter_start;
      report.sync_tail =
          std::max<SimTime>(0, end - (iter_start + compute_time));
      const SimTime uplink_busy = net.uplink_busy(0) - uplink_busy_before;
      const SimTime downlink_busy =
          net.downlink_busy(0) - downlink_busy_before;
      // Synchronization span: from the first gradient's sync launch to the
      // last gradient's completion (the paper's communication-time metric
      // counts the whole synchronization window, overlapped or not).
      SimTime first_launch = driver->units()[0].ready_offset;
      for (const JobDriver::Unit& unit : driver->units()) {
        first_launch = std::min(first_launch, unit.ready_offset);
      }
      first_launch += driver->forward();
      const SimTime sync_end = iteration_end > 0 ? iteration_end : end;
      const SimTime sync_span =
          std::max<SimTime>(0, sync_end - (iter_start + first_launch));
      if (end > iter_start) {
        const double iter_time = static_cast<double>(end - iter_start);
        report.comm_ratio =
            std::min(1.0, static_cast<double>(sync_span) / iter_time);
        report.network_busy_ratio =
            std::min(1.0, static_cast<double>(uplink_busy) / iter_time);
        report.rx_busy_ratio =
            std::min(1.0, static_cast<double>(downlink_busy) / iter_time);
        if (spans) {
          AddLinkBusySpans(spans, iter_start, end, uplink_busy,
                           downlink_busy);
        }
      }
      report.engine_stats = StatsSince(engine.stats(), stats_before);
    }
    iter_start = end;
  }

  if (adaptive) {
    report.adaptive = adaptive->Report();
  }
  report.failed_nodes = engine.failed_nodes();
  report.degraded = !report.failed_nodes.empty();
  report.surviving_nodes =
      config.num_nodes - static_cast<int>(report.failed_nodes.size());
  if (report.degraded) {
    // Only the survivors still contribute samples.
    report.total_gpus = report.surviving_nodes * config.gpus_per_node;
  }
  report.membership = membership.Finish();
  if (membership_active) {
    // Joins/leaves make crash-count arithmetic wrong; the view is the
    // authority on who still contributes samples.
    report.surviving_nodes =
        static_cast<int>(report.membership.final_members.size());
    report.total_gpus = report.surviving_nodes * config.gpus_per_node;
  }
  if (options.record_timeline) {
    report.timeline = gpus[0]->timeline();
  }
  FinishReport(*driver, engine, model.batch_per_gpu, options.record_timeline,
               fabric, report);
  return report;
}

}  // namespace hipress
