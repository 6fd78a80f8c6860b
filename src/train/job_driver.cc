#include "src/train/job_driver.h"

#include <algorithm>
#include <string>
#include <utility>

#include "src/casync/secopa.h"
#include "src/common/logging.h"
#include "src/compress/registry.h"
#include "src/compress/speed_profile.h"

namespace hipress {
namespace {

// Intra-node aggregation across the node's `g` GPUs over NVLink/PCIe:
// ring reduce-scatter + allgather inside the node.
SimTime LocalAggregationTime(uint64_t bytes, const SyncConfig& config) {
  const int g = config.gpus_per_node;
  if (g <= 1) {
    return 0;
  }
  const double volume = 2.0 * (g - 1) / g * static_cast<double>(bytes);
  return FromMicros(20.0) +
         static_cast<SimTime>(volume / config.intra_node_bytes_per_sec *
                              static_cast<double>(kSecond));
}

}  // namespace

JobDriver::JobDriver(const SyncConfig& config, SimTime launch_overhead,
                     Simulator* sim, CaSyncEngine* engine,
                     std::vector<int> nodes)
    : config_(config),
      launch_overhead_(launch_overhead),
      sim_(sim),
      engine_(engine),
      nodes_(std::move(nodes)) {}

StatusOr<std::unique_ptr<JobDriver>> JobDriver::Create(
    const ModelProfile& model, const SyncConfig& config,
    const AdaptiveOptions& adaptive, SimTime launch_overhead, Simulator* sim,
    CaSyncEngine* engine, std::vector<int> nodes) {
  if (model.gradient_bytes.empty()) {
    return InvalidArgumentError("model has no gradients");
  }
  if (adaptive.enabled && (!config.compression || !config.secopa)) {
    return InvalidArgumentError(
        "adaptive compression re-plans the SeCoPa cutoffs; enable "
        "compression with secopa");
  }
  CHECK_EQ(static_cast<int>(nodes.size()), config.num_nodes);
  std::unique_ptr<JobDriver> driver(
      new JobDriver(config, launch_overhead, sim, engine, std::move(nodes)));
  RETURN_IF_ERROR(driver->PlanUnits(model, adaptive));
  return driver;
}

GradientSync JobDriver::PlanGradient(const SeCoPaPlanner& planner,
                                     uint32_t id, uint64_t bytes) const {
  const SyncConfig& config = config_;
  GradientSync sync;
  sync.id = id;
  sync.bytes = bytes;
  sync.rate = rate_;
  if (config.compression && config.secopa) {
    const SyncPlan plan = planner.Plan(bytes);
    sync.compress = plan.compress;
    sync.partitions = plan.partitions;
    return sync;
  }
  // Baselines compress everything or nothing. PS baselines slice by size
  // (BytePS compresses per 4 MB slice); ring baselines use natural ring
  // chunking, and compressed ones cap it at fixed_partitions so small
  // gradients are not shredded into sub-header chunks.
  sync.compress = config.compression;
  int ring_chunks = std::max<int>(1, static_cast<int>(bytes / (256 * 1024)));
  if (config.compression) {
    ring_chunks = std::min(ring_chunks, std::max(1, config.fixed_partitions));
  }
  sync.partitions =
      config.strategy == StrategyKind::kRing
          ? std::min(config.num_nodes, ring_chunks)
          : std::max<int>(1, static_cast<int>(
                                 bytes / config.ps_partition_bytes));
  return sync;
}

Status JobDriver::PlanUnits(const ModelProfile& model,
                            const AdaptiveOptions& adaptive) {
  const SyncConfig& config = config_;
  const double compute_scale = ComputeScale(config.platform);
  forward_ = static_cast<SimTime>(
      static_cast<double>(model.forward_time_v100) / compute_scale);
  compute_time_ =
      forward_ + static_cast<SimTime>(
                     static_cast<double>(model.backward_time_v100) /
                     compute_scale);

  // Per-gradient plans. SeCoPa consults the cost model; baselines compress
  // everything (or nothing) with their fixed partitioning rules. The rate
  // comes from the real codec so sparse ratios and quantization bitwidths
  // flow through to wire sizes.
  if (config.compression) {
    const std::string codec_name =
        config.codec_impl == CodecImpl::kCompLL
            ? config.algorithm
            : (CompressorRegistry::Instance().Contains("oss-" +
                                                       config.algorithm)
                   ? "oss-" + config.algorithm
                   : config.algorithm);
    ASSIGN_OR_RETURN(auto codec,
                     CreateCompressor(codec_name, config.codec_params));
    rate_ = codec->CompressionRate(1 << 20);
  }
  const SeCoPaPlanner planner(config, rate_);

  // Sync units: per gradient, or per fusion bucket for Horovod-style ring
  // (a bucket closes once it holds ring_fusion_bytes).
  const uint64_t fusion_bytes =
      config.strategy == StrategyKind::kRing ? config.ring_fusion_bytes : 0;
  Unit bucket;
  bucket.members = 0;
  SimTime bucket_ready = 0;
  auto close_bucket = [&] {
    bucket.ready_offset =
        bucket_ready + LocalAggregationTime(bucket.bytes, config);
    bucket.plan = PlanGradient(planner, static_cast<uint32_t>(units_.size()),
                               bucket.bytes);
    units_.push_back(bucket);
    bucket.bytes = 0;
    bucket.members = 0;
    bucket_ready = 0;
  };
  for (size_t i = 0; i < model.gradient_bytes.size(); ++i) {
    bucket.bytes += model.gradient_bytes[i];
    ++bucket.members;
    bucket_ready =
        std::max(bucket_ready, model.GradientReadyOffset(i, compute_scale));
    if (bucket.bytes >= fusion_bytes) {
      close_bucket();
    }
  }
  if (bucket.bytes > 0) {
    close_bucket();
  }

  // Adaptive controller: candidate codec ladder + initial plans. Rung 0 is
  // the configured codec at the configured bandwidth, so the initial plans
  // are exactly the fixed plans above; the controller only diverges once a
  // decision triggers.
  if (!adaptive.enabled) {
    return OkStatus();
  }
  std::vector<AdaptiveCodecOption> ladder;
  AdaptiveCodecOption configured;
  configured.algorithm = config.algorithm;
  configured.impl = config.codec_impl;
  configured.rate = rate_;
  configured.speed = planner.codec_speed();
  ladder.push_back(configured);
  for (const std::string& name : adaptive.candidate_algorithms) {
    if (name == config.algorithm) {
      continue;
    }
    ASSIGN_OR_RETURN(auto codec, CreateCompressor(name, {}));
    AdaptiveCodecOption option;
    option.algorithm = name;
    option.impl = config.codec_impl;
    option.rate = codec->CompressionRate(1 << 20);
    option.speed = GetCodecSpeed(name, config.codec_impl, config.platform);
    ladder.push_back(option);
  }
  std::vector<uint64_t> unit_bytes;
  unit_bytes.reserve(units_.size());
  for (const Unit& unit : units_) {
    unit_bytes.push_back(unit.bytes);
  }
  adaptive_ = std::make_unique<AdaptiveController>(
      config, adaptive, std::move(unit_bytes), std::move(ladder));
  RefreshPlans();
  return OkStatus();
}

void JobDriver::RefreshPlans() {
  for (size_t i = 0; i < units_.size(); ++i) {
    units_[i].plan = adaptive_->plans()[i];
  }
}

void JobDriver::Launch(std::vector<int> nodes, SimTime base, double stretch,
                       std::function<void()> on_synced) {
  recovery_started_at_ = -1;
  if (!chain_busy_ && chain_next_ == chain_.size()) {
    chain_.clear();  // drained: no entry is still referenced
    chain_next_ = 0;
  }
  auto launch = std::make_shared<LaunchState>();
  launch->remaining = units_.size();
  launch->nodes = std::move(nodes);
  launch->on_synced = std::move(on_synced);
  const bool full_strength = launch->nodes.size() == nodes_.size();
  for (size_t i = 0; i < units_.size(); ++i) {
    auto graph = std::make_unique<TaskGraph>();
    if (full_strength) {
      AppendSyncTasksOn(config_, units_[i].plan, nodes_, graph.get());
    } else {
      AppendSyncTasksOver(config_, units_[i].plan, launch->nodes, graph.get());
    }
    TaskGraph* graph_ptr = graph.get();
    graphs_.push_back(std::move(graph));
    const SimTime ready = static_cast<SimTime>(
        static_cast<double>(forward_ + units_[i].ready_offset) * stretch);
    const SimTime launch_at =
        std::max(sim_->now(), base + ready + launch_overhead_);
    if (config_.sequential_collectives) {
      chain_.push_back(ChainEntry{i, graph_ptr, launch, false});
      sim_->ScheduleAt(launch_at, [this, index = chain_.size() - 1] {
        chain_[index].ready = true;
        PumpChain();
      });
    } else {
      // CaSync: every unit's graph launches the moment it is ready; graphs
      // execute concurrently and pipeline.
      sim_->ScheduleAt(launch_at, [this, i, graph_ptr, launch] {
        Run(i, graph_ptr, launch);
      });
    }
  }
}

void JobDriver::Run(size_t unit, TaskGraph* graph,
                    std::shared_ptr<LaunchState> launch) {
  engine_->Execute(graph, [this, unit, launch](const Status& status) {
    if (!status.ok()) {
      // Peer failure: rebuild this unit over the surviving nodes and run
      // it again, so the BSP barrier completes degraded instead of hanging.
      if (recovery_started_at_ < 0) {
        recovery_started_at_ = sim_->now();
      }
      ++recoveries_;
      const std::vector<int> survivors = engine_->LiveNodes(launch->nodes);
      CHECK_GT(survivors.size(), 0u) << "every node failed";
      auto rebuilt = std::make_unique<TaskGraph>();
      AppendSyncTasksOver(config_, units_[unit].plan, survivors,
                          rebuilt.get());
      TaskGraph* rebuilt_ptr = rebuilt.get();
      graphs_.push_back(std::move(rebuilt));
      Run(unit, rebuilt_ptr, launch);
      return;
    }
    chain_busy_ = false;
    if (--launch->remaining == 0) {
      launch->on_synced();
    }
    PumpChain();
  });
}

void JobDriver::PumpChain() {
  if (chain_busy_ || chain_next_ >= chain_.size() ||
      !chain_[chain_next_].ready) {
    return;
  }
  chain_busy_ = true;
  const size_t index = chain_next_++;
  // Per-tensor negotiation happens on the critical path between
  // collectives (Horovod's coordination cycle).
  const SimTime negotiation = units_[chain_[index].unit].members *
                              config_.per_gradient_negotiation;
  sim_->Schedule(negotiation, [this, index] {
    const ChainEntry& entry = chain_[index];
    Run(entry.unit, entry.graph, entry.launch);
  });
}

IterationAttribution JobDriver::EndIteration(int iteration, SimTime start,
                                             SimTime end) {
  std::vector<const TaskGraph*> views;
  views.reserve(graphs_.size());
  for (const auto& graph : graphs_) {
    views.push_back(graph.get());
  }
  IterationAttribution attrib = AttributeIteration(views, start, end);
  // The engine is idle, so refreshed plans and a codec swap cannot touch
  // in-flight graphs or pooled wire buffers.
  if (adaptive_) {
    const AdaptiveDecision decision =
        adaptive_->Observe(iteration, attrib.attribution, engine_->auditor());
    if (decision.replanned) {
      RefreshPlans();
      if (decision.codec_switched) {
        const AdaptiveCodecOption& codec = adaptive_->active_codec();
        engine_->ApplyCodec(codec.algorithm, codec.impl, codec.speed);
      }
    }
  }
  graphs_.clear();
  return attrib;
}

void JobDriver::OnMembershipChange(int old_size, int new_size) {
  if (adaptive_) {
    if (adaptive_->OnMembershipChange(new_size)) {
      RefreshPlans();
    }
    return;
  }
  // SeCoPa's cost terms and 2N partition cap depend on the view size.
  if (new_size == old_size || !config_.compression || !config_.secopa) {
    return;
  }
  SyncConfig live = config_;
  live.num_nodes = new_size;
  const SeCoPaPlanner planner(live, rate_);
  for (Unit& unit : units_) {
    const SyncPlan plan = planner.Plan(unit.bytes);
    unit.plan.compress = plan.compress;
    unit.plan.partitions = plan.partitions;
  }
}

}  // namespace hipress
