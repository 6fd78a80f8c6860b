#include "src/train/cluster_job.h"

#include <algorithm>
#include <functional>
#include <memory>
#include <utility>

#include "src/casync/engine.h"
#include "src/common/logging.h"
#include "src/common/string_util.h"
#include "src/models/model_profile.h"
#include "src/strategies/presets.h"
#include "src/train/fabric.h"
#include "src/train/job_driver.h"

namespace hipress {
namespace {

// Everything one job needs while the shared simulator runs. Stable address
// (held by unique_ptr) because simulator callbacks capture `Job*`.
struct Job {
  ClusterJobSpec spec;
  std::string prefix;
  int batch_per_gpu = 0;
  std::unique_ptr<CaSyncEngine> engine;
  std::unique_ptr<JobDriver> driver;
  // "<prefix>.iteration_ms": the histogram, watchdog series and stall rule.
  std::string iteration_series;
  Histogram* iteration_ms = nullptr;
  int iteration = 0;
  SimTime iter_start = 0;
  ClusterJobReport report;
};

// The driver's one flight event, "job.iter.end".
constexpr size_t kJobIterEnd = 0;

uint64_t FnvMix(uint64_t hash, uint64_t value) {
  for (int b = 0; b < 8; ++b) {
    hash ^= (value >> (8 * b)) & 0xffULL;
    hash *= 1099511628211ULL;
  }
  return hash;
}

}  // namespace

std::vector<std::vector<int>> AssignJobNodes(int num_nodes, int num_jobs,
                                             JobPlacement placement) {
  CHECK_GT(num_jobs, 0);
  CHECK_EQ(num_nodes % num_jobs, 0)
      << "nodes must divide evenly over jobs";
  const int per_job = num_nodes / num_jobs;
  std::vector<std::vector<int>> assignment(
      static_cast<size_t>(num_jobs));
  for (auto& nodes : assignment) {
    nodes.reserve(static_cast<size_t>(per_job));
  }
  if (placement == JobPlacement::kPacked) {
    for (int k = 0; k < num_jobs; ++k) {
      for (int i = 0; i < per_job; ++i) {
        assignment[static_cast<size_t>(k)].push_back(k * per_job + i);
      }
    }
  } else {
    for (int node = 0; node < num_nodes; ++node) {
      assignment[static_cast<size_t>(node % num_jobs)].push_back(node);
    }
  }
  return assignment;
}

StatusOr<ClusterRunReport> RunClusterJobs(const ClusterJobsOptions& options) {
  const int num_jobs = static_cast<int>(options.jobs.size());
  if (num_jobs < 1) {
    return InvalidArgumentError("need at least one job");
  }
  const int total_nodes = options.cluster.num_nodes;
  if (total_nodes < num_jobs || total_nodes % num_jobs != 0) {
    return InvalidArgumentError(
        StrFormat("%d nodes do not divide evenly over %d jobs", total_nodes,
                  num_jobs));
  }
  const int nodes_per_job = total_nodes / num_jobs;
  if (nodes_per_job < 2) {
    return InvalidArgumentError("each job needs at least two nodes");
  }
  const FaultConfig& faults = options.cluster.net.faults;
  if (!faults.crashes.empty() || !faults.membership.empty() ||
      !faults.standby_nodes.empty()) {
    return InvalidArgumentError(
        "multi-job runs model contention, not churn; fault injection is "
        "only supported by single-job SimulateTraining");
  }
  for (const ClusterJobSpec& spec : options.jobs) {
    if (spec.iterations < 1) {
      return InvalidArgumentError("every job needs at least one iteration");
    }
  }

  const std::vector<std::vector<int>> assignment =
      AssignJobNodes(total_nodes, num_jobs, options.placement);

  // Shared fabric: one simulator, one network, one metrics registry, and
  // one cluster-wide black box (a ring per node, all jobs' traffic
  // interleaved).
  Fabric fabric(total_nodes, options.cluster.net, options.record_timeline,
                options.observability, {"job.iter.end"});
  Simulator& sim = fabric.sim();
  MetricsRegistry* metrics = fabric.metrics().get();
  const std::vector<GpuDevice*>& gpus = fabric.gpus();

  // -------------------------------------------------------------------
  // Per-job setup: config, engine, and the same JobDriver SimulateTraining
  // runs, so a solo job here reproduces the single-job trainer's schedule.
  // -------------------------------------------------------------------
  std::vector<std::unique_ptr<Job>> jobs;
  jobs.reserve(static_cast<size_t>(num_jobs));
  for (int k = 0; k < num_jobs; ++k) {
    const ClusterJobSpec& spec = options.jobs[static_cast<size_t>(k)];
    auto job = std::make_unique<Job>();
    job->spec = spec;
    job->prefix =
        spec.name.empty() ? StrFormat("job%d", k) : spec.name;
    job->iteration_series = job->prefix + ".iteration_ms";
    job->iteration_ms = &metrics->histogram(
        job->iteration_series, HistogramBuckets::Exponential(1.0, 2.0, 16));

    // The driver plans over the job (num_nodes = job size); the engine
    // addresses the shared cluster (num_nodes = total) so the physical
    // node ids in the job's task graphs stay in range.
    ClusterSpec job_cluster = options.cluster;
    job_cluster.num_nodes = nodes_per_job;
    ASSIGN_OR_RETURN(const SyncConfig config,
                     MakeSystemConfig(spec.system, job_cluster,
                                      spec.algorithm, spec.codec_params));
    SyncConfig engine_config = config;
    engine_config.num_nodes = total_nodes;
    ASSIGN_OR_RETURN(const ModelProfile model, GetModelProfile(spec.model));
    job->batch_per_gpu = model.batch_per_gpu;
    // The engine keeps a private registry (metrics = nullptr): "engine.*"
    // counters would otherwise merge across jobs on the shared registry
    // and become unattributable.
    job->engine = std::make_unique<CaSyncEngine>(
        &sim, &fabric.net(), gpus, engine_config, nullptr,
        fabric.spans().get());
    auto driver = JobDriver::Create(model, config, spec.adaptive,
                                    options.launch_overhead, &sim,
                                    job->engine.get(),
                                    assignment[static_cast<size_t>(k)]);
    if (!driver.ok()) {
      return Status(driver.status().code(),
                    job->prefix + ": " + driver.status().message());
    }
    job->driver = std::move(driver).value();
    job->report.name = job->prefix;
    job->report.model = spec.model;
    job->report.system = spec.system;
    job->report.nodes = job->driver->nodes();
    job->report.compute_time = job->driver->compute_time();
    jobs.push_back(std::move(job));
  }

  // -------------------------------------------------------------------
  // Watchdog (docs/OBSERVABILITY.md) over the shared fabric — scheduler
  // queue depth, wire-pool misses — plus a per-job iteration-stall rule.
  // -------------------------------------------------------------------
  std::vector<HealthRule> rules;
  rules.push_back(HealthRule{"queue_blowup", "sim.queue_depth",
                             HealthRuleKind::kAboveMedianFactor, 4.0});
  rules.push_back(HealthRule{"pool_miss_growth", "net.pool_misses",
                             HealthRuleKind::kAboveValue, 0.0});
  for (const auto& job : jobs) {
    rules.push_back(HealthRule{job->prefix + ".stall", job->iteration_series,
                               HealthRuleKind::kAboveMedianFactor, 3.0});
  }
  fabric.ArmWatchdog({"net.pool_misses"}, {"sim.queue_depth"},
                     std::move(rules));
  // Transport retries join the black box after the health events, so the
  // ids of every event interned before them keep their numbers.
  for (const auto& job : jobs) {
    fabric.WireEngine(job->engine.get());
  }

  // -------------------------------------------------------------------
  // Event-driven BSP: each job chains its own iterations through simulator
  // events; there is no global drain between iterations, so jobs overlap
  // freely and contend on the shared links.
  // -------------------------------------------------------------------
  int jobs_warm = 0;
  int jobs_done = 0;
  uint64_t steady_miss_baseline = 0;
  bool steady_baseline_set = false;

  std::function<void(Job*)> start_iteration;
  std::function<void(Job*)> finish_iteration;

  start_iteration = [&](Job* job) {
    JobDriver& driver = *job->driver;
    job->iter_start = sim.now();
    for (const int node : driver.nodes()) {
      gpus[node]->SubmitCompute(driver.compute_time(), [] {});
    }
    driver.Launch(driver.nodes(), job->iter_start, 1.0, [&, job] {
      // Barrier: the iteration ends when the last sync lands AND every
      // node's compute has finished (compute can outlast small syncs).
      const SimTime end =
          std::max(sim.now(), job->iter_start + job->driver->compute_time());
      sim.ScheduleAt(end, [&, job] { finish_iteration(job); });
    });
  };

  finish_iteration = [&](Job* job) {
    const SimTime end = sim.now();
    job->report.iteration_end.push_back(end);
    job->iteration_ms->Observe(ToMillis(end - job->iter_start));
    fabric.Record(job->driver->nodes().front(), kJobIterEnd, end,
                  static_cast<uint64_t>(job->iteration),
                  static_cast<uint64_t>(end - job->iter_start));
    // Queue depth is sampled mid-run here (other jobs still in flight), so
    // the blowup rule watches genuinely live backlog.
    fabric.FeedWatchdog(job->iteration_series, end,
                        ToMillis(end - job->iter_start));

    // This job's graphs have all completed, so its engine is idle even
    // while other jobs' traffic is still in flight — adaptive plan swaps
    // cannot touch in-flight state.
    const IterationAttribution attrib =
        job->driver->EndIteration(job->iteration, job->iter_start, end);
    const bool last = job->iteration + 1 == job->spec.iterations;
    if (last) {
      job->report.iteration_time = end - job->iter_start;
      job->report.cp_attribution = attrib.attribution;
      job->report.send_share = attrib.attribution.Share(CpCategory::kSend);
    }

    if (job->iteration == 0 && ++jobs_warm == num_jobs) {
      // Every pool (scheduler slabs, wire buffers) has now seen a full
      // cluster-wide iteration; later misses indicate unbounded growth.
      steady_miss_baseline = sim.sched_pool_misses();
      steady_baseline_set = true;
    }
    ++job->iteration;
    if (last) {
      if (job->driver->adaptive() != nullptr) {
        job->report.adaptive = job->driver->adaptive()->Report();
      }
      ++jobs_done;
      return;
    }
    start_iteration(job);
  };

  for (const auto& job : jobs) {
    start_iteration(job.get());
  }
  sim.Run();

  if (jobs_done != num_jobs) {
    return InternalError(
        StrFormat("simulation drained with %d of %d jobs incomplete",
                  num_jobs - jobs_done, num_jobs));
  }

  // -------------------------------------------------------------------
  // Reports, fingerprint, shared-registry gauges.
  // -------------------------------------------------------------------
  ClusterRunReport run;
  run.sim_time = sim.now();
  run.wall_seconds = sim.run_wall_seconds();
  run.events_processed = sim.events_processed();
  run.events_per_wall_second = sim.events_per_wall_second();
  run.queue_peak_depth = sim.queue_peak_depth();
  run.sched_pool_misses = sim.sched_pool_misses();
  run.steady_sched_pool_misses =
      steady_baseline_set ? sim.sched_pool_misses() - steady_miss_baseline
                          : 0;
  run.metrics = fabric.metrics();
  run.spans = fabric.spans();
  run.health = fabric.Finish();
  run.flight = fabric.flight();

  uint64_t fingerprint = 14695981039346656037ULL;
  for (size_t k = 0; k < jobs.size(); ++k) {
    Job& job = *jobs[k];
    fingerprint = FnvMix(fingerprint, static_cast<uint64_t>(k));
    for (size_t i = 0; i < job.report.iteration_end.size(); ++i) {
      fingerprint = FnvMix(fingerprint, static_cast<uint64_t>(i));
      fingerprint = FnvMix(
          fingerprint, static_cast<uint64_t>(job.report.iteration_end[i]));
    }

    const double iter_seconds = ToSeconds(job.report.iteration_time);
    if (iter_seconds > 0) {
      job.report.throughput =
          static_cast<double>(job.driver->nodes().size()) *
          options.cluster.gpus_per_node * job.batch_per_gpu / iter_seconds;
    }
    metrics->gauge(job.prefix + ".iteration_ms_last")
        .Set(ToMillis(job.report.iteration_time));
    metrics->gauge(job.prefix + ".throughput").Set(job.report.throughput);
    metrics->gauge(job.prefix + ".cp.share.send")
        .Set(job.report.send_share);
    metrics->gauge(job.prefix + ".nodes")
        .Set(static_cast<double>(job.driver->nodes().size()));
    if (job.report.adaptive.enabled) {
      metrics->gauge(job.prefix + ".replans")
          .Set(static_cast<double>(job.report.adaptive.replans));
      metrics->gauge(job.prefix + ".codec_switches")
          .Set(static_cast<double>(job.report.adaptive.codec_switches));
    }
    run.jobs.push_back(std::move(job.report));
  }
  run.replay_fingerprint = fingerprint;
  metrics->gauge("sim.steady_sched_pool_misses")
      .Set(static_cast<double>(run.steady_sched_pool_misses));
  return run;
}

}  // namespace hipress
