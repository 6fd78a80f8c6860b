// Wall-clock benchmark harness.
//
// Runs one workload as a closed loop (the next run or step starts when the
// previous one returns) through the library's public entry points, for a
// fixed number of wall seconds rounded up to whole passes over the
// workload's configurations, and prints the raw samples as one JSON
// document on stdout. wallbench/run.py turns the samples into the
// benchmark's metrics and checks the outputs against recorded values.
//
//   wallbench_harness --workload sweep|fleet|churn|realbytes --seed N
//                     --seconds S [--trace 0|1] [--spans FILE]
//                     [--setup-only] [--record EPISODES]
//
// Untraced (--trace 0): set up, take the ready timestamp, run the loop.
// Traced (--trace 1): the loop runs untraced for half the time, then runs
// the same operations again with spans around every call into a layer,
// then the isolated layer probes run; spans are kept in memory and written to
// --spans when the process ends.
// --setup-only stops after set-up (run.py repeats it to take a median).
// --record N prints the outputs of the first N runs or episodes of every
// configuration instead of timing anything (used to record expected values).
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/casync/builder.h"
#include "src/casync/critical_path.h"
#include "src/casync/dataflow.h"
#include "src/casync/engine.h"
#include "src/casync/secopa.h"
#include "src/common/buffer_pool.h"
#include "src/common/rng.h"
#include "src/common/simd.h"
#include "src/common/thread_pool.h"
#include "src/compress/registry.h"
#include "src/hipress/hipress.h"
#include "src/minidnn/dist_trainer.h"
#include "src/net/fault.h"
#include "src/train/cluster_job.h"

namespace wallbench {
namespace {

using hipress::Status;
using hipress::StatusOr;
using Clock = std::chrono::steady_clock;

double MsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

// Seconds on the monotonic clock Python's time.monotonic() also reads, so
// run.py can measure set-up from the moment it spawned this process.
double MonotonicSeconds() {
  return std::chrono::duration<double>(Clock::now().time_since_epoch())
      .count();
}

uint64_t Mix(uint64_t seed, uint64_t stream) {
  uint64_t z = seed * 0x9e3779b97f4a7c15ULL + stream + 0x632be59bd9b4e019ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::string HexOf(uint64_t value) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, value);
  return buf;
}

// FNV-1a over the simulated outputs a run reports.
class Fingerprint {
 public:
  void Add(uint64_t value) {
    for (int i = 0; i < 8; ++i) {
      hash_ ^= (value >> (8 * i)) & 0xff;
      hash_ *= 0x100000001b3ULL;
    }
  }
  void AddDouble(double value) {
    uint64_t bits = 0;
    std::memcpy(&bits, &value, sizeof(bits));
    Add(bits);
  }
  void AddString(const std::string& text) {
    for (const char c : text) {
      hash_ ^= static_cast<uint8_t>(c);
      hash_ *= 0x100000001b3ULL;
    }
  }
  std::string Hex() const { return HexOf(hash_); }

 private:
  uint64_t hash_ = 0xcbf29ce484222325ULL;
};

std::string JsonString(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double value) {
  if (!std::isfinite(value)) {
    return "null";
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

// ---------------------------------------------------------------------------
// Spans: name, start, end, parent and run id, kept in memory and written
// when the process ends. Times are microseconds since the tracer started.
// ---------------------------------------------------------------------------

struct Span {
  std::string name;
  double start_us = 0;
  double end_us = 0;
  int64_t parent = -1;
  int64_t run = -1;
  double bytes = 0;  // payload the call processed, 0 when not applicable
};

class Tracer {
 public:
  Tracer() : origin_(Clock::now()) {}

  int64_t Begin(std::string name, int64_t run) {
    Span span;
    span.name = std::move(name);
    span.parent = stack_.empty() ? -1 : stack_.back();
    span.run = run;
    span.start_us = NowUs();
    spans_.push_back(std::move(span));
    stack_.push_back(static_cast<int64_t>(spans_.size()) - 1);
    return stack_.back();
  }
  void End(int64_t id, double bytes) {
    spans_[id].end_us = NowUs();
    spans_[id].bytes = bytes;
    stack_.pop_back();
  }

  Status Write(const std::string& path) const {
    std::ofstream out(path);
    if (!out) {
      return hipress::InternalError("cannot write spans to " + path);
    }
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& span = spans_[i];
      out << "{\"id\":" << i << ",\"name\":" << JsonString(span.name)
          << ",\"start_us\":" << JsonNumber(span.start_us)
          << ",\"end_us\":" << JsonNumber(span.end_us)
          << ",\"parent\":" << span.parent << ",\"run\":" << span.run
          << ",\"bytes\":" << JsonNumber(span.bytes) << "}\n";
    }
    return out ? hipress::OkStatus()
               : hipress::InternalError("short write to " + path);
  }

 private:
  double NowUs() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - origin_)
        .count();
  }

  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int64_t> stack_;
};

// Opens a span when a tracer is given; a no-op otherwise, so traced and
// untraced loops run the same calls.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, std::string name, int64_t run)
      : tracer_(tracer),
        id_(tracer != nullptr ? tracer->Begin(std::move(name), run) : -1) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) {
      tracer_->End(id_, bytes_);
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  void set_bytes(double bytes) { bytes_ = bytes; }

 private:
  Tracer* tracer_;
  int64_t id_;
  double bytes_ = 0;
};

// Per-layer values read from counters the layers expose. Each name keeps
// either the mean or the maximum of what was added.
class LayerStats {
 public:
  void Mean(const std::string& name, double value) {
    Entry& entry = entries_[name];
    entry.sum += value;
    entry.count += 1;
  }
  void Max(const std::string& name, double value) {
    Entry& entry = entries_[name];
    entry.max = entry.count == 0 ? value : std::max(entry.max, value);
    entry.count += 1;
    entry.is_max = true;
  }
  std::string ToJson() const {
    std::string out = "{";
    for (const auto& [name, entry] : entries_) {
      if (out.size() > 1) {
        out += ",";
      }
      const double value =
          entry.is_max ? entry.max : entry.sum / std::max(1, entry.count);
      out += JsonString(name) + ":" + JsonNumber(value);
    }
    return out + "}";
  }

 private:
  struct Entry {
    double sum = 0;
    double max = 0;
    int count = 0;
    bool is_max = false;
  };
  std::map<std::string, Entry> entries_;
};

// One closed-loop operation: a simulated training run or one SGD step.
struct OpResult {
  double ms = 0;       // wall time of the public call(s)
  double iters = 0;    // training iterations or steps it completed
  bool ok = true;      // the call returned OK
  std::string key;     // configuration, the index of the expected output
  std::string output;  // fingerprint or loss; empty when not checked
  std::string error;
};

std::string OpToJson(const OpResult& op) {
  return "{\"ms\":" + JsonNumber(op.ms) + ",\"iters\":" +
         JsonNumber(op.iters) + ",\"ok\":" + (op.ok ? "true" : "false") +
         ",\"key\":" + JsonString(op.key) +
         ",\"output\":" + JsonString(op.output) +
         ",\"error\":" + JsonString(op.error) + "}";
}

// Network and coordinator counters of one simulated run.
void AddNetCounters(hipress::MetricsRegistry& m, LayerStats* stats) {
  const double sent = static_cast<double>(m.counter_value("net.messages_sent"));
  const double delivered =
      static_cast<double>(m.counter_value("net.messages_delivered"));
  stats->Mean("net.messages", sent);
  stats->Mean("net.wire_mb",
              static_cast<double>(m.counter_value("net.tx_bytes")) / 1e6);
  stats->Mean("net.retries",
              static_cast<double>(m.counter_value("net.retries")));
  stats->Mean("net.retransmit_mb",
              static_cast<double>(m.counter_value("net.retransmit_bytes")) /
                  1e6);
  stats->Mean("net.goodput_frac", sent > 0 ? delivered / sent : 1.0);
  stats->Mean("casync.coordinator.batches",
              static_cast<double>(m.counter_value("coordinator.batches")));
  const double waste = static_cast<double>(
      m.counter_value("coordinator.batch_bucket_waste_bytes"));
  const double batched = m.histogram("coordinator.batch_bytes").sum();
  stats->Mean("casync.coordinator.bucket_waste_frac",
              batched + waste > 0 ? waste / (batched + waste) : 0.0);
}

// Counters a simulated run's registry exposes, per run.
void AddRunCounters(hipress::MetricsRegistry& m, LayerStats* stats) {
  stats->Mean("sim.events", m.gauge_value("sim.events_processed"));
  stats->Mean("sim.events_per_s", m.gauge_value("sim.events_per_wall_second"));
  stats->Max("sim.queue_peak_depth", m.gauge_value("sim.queue_peak_depth"));
  stats->Mean("sim.pool_misses", m.gauge_value("sim.sched_pool_misses"));
  AddNetCounters(m, stats);
  stats->Mean("common.flight.events", m.gauge_value("fr.events_recorded"));
  const double hits = static_cast<double>(m.counter_value("net.pool_hits"));
  const double misses =
      static_cast<double>(m.counter_value("net.pool_misses"));
  stats->Mean("common.pool.hit_frac",
              hits + misses > 0 ? hits / (hits + misses) : 1.0);
}

// ---------------------------------------------------------------------------
// Layer probes shared by the workloads.
// ---------------------------------------------------------------------------

// The per-gradient <compress?, partitions, rate> plan by the trainer's
// fixed-plan rules: SeCoPa when enabled, size-based slicing otherwise.
// Every gradient gets its own graph (no ring fusion buckets).
StatusOr<std::vector<hipress::GradientSync>> PlanGradients(
    const hipress::SyncConfig& config,
    const std::vector<uint64_t>& gradient_bytes) {
  using hipress::StrategyKind;
  double rate = 1.0;
  if (config.compression) {
    ASSIGN_OR_RETURN(auto codec, hipress::CreateCompressor(
                                     config.algorithm, config.codec_params));
    rate = codec->CompressionRate(1 << 20);
  }
  const hipress::SeCoPaPlanner planner(config, rate);
  std::vector<hipress::GradientSync> plans;
  for (size_t i = 0; i < gradient_bytes.size(); ++i) {
    const uint64_t bytes = gradient_bytes[i];
    hipress::GradientSync sync;
    sync.id = static_cast<uint32_t>(i);
    sync.bytes = bytes;
    sync.rate = rate;
    const int ring_chunks = std::max<int>(
        1, std::min<int>(config.num_nodes,
                         static_cast<int>(bytes / (256 * 1024))));
    const int ps_slices = std::max<int>(
        1, static_cast<int>(bytes / config.ps_partition_bytes));
    if (config.compression && config.secopa) {
      const hipress::SyncPlan plan = planner.Plan(bytes);
      sync.compress = plan.compress;
      sync.partitions = plan.partitions;
    } else {
      sync.compress = config.compression;
      sync.partitions =
          config.strategy == StrategyKind::kRing ? ring_chunks : ps_slices;
    }
    plans.push_back(sync);
  }
  return plans;
}

// One configuration the DES probes build and execute.
struct DesProbeInput {
  std::string system;
  std::string algorithm;
  hipress::ClusterSpec cluster;
  std::vector<uint64_t> gradient_bytes;
};

// Times MakeSystemConfig, AppendSyncTasks over one iteration's gradients,
// CaSyncEngine::Execute + Simulator::Run of those graphs on a fresh
// simulator and network, and AnalyzeCriticalPath over the executed graphs.
// With `as_run` the probe's simulator and network counters stand in for
// those of a simulated run (the real-bytes workload runs no other DES).
Status ProbeDes(const DesProbeInput& input, int64_t run, Tracer* tracer,
                LayerStats* stats, bool as_run = false) {
  ScopedSpan root(tracer, "probe.des", run);
  hipress::SyncConfig config;
  {
    ScopedSpan span(tracer, "strategies.MakeSystemConfig", run);
    ASSIGN_OR_RETURN(config, hipress::MakeSystemConfig(
                                 input.system, input.cluster, input.algorithm));
  }
  ASSIGN_OR_RETURN(const std::vector<hipress::GradientSync> plans,
                   PlanGradients(config, input.gradient_bytes));
  std::vector<std::unique_ptr<hipress::TaskGraph>> graphs;
  size_t tasks = 0;
  {
    ScopedSpan span(tracer, "casync.builder.AppendSyncTasks", run);
    for (const hipress::GradientSync& sync : plans) {
      graphs.push_back(std::make_unique<hipress::TaskGraph>());
      hipress::AppendSyncTasks(config, sync, graphs.back().get());
      tasks += graphs.back()->size();
    }
  }
  stats->Mean("casync.builder.tasks", static_cast<double>(tasks));

  hipress::MetricsRegistry metrics;
  hipress::Simulator sim;
  hipress::Network net(&sim, config.num_nodes, config.net, &metrics);
  std::vector<std::unique_ptr<hipress::GpuDevice>> gpu_storage;
  std::vector<hipress::GpuDevice*> gpus;
  for (int node = 0; node < config.num_nodes; ++node) {
    gpu_storage.push_back(
        std::make_unique<hipress::GpuDevice>(&sim, node, 2, &metrics));
    gpus.push_back(gpu_storage.back().get());
  }
  hipress::CaSyncEngine engine(&sim, &net, gpus, config, &metrics);
  size_t done = 0;
  {
    ScopedSpan span(tracer, "casync.engine.Execute+Run", run);
    for (auto& graph : graphs) {
      engine.Execute(graph.get(), [&done] { ++done; });
    }
    sim.Run();
  }
  if (done != graphs.size()) {
    return hipress::InternalError("engine probe left graphs unfinished");
  }
  const hipress::EngineStats engine_stats = engine.stats();
  stats->Mean("casync.engine.tasks",
              static_cast<double>(engine_stats.encode_tasks +
                                  engine_stats.decode_tasks +
                                  engine_stats.merge_tasks +
                                  engine_stats.send_tasks));
  if (as_run) {
    stats->Mean("sim.events", static_cast<double>(sim.events_processed()));
    stats->Mean("sim.events_per_s", sim.events_per_wall_second());
    stats->Max("sim.queue_peak_depth",
               static_cast<double>(sim.queue_peak_depth()));
    stats->Mean("sim.pool_misses",
                static_cast<double>(sim.sched_pool_misses()));
    AddNetCounters(metrics, stats);
    for (const char* name :
         {"net.resyncs", "net.resync_mb", "casync.adaptive.replans",
          "casync.adaptive.switches", "common.flight.events"}) {
      stats->Mean(name, 0);
    }
  }
  {
    ScopedSpan span(tracer, "casync.critical_path.AnalyzeCriticalPath", run);
    for (const auto& graph : graphs) {
      const hipress::CriticalPath path =
          hipress::AnalyzeCriticalPath(*graph);
      if (path.empty()) {
        return hipress::InternalError("empty critical path in engine probe");
      }
    }
  }
  return hipress::OkStatus();
}

// The real-bytes model: an MLP whose gradients are about 1 MB.
constexpr int kMlpInput = 256;
constexpr int kMlpHidden = 1024;
constexpr int kMlpClasses = 4;
constexpr int kWorkers = 4;
constexpr int kBatchPerWorker = 32;

hipress::DistTrainConfig RealBytesConfig(uint64_t seed,
                                         const std::string& algorithm,
                                         hipress::StrategyKind strategy) {
  hipress::DistTrainConfig config;
  config.num_workers = kWorkers;
  config.batch_per_worker = kBatchPerWorker;
  config.algorithm = algorithm;
  config.codec_params.seed = Mix(seed, 3);
  config.strategy = strategy;
  config.partitions = 2;
  config.model.input_dim = kMlpInput;
  config.model.hidden_dim = kMlpHidden;
  config.model.output_dim = kMlpClasses;
  config.model.init_seed = Mix(seed, 2);
  config.task.input_dim = kMlpInput;
  config.task.num_classes = kMlpClasses;
  config.task.seed = Mix(seed, 1);
  return config;
}

std::vector<uint64_t> MlpGradientBytes(const hipress::Mlp& model) {
  std::vector<uint64_t> bytes;
  for (const hipress::Tensor& param : model.parameters()) {
    bytes.push_back(param.size() * sizeof(float));
  }
  return bytes;
}

// One gradient set per worker, from `model` on seeded batches.
std::vector<std::vector<hipress::Tensor>> WorkerGradients(
    const hipress::Mlp& model, const hipress::SyntheticTask& task,
    uint64_t seed) {
  std::vector<std::vector<hipress::Tensor>> grads(kWorkers);
  hipress::Rng rng(seed);
  std::vector<float> inputs;
  std::vector<int> labels;
  for (int w = 0; w < kWorkers; ++w) {
    grads[w] = model.MakeGradients();
    task.Sample(rng, kBatchPerWorker, &inputs, &labels);
    model.BackwardCrossEntropy(inputs, labels, kBatchPerWorker, &grads[w]);
  }
  return grads;
}

const std::vector<std::string> kProbeCodecs = {"onebit", "terngrad", "dgc"};

// Times Compressor::Encode and DecodeAdd per codec over every gradient
// tensor of `grads`, and records the wire size as a share of the raw size.
Status ProbeCompress(const std::vector<hipress::Tensor>& grads, uint64_t seed,
                     Tracer* tracer, LayerStats* stats) {
  constexpr int kReps = 32;
  for (const std::string& name : kProbeCodecs) {
    hipress::CompressorParams params;
    params.seed = Mix(seed, 3);
    ASSIGN_OR_RETURN(auto codec, hipress::CreateCompressor(name, params));
    double raw = 0;
    double wire = 0;
    for (int rep = 0; rep < kReps; ++rep) {
      ScopedSpan root(tracer, "probe.compress." + name, rep);
      for (const hipress::Tensor& grad : grads) {
        hipress::ByteBuffer encoded;
        const double bytes = static_cast<double>(grad.size() * sizeof(float));
        {
          ScopedSpan span(tracer, "compress.Encode." + name, rep);
          RETURN_IF_ERROR(codec->Encode(grad.span(), &encoded));
          span.set_bytes(bytes);
        }
        std::vector<float> accum(grad.size(), 0.0f);
        {
          ScopedSpan span(tracer, "compress.DecodeAdd." + name, rep);
          RETURN_IF_ERROR(codec->DecodeAdd(encoded, accum));
          span.set_bytes(bytes);
        }
        raw += bytes;
        wire += static_cast<double>(encoded.size());
      }
    }
    stats->Mean("compress.wire_ratio." + name, wire / raw);
  }
  return hipress::OkStatus();
}

// Times DataflowRunner::Run over one step's gradients (all parameters) for
// each codec and strategy, and counts results that are not bit-identical
// across workers.
Status ProbeDataflow(const std::vector<std::vector<hipress::Tensor>>& grads,
                     uint64_t seed, Tracer* tracer, int* mismatches) {
  constexpr int kReps = 3;
  const std::vector<std::string> codecs = {"", "onebit", "terngrad", "dgc"};
  const std::vector<hipress::StrategyKind> strategies = {
      hipress::StrategyKind::kPs, hipress::StrategyKind::kRing};
  for (const std::string& name : codecs) {
    std::unique_ptr<hipress::Compressor> codec;
    if (!name.empty()) {
      hipress::CompressorParams params;
      params.seed = Mix(seed, 3);
      ASSIGN_OR_RETURN(codec, hipress::CreateCompressor(name, params));
    }
    for (const hipress::StrategyKind strategy : strategies) {
      const hipress::DataflowRunner runner(strategy, codec.get());
      for (int rep = 0; rep < kReps; ++rep) {
        ScopedSpan step(tracer, "casync.dataflow.step", rep);
        for (size_t p = 0; p < grads[0].size(); ++p) {
          std::vector<hipress::Tensor> inputs;
          for (int w = 0; w < kWorkers; ++w) {
            inputs.push_back(grads[w][p]);
          }
          std::vector<hipress::Tensor> outputs;
          {
            ScopedSpan span(tracer, "casync.dataflow.Run", rep);
            ASSIGN_OR_RETURN(outputs, runner.Run(inputs, 2));
          }
          for (int w = 1; w < kWorkers; ++w) {
            if (outputs[w].size() != outputs[0].size() ||
                std::memcmp(outputs[w].data(), outputs[0].data(),
                            outputs[0].size() * sizeof(float)) != 0) {
              ++*mismatches;
            }
          }
        }
      }
    }
  }
  return hipress::OkStatus();
}

void AddTrainerStats(hipress::DistTrainer& trainer, LayerStats* stats) {
  hipress::MetricsRegistry& registry = trainer.metrics();
  const hipress::Histogram& compute = registry.histogram("dist.compute_us");
  const hipress::Histogram& sync = registry.histogram("dist.sync_us");
  if (compute.count() == 0) {
    return;
  }
  const double compute_ms = compute.sum() / compute.count() / 1e3;
  const double sync_ms = sync.sum() / sync.count() / 1e3;
  stats->Mean("minidnn.compute_ms", compute_ms);
  stats->Mean("minidnn.sync_ms", sync_ms);
  stats->Mean("minidnn.sync_share", sync_ms / (compute_ms + sync_ms));
}

// The real-bytes probes every workload runs: codecs, dataflow and a short
// DistTrainer run, on the MLP's gradients for this seed. `trained` is the
// workload's own trained model when it has one.
Status ProbeRealBytes(uint64_t seed, const hipress::Mlp* trained,
                      Tracer* tracer, LayerStats* stats, int* mismatches) {
  const hipress::DistTrainConfig config =
      RealBytesConfig(seed, "onebit", hipress::StrategyKind::kPs);
  const hipress::Mlp fresh(config.model);
  const hipress::Mlp& model = trained != nullptr ? *trained : fresh;
  const auto grads = WorkerGradients(model, config.task, Mix(seed, 4));
  RETURN_IF_ERROR(ProbeCompress(grads[0], seed, tracer, stats));
  RETURN_IF_ERROR(ProbeDataflow(grads, seed, tracer, mismatches));
  if (trained == nullptr) {
    ScopedSpan span(tracer, "probe.minidnn", 0);
    ASSIGN_OR_RETURN(auto trainer, hipress::DistTrainer::Create(config));
    ASSIGN_OR_RETURN(auto result, trainer->Train(4, 4, 2.0));
    (void)result;
    AddTrainerStats(*trainer, stats);
  }
  return hipress::OkStatus();
}

// ---------------------------------------------------------------------------
// Workloads.
// ---------------------------------------------------------------------------

class Workload {
 public:
  virtual ~Workload() = default;
  // Everything a user does before the first timed operation.
  virtual Status Setup(uint64_t seed) = 0;
  // Runs operation `index` of the closed loop; spans go to `tracer` and
  // layer counters to `stats` when they are given.
  virtual OpResult RunOp(size_t index, Tracer* tracer, LayerStats* stats) = 0;
  // Isolated calls into each layer, run once after a traced loop.
  virtual Status Probe(Tracer* tracer, LayerStats* stats,
                       int* mismatches) = 0;
  // Distinct configurations the loop cycles through, and how many
  // operations make one recordable unit (a run, or a training episode).
  virtual size_t NumKeys() const = 0;
  virtual size_t OpsPerRecord() const { return 1; }
  // Operations in one pass over every configuration.
  size_t CycleOps() const { return NumKeys() * OpsPerRecord(); }
};

std::string TrainFingerprint(const hipress::TrainReport& report) {
  Fingerprint fp;
  for (const hipress::StepRecord& step : report.steps) {
    fp.AddDouble(step.iteration_ms);
  }
  fp.Add(static_cast<uint64_t>(report.iteration_time));
  fp.AddDouble(report.throughput);
  fp.AddDouble(report.comm_ratio);
  const hipress::EngineStats& e = report.engine_stats;
  fp.Add(e.encode_tasks);
  fp.Add(e.decode_tasks);
  fp.Add(e.merge_tasks);
  fp.Add(e.send_tasks);
  fp.Add(e.wire_bytes);
  return fp.Hex();
}

// One simulated training run as RunTrainingSimulation makes it:
// MakeSystemConfig (through `make_config`), then SimulateTraining, each
// under its own span. Sets op->ms, and op->ok and op->error on failure.
template <typename MakeConfigFn>
StatusOr<hipress::TrainReport> TimedSimulation(
    MakeConfigFn make_config, const hipress::ModelProfile& profile,
    const hipress::TrainOptions& train, Tracer* tracer, int64_t run,
    OpResult* op) {
  const auto start = Clock::now();
  auto simulate = [&]() -> StatusOr<hipress::TrainReport> {
    StatusOr<hipress::SyncConfig> config = hipress::InternalError("unset");
    {
      ScopedSpan span(tracer, "strategies.MakeSystemConfig", run);
      config = make_config();
    }
    RETURN_IF_ERROR(config.status());
    ScopedSpan span(tracer, "train.SimulateTraining", run);
    return hipress::SimulateTraining(profile, *config, train);
  };
  StatusOr<hipress::TrainReport> report = simulate();
  op->ms = MsSince(start);
  if (!report.ok()) {
    op->ok = false;
    op->error = report.status().ToString();
  }
  return report;
}

// A single-job simulated training run.
struct SimJob {
  std::string model;
  std::string system;
  std::string algorithm;
  int nodes = 4;
  std::string Key() const {
    return model + "/" + system + "/" + algorithm + "/" +
           std::to_string(nodes);
  }
};

// `sweep`: short fault-free single-job runs over the Table 6 models x five
// systems x three codecs x 4-32 flat-topology nodes.
class SweepWorkload : public Workload {
 public:
  static constexpr int kIterations = 2;

  Status Setup(uint64_t seed) override {
    seed_ = seed;
    RETURN_IF_ERROR(hipress::RegisterDslAlgorithms());
    const std::vector<std::string> models = {
        "vgg19", "resnet50", "ugatit-light", "bert-base",
        "bert-large", "lstm", "transformer"};
    const std::vector<std::string> codecs = {"onebit", "terngrad", "dgc"};
    const std::vector<int> node_counts = {4, 8, 16, 32};
    for (const std::string& model : models) {
      ASSIGN_OR_RETURN(profiles_[model], hipress::GetModelProfile(model));
    }
    // Every seed runs the same configurations, so a run's cost does not
    // depend on the seed; the seed picks each codec's seed and the links'
    // bandwidth-jitter stream.
    for (const std::string& model : models) {
      for (const std::string system : {"byteps", "ring"}) {
        AddJob(model, system, "none", node_counts);
      }
      for (const std::string system :
           {"byteps-oss", "hipress-ps", "hipress-ring"}) {
        for (const std::string& codec : codecs) {
          AddJob(model, system, codec, node_counts);
        }
      }
    }
    // The first plan.
    ASSIGN_OR_RETURN(auto config, MakeConfig(jobs_[0], 0));
    (void)config;
    return hipress::OkStatus();
  }

  OpResult RunOp(size_t index, Tracer* tracer, LayerStats* stats) override {
    const size_t slot = index % jobs_.size();
    const SimJob& job = jobs_[slot];
    OpResult op;
    op.key = job.Key();
    const auto run = static_cast<int64_t>(index);
    ScopedSpan root(tracer, "sweep.run", run);
    hipress::TrainOptions train;
    train.iterations = kIterations;
    const StatusOr<hipress::TrainReport> report = TimedSimulation(
        [&] { return MakeConfig(job, slot); }, profiles_.at(job.model), train,
        tracer, run, &op);
    if (!report.ok()) {
      return op;
    }
    op.iters = kIterations;
    op.output = TrainFingerprint(*report);
    if (stats != nullptr) {
      AddRunCounters(*report->metrics, stats);
      stats->Mean("net.resyncs", 0);
      stats->Mean("net.resync_mb", 0);
      stats->Mean("casync.adaptive.replans", 0);
      stats->Mean("casync.adaptive.switches", 0);
      stats->Mean("common.pool.steady_misses",
                  report->metrics->gauge_value("net.step_pool_misses"));
    }
    return op;
  }

  Status Probe(Tracer* tracer, LayerStats* stats, int* mismatches) override {
    // Three configurations spread over the cycle.
    for (size_t i = 0; i < 3; ++i) {
      const size_t slot = i * jobs_.size() / 3;
      RETURN_IF_ERROR(ProbeDes(ProbeInput(jobs_[slot], slot),
                               static_cast<int64_t>(slot), tracer, stats));
    }
    return ProbeRealBytes(seed_, nullptr, tracer, stats, mismatches);
  }

  size_t NumKeys() const override { return jobs_.size(); }

 private:
  // Node counts rotate through `node_counts` in enumeration order.
  void AddJob(const std::string& model, const std::string& system,
              const std::string& algorithm,
              const std::vector<int>& node_counts) {
    jobs_.push_back({model, system, algorithm,
                     node_counts[jobs_.size() % node_counts.size()]});
  }

  hipress::ClusterSpec Cluster(const SimJob& job, size_t slot) const {
    hipress::ClusterSpec cluster = hipress::ClusterSpec::Ec2(job.nodes);
    cluster.net.bandwidth_jitter = 0.02;
    cluster.net.jitter_seed = Mix(seed_, 100 + slot);
    // BytePS does not run on EC2's RDMA (Section 6.1).
    if (job.system.rfind("byteps", 0) == 0) {
      cluster.net = hipress::WithoutRdma(cluster.net);
    }
    return cluster;
  }

  StatusOr<hipress::SyncConfig> MakeConfig(const SimJob& job,
                                           size_t slot) const {
    hipress::CompressorParams params;
    params.seed = Mix(seed_, 200 + slot);
    return hipress::MakeSystemConfig(
        job.system, Cluster(job, slot),
        job.algorithm == "none" ? "onebit" : job.algorithm, params);
  }

  DesProbeInput ProbeInput(const SimJob& job, size_t slot) const {
    DesProbeInput input;
    input.system = job.system;
    input.algorithm = job.algorithm == "none" ? "onebit" : job.algorithm;
    input.cluster = Cluster(job, slot);
    input.gradient_bytes = profiles_.at(job.model).gradient_bytes;
    return input;
  }

  uint64_t seed_ = 0;
  std::map<std::string, hipress::ModelProfile> profiles_;
  std::vector<SimJob> jobs_;
};

// `fleet`: one multi-job run on a 3:1 oversubscribed fat tree with striped
// placement, so jobs share ToR uplinks.
class FleetWorkload : public Workload {
 public:
  static constexpr int kNodes = 256;
  static constexpr int kJobs = 2;
  static constexpr int kIterations = 1;

  Status Setup(uint64_t seed) override {
    seed_ = seed;
    RETURN_IF_ERROR(hipress::RegisterDslAlgorithms());
    options_.cluster = hipress::ClusterSpec::Ec2(kNodes);
    options_.cluster.net.topology.kind = hipress::TopologyKind::kFatTree;
    options_.cluster.net.topology.oversubscription = 3.0;
    options_.cluster.net.topology.hosts_per_tor = 16;
    options_.cluster.net.bandwidth_jitter = 0.02;
    options_.cluster.net.jitter_seed = Mix(seed, 20);
    options_.placement = hipress::JobPlacement::kStriped;
    for (int k = 0; k < kJobs; ++k) {
      hipress::ClusterJobSpec spec;
      spec.model = "resnet50";
      spec.system = "hipress-ps";
      spec.algorithm = "onebit";
      spec.codec_params.seed = Mix(seed, 30 + k);
      spec.iterations = kIterations;
      options_.jobs.push_back(spec);
    }
    ASSIGN_OR_RETURN(profile_, hipress::GetModelProfile("resnet50"));
    // The first plan.
    ASSIGN_OR_RETURN(auto config, hipress::MakeSystemConfig(
                                      "hipress-ps", options_.cluster,
                                      "onebit"));
    (void)config;
    return hipress::OkStatus();
  }

  OpResult RunOp(size_t index, Tracer* tracer, LayerStats* stats) override {
    OpResult op;
    op.key = "resnet50x2/hipress-ps/onebit/256/fattree3";
    ScopedSpan root(tracer, "fleet.run", static_cast<int64_t>(index));
    const auto start = Clock::now();
    StatusOr<hipress::ClusterRunReport> report =
        hipress::InternalError("unset");
    {
      ScopedSpan span(tracer, "train.RunClusterJobs",
                      static_cast<int64_t>(index));
      report = hipress::RunClusterJobs(options_);
    }
    op.ms = MsSince(start);
    if (!report.ok()) {
      op.ok = false;
      op.error = report.status().ToString();
      return op;
    }
    op.iters = kJobs * kIterations;
    op.output = HexOf(report->replay_fingerprint);
    if (stats != nullptr) {
      AddRunCounters(*report->metrics, stats);
      stats->Mean("net.resyncs", 0);
      stats->Mean("net.resync_mb", 0);
      int replans = 0;
      int switches = 0;
      for (const hipress::ClusterJobReport& job : report->jobs) {
        replans += job.adaptive.replans;
        switches += job.adaptive.codec_switches;
      }
      stats->Mean("casync.adaptive.replans", replans);
      stats->Mean("casync.adaptive.switches", switches);
      stats->Mean("common.pool.steady_misses",
                  static_cast<double>(report->steady_sched_pool_misses));
    }
    return op;
  }

  Status Probe(Tracer* tracer, LayerStats* stats, int* mismatches) override {
    // One job's graphs over its share of the fat tree.
    DesProbeInput input;
    input.system = "hipress-ps";
    input.algorithm = "onebit";
    input.cluster = options_.cluster;
    input.cluster.num_nodes = kNodes / kJobs;
    input.gradient_bytes = profile_.gradient_bytes;
    RETURN_IF_ERROR(ProbeDes(input, 0, tracer, stats));
    return ProbeRealBytes(seed_, nullptr, tracer, stats, mismatches);
  }

  size_t NumKeys() const override { return 1; }

 private:
  uint64_t seed_ = 0;
  hipress::ClusterJobsOptions options_;
  hipress::ModelProfile profile_;
};

// `churn`: single-job runs under seeded chaos schedules (crash, join,
// leave, rejoin), 1% message drops and the adaptive controller with a
// codec ladder. The loop cycles through kSchedules schedules per seed, so
// the measured cost averages over many schedules.
class ChurnWorkload : public Workload {
 public:
  static constexpr int kNodes = 8;
  static constexpr int kIterations = 10;
  static constexpr int kSchedules = 64;
  static constexpr const char* kModel = "vgg19";
  // A mild codec on 50 Gbps links makes the run send-bound enough that the
  // controller re-plans and climbs the ladder to stronger codecs.
  static constexpr const char* kCodec = "fp16";
  static constexpr double kLinkGbps = 50.0;

  Status Setup(uint64_t seed) override {
    seed_ = seed;
    RETURN_IF_ERROR(hipress::RegisterDslAlgorithms());
    ASSIGN_OR_RETURN(profile_, hipress::GetModelProfile(kModel));
    // The first plan.
    ASSIGN_OR_RETURN(auto config, MakeConfig(0));
    (void)config;
    return hipress::OkStatus();
  }

  OpResult RunOp(size_t index, Tracer* tracer, LayerStats* stats) override {
    const int slot = static_cast<int>(index % kSchedules);
    OpResult op;
    op.key = std::string(kModel) + "/hipress-ps/" + kCodec + "/" +
             std::to_string(kNodes) + "/chaos" + std::to_string(slot);
    const auto run = static_cast<int64_t>(index);
    ScopedSpan root(tracer, "churn.run", run);
    hipress::TrainOptions train;
    train.iterations = kIterations;
    train.adaptive.enabled = true;
    train.adaptive.candidate_algorithms = {"terngrad", "onebit"};
    const StatusOr<hipress::TrainReport> report = TimedSimulation(
        [&] { return MakeConfig(slot); }, profile_, train, tracer, run, &op);
    if (!report.ok()) {
      return op;
    }
    const hipress::MembershipReport& membership = report->membership;
    if (!membership.state_consistent) {
      op.ok = false;
      op.error = "members hold inconsistent model state";
    }
    op.iters = kIterations;
    Fingerprint fp;
    fp.AddString(TrainFingerprint(*report));
    fp.Add(membership.model_fingerprint);
    fp.AddString(membership.event_log);
    fp.AddString(report->adaptive.decision_log);
    op.output = fp.Hex();
    if (stats != nullptr) {
      AddRunCounters(*report->metrics, stats);
      stats->Mean("net.resyncs", static_cast<double>(membership.resyncs));
      stats->Mean("net.resync_mb",
                  static_cast<double>(membership.resync_bytes) / 1e6);
      stats->Mean("casync.adaptive.replans", report->adaptive.replans);
      stats->Mean("casync.adaptive.switches",
                  report->adaptive.codec_switches);
      stats->Mean("common.pool.steady_misses",
                  report->metrics->gauge_value("net.step_pool_misses"));
    }
    return op;
  }

  Status Probe(Tracer* tracer, LayerStats* stats, int* mismatches) override {
    // The job's graphs on the fault-free network.
    DesProbeInput input;
    input.system = "hipress-ps";
    input.algorithm = kCodec;
    input.cluster = hipress::ClusterSpec::Ec2(kNodes);
    input.cluster.net.link_bandwidth = hipress::Bandwidth::Gbps(kLinkGbps);
    input.gradient_bytes = profile_.gradient_bytes;
    RETURN_IF_ERROR(ProbeDes(input, 0, tracer, stats));
    return ProbeRealBytes(seed_, nullptr, tracer, stats, mismatches);
  }

  size_t NumKeys() const override { return kSchedules; }

 private:
  StatusOr<hipress::SyncConfig> MakeConfig(int slot) const {
    hipress::ClusterSpec cluster = hipress::ClusterSpec::Ec2(kNodes);
    cluster.net.link_bandwidth = hipress::Bandwidth::Gbps(kLinkGbps);
    hipress::ChaosOptions chaos;
    chaos.seed = Mix(seed_, 40 + slot);
    chaos.num_nodes = kNodes;
    const hipress::FaultConfig schedule = hipress::MakeChaosSchedule(chaos);
    hipress::FaultConfig& faults = cluster.net.faults;
    faults = schedule;
    faults.drop_prob = 0.01;
    faults.seed = Mix(seed_, 50 + slot);
    hipress::CompressorParams params;
    params.seed = Mix(seed_, 60 + slot);
    return hipress::MakeSystemConfig("hipress-ps", cluster, kCodec, params);
  }

  uint64_t seed_ = 0;
  hipress::ModelProfile profile_;
};

// `realbytes`: DistTrainer with four workers on the ~1 MB-gradient MLP,
// codecs none/onebit/terngrad/dgc with error feedback over PS and Ring.
// The loop trains in episodes of kEpisodeSteps single-step Train() calls,
// cycling through the eight trainers; the loss is checked at the end of
// every episode.
class RealBytesWorkload : public Workload {
 public:
  static constexpr int kEpisodeSteps = 2;

  Status Setup(uint64_t seed) override {
    seed_ = seed;
    RETURN_IF_ERROR(hipress::RegisterDslAlgorithms());
    for (const std::string& codec : {"none", "onebit", "terngrad", "dgc"}) {
      for (const hipress::StrategyKind strategy :
           {hipress::StrategyKind::kPs, hipress::StrategyKind::kRing}) {
        const hipress::DistTrainConfig config = RealBytesConfig(
            seed, codec == std::string("none") ? "" : codec, strategy);
        ASSIGN_OR_RETURN(auto trainer, hipress::DistTrainer::Create(config));
        // Pool warm-up: the first step faults the trainer's pooled blocks
        // in; later steps reuse them.
        ASSIGN_OR_RETURN(auto result, trainer->Train(1, 1, 2.0));
        (void)result;
        keys_.push_back(std::string(codec) + "/" +
                        hipress::StrategyKindName(strategy));
        trainers_.push_back(std::move(trainer));
        steps_.push_back(1);
      }
    }
    return hipress::OkStatus();
  }

  OpResult RunOp(size_t index, Tracer* tracer, LayerStats* stats) override {
    const size_t slot = (index / kEpisodeSteps) % trainers_.size();
    hipress::DistTrainer& trainer = *trainers_[slot];
    OpResult op;
    const uint64_t misses_before = hipress::BufferPool::Global().stats().misses;
    ScopedSpan root(tracer, "realbytes.step", static_cast<int64_t>(index));
    const auto start = Clock::now();
    StatusOr<hipress::DistTrainResult> result =
        hipress::InternalError("unset");
    {
      ScopedSpan span(tracer, "minidnn.DistTrainer.Train",
                      static_cast<int64_t>(index));
      result = trainer.Train(1, 1, 2.0);
    }
    op.ms = MsSince(start);
    if (!result.ok()) {
      op.ok = false;
      op.error = result.status().ToString();
      return op;
    }
    op.iters = 1;
    const int step = ++steps_[slot];
    if (!std::isfinite(result->final_loss)) {
      op.ok = false;
      op.error = "non-finite loss";
    }
    // The loss is checked at the end of each episode, keyed by the
    // trainer's step count.
    if ((index + 1) % kEpisodeSteps == 0) {
      op.key = keys_[slot] + "/step" + std::to_string(step);
      op.output = JsonNumber(result->final_loss);
    }
    if (stats != nullptr) {
      const hipress::BufferPool::Stats pool =
          hipress::BufferPool::Global().stats();
      stats->Mean("common.pool.steady_misses",
                  static_cast<double>(pool.misses - misses_before));
      stats->Mean("common.pool.hit_frac",
                  static_cast<double>(pool.hits) /
                      static_cast<double>(pool.hits + pool.misses));
    }
    return op;
  }

  Status Probe(Tracer* tracer, LayerStats* stats, int* mismatches) override {
    for (const auto& trainer : trainers_) {
      AddTrainerStats(*trainer, stats);
    }
    // The DES's view of the same step: the MLP's gradients on four nodes.
    for (const std::string& system : {"hipress-ps", "hipress-ring"}) {
      DesProbeInput input;
      input.system = system;
      input.algorithm = "onebit";
      input.cluster = hipress::ClusterSpec::Ec2(kWorkers);
      input.gradient_bytes = MlpGradientBytes(trainers_[0]->model());
      // The DES's counters for this workload are those of this probe.
      RETURN_IF_ERROR(ProbeDes(input, 0, tracer, stats, /*as_run=*/true));
    }
    return ProbeRealBytes(seed_, &trainers_[0]->model(), tracer, stats,
                          mismatches);
  }

  size_t NumKeys() const override { return trainers_.size(); }
  size_t OpsPerRecord() const override { return kEpisodeSteps; }

 private:
  uint64_t seed_ = 0;
  std::vector<std::string> keys_;
  std::vector<std::unique_ptr<hipress::DistTrainer>> trainers_;
  std::vector<int> steps_;
};

std::unique_ptr<Workload> MakeWorkload(const std::string& name) {
  if (name == "sweep") return std::make_unique<SweepWorkload>();
  if (name == "fleet") return std::make_unique<FleetWorkload>();
  if (name == "churn") return std::make_unique<ChurnWorkload>();
  if (name == "realbytes") return std::make_unique<RealBytesWorkload>();
  return nullptr;
}

// ---------------------------------------------------------------------------
// Driver.
// ---------------------------------------------------------------------------

struct Phase {
  bool traced = false;
  double window_s = 0;
  std::vector<OpResult> ops;
};

// Runs whole passes over the workload's configurations until `seconds` have
// passed, so every run measures the same mix of configurations whatever the
// seed and the host's speed.
Phase RunPhase(Workload& workload, double seconds, size_t* next_index,
               Tracer* tracer, LayerStats* stats) {
  Phase phase;
  phase.traced = tracer != nullptr;
  const size_t cycle = workload.CycleOps();
  const auto start = Clock::now();
  while (MsSince(start) < seconds * 1e3 || *next_index % cycle != 0) {
    phase.ops.push_back(workload.RunOp((*next_index)++, tracer, stats));
  }
  phase.window_s = MsSince(start) / 1e3;
  return phase;
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) {
        return line.substr(line.find_first_not_of(' ', colon + 1));
      }
    }
  }
  return "unknown";
}

std::string HostJson() {
  return "{\"cpu_model\":" + JsonString(CpuModel()) +
         ",\"nproc\":" + std::to_string(std::thread::hardware_concurrency()) +
         ",\"simd_tier\":" +
         JsonString(std::string(
             hipress::SimdTierName(hipress::ActiveSimdTier()))) +
         ",\"pool_threads\":" +
         std::to_string(hipress::ThreadPool::Global().num_threads()) +
         ",\"build_type\":" + JsonString(WALLBENCH_BUILD_TYPE) + "}";
}

double PeakRssKb() {
  struct rusage usage;
  std::memset(&usage, 0, sizeof(usage));
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss);
}

int Usage() {
  std::fprintf(stderr,
               "usage: wallbench_harness --workload sweep|fleet|churn|"
               "realbytes --seed N --seconds S [--trace 0|1] [--spans FILE] "
               "[--setup-only] [--record EPISODES]\n");
  return 2;
}

int Main(int argc, char** argv) {
  std::string workload_name;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool setup_only = false;
  int record = 0;
  std::string spans_path;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--setup-only") {
      setup_only = true;
      continue;
    }
    if (i + 1 >= argc) {
      return Usage();
    }
    const std::string value = argv[++i];
    if (flag == "--workload") {
      workload_name = value;
    } else if (flag == "--seed") {
      seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      trace = value == "1";
    } else if (flag == "--spans") {
      spans_path = value;
    } else if (flag == "--record") {
      record = std::atoi(value.c_str());
    } else {
      return Usage();
    }
  }
  std::unique_ptr<Workload> workload = MakeWorkload(workload_name);
  if (workload == nullptr || !(seconds > 0)) {
    return Usage();
  }
  if (Status status = workload->Setup(seed); !status.ok()) {
    std::fprintf(stderr, "setup failed: %s\n", status.ToString().c_str());
    return 1;
  }
  const double ready = MonotonicSeconds();
  std::string out = "{\"workload\":" + JsonString(workload_name) +
                    ",\"seed\":" + std::to_string(seed) +
                    ",\"host\":" + HostJson() +
                    ",\"ready_monotonic_s\":" + JsonNumber(ready);
  if (setup_only) {
    std::printf("%s}\n", out.c_str());
    return 0;
  }

  if (record > 0) {
    // Every recordable unit of every configuration, in loop order.
    const size_t ops = workload->NumKeys() * workload->OpsPerRecord() *
                       static_cast<size_t>(record);
    out += ",\"record\":[";
    for (size_t i = 0; i < ops; ++i) {
      const OpResult op = workload->RunOp(i, nullptr, nullptr);
      if (!op.ok) {
        std::fprintf(stderr, "record: %s failed: %s\n", op.key.c_str(),
                     op.error.c_str());
        return 1;
      }
      if (!op.output.empty()) {
        out += (out.back() == '[' ? "" : ",") + OpToJson(op);
      }
    }
    std::printf("%s]}\n", out.c_str());
    return 0;
  }

  std::vector<Phase> phases;
  size_t next_index = 0;
  LayerStats stats;
  Tracer tracer;
  int mismatches = 0;
  std::string probe_error;
  if (!trace) {
    phases.push_back(RunPhase(*workload, seconds, &next_index, nullptr,
                              nullptr));
  } else {
    // Both halves run the same operation sequence, so run.py can pair
    // traced with untraced operations to measure the tracing overhead.
    phases.push_back(RunPhase(*workload, seconds / 2, &next_index, nullptr,
                              nullptr));
    next_index = 0;
    phases.push_back(RunPhase(*workload, seconds / 2, &next_index, &tracer,
                              &stats));
    if (Status status = workload->Probe(&tracer, &stats, &mismatches);
        !status.ok()) {
      probe_error = status.ToString();
    }
  }
  out += ",\"peak_rss_kb\":" + JsonNumber(PeakRssKb());
  out += ",\"phases\":[";
  for (size_t p = 0; p < phases.size(); ++p) {
    out += std::string(p > 0 ? "," : "") + "{\"traced\":" +
           (phases[p].traced ? "true" : "false") +
           ",\"window_s\":" + JsonNumber(phases[p].window_s) + ",\"ops\":[";
    for (size_t i = 0; i < phases[p].ops.size(); ++i) {
      out += std::string(i > 0 ? "," : "") + OpToJson(phases[p].ops[i]);
    }
    out += "]}";
  }
  out += "]";
  if (trace) {
    out += ",\"layers\":" + stats.ToJson() +
           ",\"dataflow_mismatches\":" + std::to_string(mismatches) +
           ",\"probe_error\":" + JsonString(probe_error);
    if (!spans_path.empty()) {
      if (Status status = tracer.Write(spans_path); !status.ok()) {
        std::fprintf(stderr, "%s\n", status.ToString().c_str());
        return 1;
      }
    }
  }
  std::printf("%s}\n", out.c_str());
  return 0;
}

}  // namespace
}  // namespace wallbench

int main(int argc, char** argv) { return wallbench::Main(argc, argv); }
