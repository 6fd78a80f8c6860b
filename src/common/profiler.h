// Cost-model drift auditing and per-iteration step reports.
//
// Two pieces, both feeding the observability story:
//
//  * CostModelAuditor — accumulates measured per-primitive samples
//    (bytes, duration) next to the calibrated KernelCost lines the SeCoPa
//    planner and the CaSync engine plan with, publishes mean relative
//    error gauges ("costmodel.err.<primitive>"), and fits fresh
//    least-squares KernelCost lines from the samples so planning inputs
//    can be audited — and optionally refreshed — from real runs
//    (docs/COST_MODEL.md).
//
//  * StepRecord — one iteration's critical-path wall-time attribution
//    (compute / encode / merge / send+wire / recv / decode / wait),
//    serialized as one JSON object per line (`train_cluster
//    --step-report steps.jsonl`). The categories mirror
//    src/casync/critical_path.h; plain doubles here keep this layer free
//    of casync dependencies.
#ifndef HIPRESS_SRC_COMMON_PROFILER_H_
#define HIPRESS_SRC_COMMON_PROFILER_H_

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "src/common/kernel_cost.h"
#include "src/common/metrics.h"
#include "src/common/status.h"
#include "src/common/units.h"

namespace hipress {

// The cost-model primitives the planner prices (Eq. 1/2's T_send, T_enc,
// T_dec plus the raw path's merge kernel).
enum class CostPrimitive {
  kEncode,
  kDecode,
  kMerge,
  kSend,
};
inline constexpr int kNumCostPrimitives = 4;

const char* CostPrimitiveName(CostPrimitive primitive);

// Least-squares sufficient statistics over (x = bytes, y = ns) samples.
// Snapshots of one primitive's accumulated statistics subtract cleanly
// (`Since`), so a caller holding the previous iteration's snapshot can fit
// a cost line over just the samples recorded in between — the windowed
// view the runtime-adaptive controller estimates effective bandwidth from
// (docs/ADAPTIVE.md) without the auditor growing any per-sample state.
struct CostSampleStats {
  uint64_t count = 0;
  double sum_x = 0.0;
  double sum_y = 0.0;
  double sum_xx = 0.0;
  double sum_xy = 0.0;

  // Delta window: statistics accumulated after `earlier` was taken.
  // `earlier` must be a prefix snapshot of the same primitive's stream.
  CostSampleStats Since(const CostSampleStats& earlier) const;

  // Least-squares line fit time = launch_overhead + bytes / throughput.
  // False when under-determined (fewer than two samples, or a degenerate
  // spread of byte sizes) or when the fitted throughput is non-positive.
  bool Fit(KernelCost* out) const;

  // Aggregate bytes/second over the window (sum bytes / sum duration);
  // 0 when empty. The fallback bandwidth estimate when Fit is
  // under-determined — biased low by per-message overheads, but monotone
  // in the real link speed and always available.
  double MeanThroughput() const;
};

// Accumulates (bytes, measured duration) samples per primitive against a
// predicted KernelCost line. Tracks mean relative error incrementally and
// keeps least-squares sufficient statistics, so memory stays O(1) per
// primitive regardless of sample volume. Not thread-safe — the simulator
// is single-threaded; wrap externally if recording from worker threads.
class CostModelAuditor {
 public:
  // Installs the prediction the samples are audited against. Until set,
  // AddSample still accumulates fit statistics but relative error is 0.
  void SetPrediction(CostPrimitive primitive, KernelCost cost);
  const KernelCost& prediction(CostPrimitive primitive) const;
  bool has_prediction(CostPrimitive primitive) const;

  void AddSample(CostPrimitive primitive, uint64_t bytes, SimTime measured);

  uint64_t samples(CostPrimitive primitive) const;
  // Mean over samples of |measured - predicted| / predicted (0 when no
  // samples or no prediction installed).
  double MeanRelativeError(CostPrimitive primitive) const;

  // Least-squares line fit time = launch_overhead + bytes / throughput
  // over the recorded samples. Returns false when under-determined (fewer
  // than two samples, or all samples at one byte size — the slope is
  // unidentifiable) or when the fitted throughput is non-positive.
  bool Fit(CostPrimitive primitive, KernelCost* out) const;

  // Snapshot of the primitive's whole-run sufficient statistics; diff two
  // snapshots with CostSampleStats::Since for a windowed fit.
  CostSampleStats Snapshot(CostPrimitive primitive) const;

  // Publishes "costmodel.samples.<p>" counters, "costmodel.err.<p>"
  // gauges, and — where a fit exists — "costmodel.fit.<p>.launch_us" /
  // "costmodel.fit.<p>.gbps" gauges into `registry`.
  void Publish(MetricsRegistry* registry) const;

 private:
  struct PrimitiveStats {
    KernelCost prediction;
    bool has_prediction = false;
    uint64_t count = 0;
    double sum_rel_err = 0.0;  // sum of |measured - predicted| / predicted
    // Least-squares sufficient statistics over (x = bytes, y = ns).
    double sum_x = 0.0;
    double sum_y = 0.0;
    double sum_xx = 0.0;
    double sum_xy = 0.0;
    uint64_t min_bytes = 0;
    uint64_t max_bytes = 0;
  };

  std::array<PrimitiveStats, kNumCostPrimitives> stats_{};
};

// ---------------------------------------------------------------------------
// Step reports
// ---------------------------------------------------------------------------

// One training iteration's wall-time attribution along the critical path.
// All durations in milliseconds; the attribution fields sum to
// iteration_ms by construction (src/casync/critical_path.h).
struct StepRecord {
  int iteration = 0;
  double iteration_ms = 0.0;
  double compute_ms = 0.0;
  double encode_ms = 0.0;
  double merge_ms = 0.0;
  double send_ms = 0.0;  // send + wire (queueing through delivery)
  double recv_ms = 0.0;
  double decode_ms = 0.0;
  double wait_ms = 0.0;  // resource queueing along the path
  int path_tasks = 0;    // chain length of the bounding task graph
  // Max-minus-median of the per-node last-sync-completion offsets (the
  // straggler skew this iteration).
  double straggler_skew_ms = 0.0;
  bool degraded = false;  // a recovery window overlapped this iteration
};

// {"iteration":0,"iteration_ms":...,...} — keys in declaration order,
// deterministic for fixed values.
std::string StepRecordToJson(const StepRecord& record);

// Writes one JSON object per line (JSONL).
Status WriteStepReport(const std::string& path,
                       const std::vector<StepRecord>& steps);

}  // namespace hipress

#endif  // HIPRESS_SRC_COMMON_PROFILER_H_
