#include "src/common/profiler.h"

#include <algorithm>
#include <cmath>
#include <fstream>

#include "src/common/string_util.h"

namespace hipress {

const char* CostPrimitiveName(CostPrimitive primitive) {
  switch (primitive) {
    case CostPrimitive::kEncode:
      return "encode";
    case CostPrimitive::kDecode:
      return "decode";
    case CostPrimitive::kMerge:
      return "merge";
    case CostPrimitive::kSend:
      return "send";
  }
  return "unknown";
}

namespace {

size_t Index(CostPrimitive primitive) {
  return static_cast<size_t>(primitive);
}

}  // namespace

CostSampleStats CostSampleStats::Since(const CostSampleStats& earlier) const {
  CostSampleStats window;
  window.count = count - earlier.count;
  window.sum_x = sum_x - earlier.sum_x;
  window.sum_y = sum_y - earlier.sum_y;
  window.sum_xx = sum_xx - earlier.sum_xx;
  window.sum_xy = sum_xy - earlier.sum_xy;
  return window;
}

bool CostSampleStats::Fit(KernelCost* out) const {
  if (count < 2) {
    return false;
  }
  const double n = static_cast<double>(count);
  const double denom = n * sum_xx - sum_x * sum_x;
  // denom == 0 when every sample sits at one byte size; floating-point
  // cancellation can leave a tiny positive residue there, so require a
  // meaningful spread relative to the magnitudes involved.
  if (denom <= 1e-9 * n * sum_xx) {
    return false;
  }
  // y = intercept + slope * x; slope is ns per byte.
  const double slope = (n * sum_xy - sum_x * sum_y) / denom;
  const double intercept = (sum_y - slope * sum_x) / n;
  if (slope <= 0) {
    return false;  // throughput would be infinite or negative
  }
  out->launch_overhead = static_cast<SimTime>(std::max(0.0, intercept));
  out->bytes_per_second = static_cast<double>(kSecond) / slope;
  return true;
}

double CostSampleStats::MeanThroughput() const {
  if (count == 0 || sum_y <= 0) {
    return 0.0;
  }
  return sum_x / sum_y * static_cast<double>(kSecond);
}

void CostModelAuditor::SetPrediction(CostPrimitive primitive,
                                     KernelCost cost) {
  PrimitiveStats& stats = stats_[Index(primitive)];
  stats.prediction = cost;
  stats.has_prediction = true;
}

const KernelCost& CostModelAuditor::prediction(
    CostPrimitive primitive) const {
  return stats_[Index(primitive)].prediction;
}

bool CostModelAuditor::has_prediction(CostPrimitive primitive) const {
  return stats_[Index(primitive)].has_prediction;
}

void CostModelAuditor::AddSample(CostPrimitive primitive, uint64_t bytes,
                                 SimTime measured) {
  PrimitiveStats& stats = stats_[Index(primitive)];
  if (stats.count == 0) {
    stats.min_bytes = bytes;
    stats.max_bytes = bytes;
  } else {
    stats.min_bytes = std::min(stats.min_bytes, bytes);
    stats.max_bytes = std::max(stats.max_bytes, bytes);
  }
  ++stats.count;
  const double x = static_cast<double>(bytes);
  const double y = static_cast<double>(measured);
  stats.sum_x += x;
  stats.sum_y += y;
  stats.sum_xx += x * x;
  stats.sum_xy += x * y;
  if (stats.has_prediction) {
    const double predicted =
        static_cast<double>(stats.prediction.Time(bytes));
    if (predicted > 0) {
      stats.sum_rel_err += std::abs(y - predicted) / predicted;
    }
  }
}

uint64_t CostModelAuditor::samples(CostPrimitive primitive) const {
  return stats_[Index(primitive)].count;
}

double CostModelAuditor::MeanRelativeError(CostPrimitive primitive) const {
  const PrimitiveStats& stats = stats_[Index(primitive)];
  if (stats.count == 0) {
    return 0.0;
  }
  return stats.sum_rel_err / static_cast<double>(stats.count);
}

bool CostModelAuditor::Fit(CostPrimitive primitive, KernelCost* out) const {
  const PrimitiveStats& stats = stats_[Index(primitive)];
  if (stats.count >= 2 && stats.min_bytes == stats.max_bytes) {
    return false;  // one byte size: the slope is unidentifiable
  }
  return Snapshot(primitive).Fit(out);
}

CostSampleStats CostModelAuditor::Snapshot(CostPrimitive primitive) const {
  const PrimitiveStats& stats = stats_[Index(primitive)];
  CostSampleStats snapshot;
  snapshot.count = stats.count;
  snapshot.sum_x = stats.sum_x;
  snapshot.sum_y = stats.sum_y;
  snapshot.sum_xx = stats.sum_xx;
  snapshot.sum_xy = stats.sum_xy;
  return snapshot;
}

void CostModelAuditor::Publish(MetricsRegistry* registry) const {
  constexpr CostPrimitive kAll[] = {CostPrimitive::kEncode,
                                    CostPrimitive::kDecode,
                                    CostPrimitive::kMerge,
                                    CostPrimitive::kSend};
  for (const CostPrimitive primitive : kAll) {
    const PrimitiveStats& stats = stats_[Index(primitive)];
    if (stats.count == 0) {
      continue;
    }
    const char* name = CostPrimitiveName(primitive);
    Counter& count =
        registry->counter(StrFormat("costmodel.samples.%s", name));
    // Publish is a snapshot: top the counter up to the current total so
    // repeated publishes stay idempotent.
    const uint64_t have = count.value();
    if (stats.count > have) {
      count.Increment(stats.count - have);
    }
    registry->gauge(StrFormat("costmodel.err.%s", name))
        .Set(MeanRelativeError(primitive));
    KernelCost fitted;
    if (Fit(primitive, &fitted)) {
      registry->gauge(StrFormat("costmodel.fit.%s.launch_us", name))
          .Set(static_cast<double>(fitted.launch_overhead) / kMicrosecond);
      registry->gauge(StrFormat("costmodel.fit.%s.gbps", name))
          .Set(fitted.bytes_per_second / 1e9);
    }
  }
}

// ---------------------------------------------------------------------------
// Step reports
// ---------------------------------------------------------------------------

std::string StepRecordToJson(const StepRecord& record) {
  return StrFormat(
      "{\"iteration\":%d,\"iteration_ms\":%.6f,\"compute_ms\":%.6f,"
      "\"encode_ms\":%.6f,\"merge_ms\":%.6f,\"send_ms\":%.6f,"
      "\"recv_ms\":%.6f,\"decode_ms\":%.6f,\"wait_ms\":%.6f,"
      "\"path_tasks\":%d,\"straggler_skew_ms\":%.6f,\"degraded\":%s}",
      record.iteration, record.iteration_ms, record.compute_ms,
      record.encode_ms, record.merge_ms, record.send_ms, record.recv_ms,
      record.decode_ms, record.wait_ms, record.path_tasks,
      record.straggler_skew_ms, record.degraded ? "true" : "false");
}

Status WriteStepReport(const std::string& path,
                       const std::vector<StepRecord>& steps) {
  std::ofstream file(path);
  if (!file.good()) {
    return InvalidArgumentError("cannot open step report file: " + path);
  }
  for (const StepRecord& record : steps) {
    file << StepRecordToJson(record) << "\n";
  }
  if (!file.good()) {
    return InternalError("failed writing step report file: " + path);
  }
  return OkStatus();
}

}  // namespace hipress
