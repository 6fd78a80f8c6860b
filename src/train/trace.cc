#include "src/train/trace.h"

#include <fstream>
#include <set>
#include <sstream>
#include <utility>

#include "src/common/string_util.h"

namespace hipress {
namespace {

void AppendEvent(std::ostringstream& out, bool* first, const char* name,
                 SimTime start, SimTime end, int pid, int tid,
                 SimTime origin) {
  if (end <= origin) {
    return;
  }
  if (!*first) {
    out << ",";
  }
  *first = false;
  const double start_us = static_cast<double>(start - origin) / kMicrosecond;
  const double duration_us = static_cast<double>(end - start) / kMicrosecond;
  out << StrFormat(
      "{\"name\":\"%s\",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,"
      "\"pid\":%d,\"tid\":%d}",
      name, start_us, duration_us, pid, tid);
}

void AppendMetadata(std::ostringstream& out, bool* first, const char* kind,
                    const std::string& label, int pid, int tid) {
  if (!*first) {
    out << ",";
  }
  *first = false;
  out << StrFormat(
      "{\"name\":\"%s\",\"ph\":\"M\",\"pid\":%d,\"tid\":%d,"
      "\"args\":{\"name\":\"%s\"}}",
      kind, pid, tid, label.c_str());
}

Status WriteFile(const std::string& path, const std::string& contents) {
  std::ofstream file(path);
  if (!file.good()) {
    return InvalidArgumentError("cannot open trace file: " + path);
  }
  file << contents;
  if (!file.good()) {
    return InternalError("failed writing trace file: " + path);
  }
  return OkStatus();
}

}  // namespace

std::string TimelineToChromeTrace(const std::vector<GpuInterval>& timeline,
                                  SimTime origin) {
  std::ostringstream out;
  out << "{\"traceEvents\":[";
  bool first = true;
  for (const GpuInterval& interval : timeline) {
    // tid groups rows by task kind; compute on row 0.
    AppendEvent(out, &first, GpuTaskKindName(interval.kind), interval.start,
                interval.end, 0, static_cast<int>(interval.kind), origin);
  }
  out << "],\"displayTimeUnit\":\"ms\"}";
  return out.str();
}

Status WriteChromeTrace(const std::string& path,
                        const std::vector<GpuInterval>& timeline,
                        SimTime origin) {
  return WriteFile(path, TimelineToChromeTrace(timeline, origin));
}

std::string UnifiedTraceToJson(const UnifiedTraceInput& input) {
  std::ostringstream out;
  out << "{\"traceEvents\":[";
  bool first = true;

  // Track/row labels first: every node present in a timeline or a span
  // gets a process row; (node, lane) pairs actually used get thread rows.
  std::set<int> nodes;
  std::set<std::pair<int, int>> lanes;
  for (size_t node = 0; node < input.node_timelines.size(); ++node) {
    for (const GpuInterval& interval : input.node_timelines[node]) {
      if (interval.end <= input.origin) {
        continue;
      }
      nodes.insert(static_cast<int>(node));
      lanes.insert({static_cast<int>(node), static_cast<int>(interval.kind)});
    }
  }
  std::vector<TraceSpan> spans;
  if (input.spans != nullptr) {
    spans = input.spans->spans();
    for (const TraceSpan& span : spans) {
      if (span.end <= input.origin) {
        continue;
      }
      nodes.insert(span.node);
      lanes.insert({span.node, span.lane});
    }
  }
  for (const int node : nodes) {
    AppendMetadata(out, &first, "process_name", StrFormat("node%d", node),
                   node, 0);
  }
  for (const auto& [node, lane] : lanes) {
    const std::string label =
        lane < kTraceLaneNetUplink
            ? StrFormat("gpu:%s",
                        GpuTaskKindName(static_cast<GpuTaskKind>(lane)))
            : TraceLaneName(lane);
    AppendMetadata(out, &first, "thread_name", label, node, lane);
  }

  for (size_t node = 0; node < input.node_timelines.size(); ++node) {
    for (const GpuInterval& interval : input.node_timelines[node]) {
      AppendEvent(out, &first, GpuTaskKindName(interval.kind), interval.start,
                  interval.end, static_cast<int>(node),
                  static_cast<int>(interval.kind), input.origin);
    }
  }
  for (const TraceSpan& span : spans) {
    AppendEvent(out, &first, span.name.c_str(), span.start, span.end,
                span.node, span.lane, input.origin);
  }
  out << "],\"displayTimeUnit\":\"ms\"}";
  return out.str();
}

Status WriteUnifiedTrace(const std::string& path,
                         const UnifiedTraceInput& input) {
  return WriteFile(path, UnifiedTraceToJson(input));
}

Status WriteTrainReportTrace(const std::string& path,
                             const TrainReport& report) {
  if (report.node_timelines.empty() && report.timeline.empty() &&
      report.spans == nullptr) {
    return FailedPreconditionError(
        "report has no recorded timelines/spans; run with "
        "TrainOptions.record_timeline");
  }
  UnifiedTraceInput input;
  input.node_timelines = report.node_timelines;
  if (input.node_timelines.empty() && !report.timeline.empty()) {
    input.node_timelines.push_back(report.timeline);
  }
  input.spans = report.spans.get();
  input.origin = report.timeline_origin;
  return WriteUnifiedTrace(path, input);
}

}  // namespace hipress
