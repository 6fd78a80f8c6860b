#!/usr/bin/env python3
"""Wall-clock benchmark of the HiPress reproduction.

Builds wallbench_harness from the sources next to this directory, runs one
workload (or all of them) as a closed loop for a fixed time, checks the
simulated and trained outputs against recorded values, and prints every
metric with its unit. The last line of standard output is one JSON object:

  {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics of BENCHMARK.json for --trace 0 and its
per-layer metrics for --trace 1.

  python3 wallbench/run.py --workload sweep --seed 1 --seconds 20 --trace 0
  python3 wallbench/run.py --workload all            # every workload
  python3 wallbench/run.py --record --seeds 0-15     # re-record outputs

Result files (host record, every metric, spans) go to .bench_out/.
See wallbench/README.md.
"""

import argparse
import concurrent.futures
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
EXPECTED_PATH = HERE / "expected.json"
WORKLOADS = ("sweep", "fleet", "churn", "realbytes")
DEFAULT_SEED = 1
HELD_OUT_SEED = 2
# Extra set-ups per run; setup_s is the median of these and the main run's.
# Cheap set-ups are repeated up to SETUP_MAX times within SETUP_BUDGET_S.
SETUP_MIN = 4
SETUP_MAX = 20
SETUP_BUDGET_S = 2.0
# A tail percentile is reported only with at least this many samples beyond.
TAIL_MIN_BEYOND = 10
# Runs or training episodes per configuration that --record stores.
RECORD_UNITS = {"sweep": 1, "fleet": 1, "churn": 1, "realbytes": 12}
RECORD_JOBS = 3
HARNESS_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850

# Per-workload names of the end-to-end metrics. The names in BENCHMARK.json
# are shared by every workload: iters_per_s is
# sim_iters_per_s on the simulated workloads and steps_per_s on realbytes;
# op_ms_p50 is the median wall time of one run, or of one step.
DISPLAY_NAMES = {
    "sweep": {"iters_per_s": "sim_iters_per_s", "op_ms_p50": "run_ms_p50",
              "op_ms_p90": "run_ms_p90"},
    "fleet": {"iters_per_s": "sim_iters_per_s", "op_ms_p50": "run_ms_p50"},
    "churn": {"iters_per_s": "sim_iters_per_s", "op_ms_p50": "run_ms_p50"},
    "realbytes": {"iters_per_s": "steps_per_s", "op_ms_p50": "step_ms_p50",
                  "op_ms_p90": "step_ms_p90"},
}
ITER_UNITS = {"sweep": "job-iterations/s", "fleet": "job-iterations/s",
              "churn": "job-iterations/s", "realbytes": "steps/s"}

# Per-layer metrics taken as the median duration of a span: (span name,
# scale from microseconds).
SPAN_TIMES = {
    "strategies.config_ms": ("strategies.MakeSystemConfig", 1e-3),
    "casync.builder.graph_us": ("casync.builder.AppendSyncTasks", 1.0),
    "casync.engine.iter_ms": ("casync.engine.Execute+Run", 1e-3),
    "casync.critical_path.analyze_us":
        ("casync.critical_path.AnalyzeCriticalPath", 1.0),
    "casync.dataflow.sync_ms": ("casync.dataflow.step", 1e-3),
}
PROBE_CODECS = ("onebit", "terngrad", "dgc")


class BenchError(Exception):
    pass


def load_spec():
    with open(HERE.parent / "BENCHMARK.json") as f:
        return json.load(f)


# ---------------------------------------------------------------------------
# Statistics.
# ---------------------------------------------------------------------------

def tail(samples, q):
    """Nearest-rank q-quantile, or None unless TAIL_MIN_BEYOND samples lie
    beyond it. Returns (value, samples beyond)."""
    ordered = sorted(samples)
    n = len(ordered)
    if n == 0:
        return None, 0
    rank = max(1, math.ceil(q * n))
    beyond = n - rank
    if beyond < TAIL_MIN_BEYOND:
        return None, beyond
    return ordered[rank - 1], beyond


def self_times(spans):
    """Self time of each span: its duration minus the part of its interval
    that its child spans cover. Returns {span id: self microseconds}."""
    children = {}
    for span in spans:
        if span["parent"] >= 0:
            children.setdefault(span["parent"], []).append(span)
    result = {}
    for span in spans:
        start, end = span["start_us"], span["end_us"]
        covered = 0.0
        cursor = start
        for child in sorted(children.get(span["id"], []),
                            key=lambda c: c["start_us"]):
            lo = max(child["start_us"], cursor)
            hi = min(child["end_us"], end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        result[span["id"]] = (end - start) - covered
    return result


# ---------------------------------------------------------------------------
# Output checks.
# ---------------------------------------------------------------------------

def outputs_match(workload, expected, actual):
    if workload == "realbytes":
        a, b = float(expected), float(actual)
        return math.isfinite(b) and math.isclose(a, b, rel_tol=1e-9,
                                                 abs_tol=1e-12)
    return expected == actual


def check_ops(workload, seed, ops, expected):
    """Counts failed operations: an error Status, or an output that differs
    from the value recorded for this seed. For a seed with no recorded
    values, repeated runs of a configuration must reproduce its first
    output. Returns (failed, compared with record, compared with replay)."""
    table = expected.get(workload, {}).get(str(seed))
    first = {}
    failed = recorded = replayed = 0
    for op in ops:
        bad = not op["ok"]
        if not bad and op["output"]:
            key, out = op["key"], op["output"]
            if table is not None and key in table:
                bad = not outputs_match(workload, table[key], out)
                recorded += 1
            elif key in first:
                bad = not outputs_match(workload, first[key], out)
                replayed += 1
            else:
                first[key] = out
        failed += bad
    return failed, recorded, replayed


# ---------------------------------------------------------------------------
# Metrics.
# ---------------------------------------------------------------------------

def end_to_end(workload, phase, setup_samples, peak_rss_kb):
    """BENCHMARK.json's end-to-end metrics plus the tails the percentile rule
    allows, from an untraced phase."""
    ms = [op["ms"] for op in phase["ops"]]
    iters = sum(op["iters"] for op in phase["ops"])
    values = {
        "setup_s": statistics.median(setup_samples),
        "iters_per_s": iters / phase["window_s"],
        "op_ms_p50": statistics.median(ms),
        "peak_rss_mb": peak_rss_kb / 1024.0,
    }
    p90, beyond = tail(ms, 0.9)
    extra = {"samples": len(ms), "op_ms_p90": p90, "p90_beyond": beyond,
             "op_ms": ms}
    return values, extra


def per_layer(raw, spans):
    """Per-layer metrics: span-timed calls, counters the layers expose, and
    the tracing overhead (traced minus untraced median op time)."""
    values = dict(raw["layers"])
    by_name = {}
    for span in spans:
        by_name.setdefault(span["name"], []).append(span)

    for metric, (name, scale) in SPAN_TIMES.items():
        found = [s["end_us"] - s["start_us"] for s in by_name.get(name, [])]
        values[metric] = statistics.median(found) * scale if found else None
    for codec in PROBE_CODECS:
        for metric, name in (("encode_MBps", "compress.Encode."),
                             ("decode_add_MBps", "compress.DecodeAdd.")):
            found = by_name.get(name + codec, [])
            seconds = sum(s["end_us"] - s["start_us"] for s in found) / 1e6
            payload = sum(s["bytes"] for s in found)
            values[f"compress.{metric}.{codec}"] = (
                payload / seconds / 1e6 if seconds > 0 else None)
    values["trace.overhead_pct"] = tracing_overhead_pct(raw["phases"])
    return values


def tracing_overhead_pct(phases):
    """Median over operations of traced time over untraced time, minus one,
    in percent. Both phases run the same operation sequence, so the i-th
    operations pair up."""
    untraced, traced = phases
    ratios = [t["ms"] / u["ms"] for u, t in zip(untraced["ops"], traced["ops"])
              if u["ms"] > 0]
    return 100.0 * (statistics.median(ratios) - 1.0)


# ---------------------------------------------------------------------------
# Building and running the harness.
# ---------------------------------------------------------------------------

def build():
    if not (ROOT / "CMakeLists.txt").is_file() or \
            not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise BenchError(f"no HiPress sources in {ROOT}")
    build_dir = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / \
        "wallbench"
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (build_dir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(build_dir), "--target",
                  "wallbench_harness", "-j", jobs])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S, check=False)
        if done.returncode != 0:
            raise BenchError("build failed: " + " ".join(cmd))
    return build_dir / "wallbench_harness"


def run_harness(binary, args, log_path):
    """Runs the harness; returns (its JSON document, monotonic spawn time)."""
    with open(log_path, "a") as log:
        spawned = time.monotonic()
        done = subprocess.run([str(binary)] + args, stdout=subprocess.PIPE,
                              stderr=log, timeout=HARNESS_TIMEOUT_S,
                              check=False, text=True)
    if done.returncode != 0:
        raise BenchError(f"harness {' '.join(args)} exited "
                         f"{done.returncode}; see {log_path}")
    lines = done.stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"harness {' '.join(args)} printed nothing")
    return json.loads(lines[-1]), spawned


def load_expected():
    if EXPECTED_PATH.is_file():
        with open(EXPECTED_PATH) as f:
            return json.load(f)
    return {}


def measure(binary, workload, seed, seconds, trace, out_dir, expected):
    """One benchmark run: set-ups, the timed run, checks. Writes the result
    file and returns the result record."""
    stem = f"{workload}-seed{seed}-trace{int(trace)}"
    log_path = out_dir / f"{stem}.log"
    log_path.unlink(missing_ok=True)
    spans_path = out_dir / f"{stem}.spans.jsonl"
    base = ["--workload", workload, "--seed", str(seed)]
    setup_samples = []
    started = time.monotonic()
    while len(setup_samples) < SETUP_MIN or (
            len(setup_samples) < SETUP_MAX and
            time.monotonic() - started < SETUP_BUDGET_S):
        doc, spawned = run_harness(
            binary, base + ["--seconds", "1", "--setup-only"], log_path)
        setup_samples.append(doc["ready_monotonic_s"] - spawned)
    args = base + ["--seconds", str(seconds), "--trace", str(int(trace))]
    if trace:
        args += ["--spans", str(spans_path)]
    raw, spawned = run_harness(binary, args, log_path)
    setup_samples.append(raw["ready_monotonic_s"] - spawned)
    spans = []
    if trace:
        with open(spans_path) as f:
            spans = [json.loads(line) for line in f]
    record = summarize(workload, seed, seconds, trace, raw, setup_samples,
                       spans, expected)
    if trace:
        record["spans_file"] = str(spans_path)
    with open(out_dir / f"{stem}.json", "w") as f:
        json.dump(record, f, indent=1, sort_keys=True)
    return record


def summarize(workload, seed, seconds, trace, raw, setup_samples, spans,
              expected):
    """The result record of one run from the harness's raw samples."""
    ops = [op for phase in raw["phases"] for op in phase["ops"]]
    failed, recorded, replayed = check_ops(workload, seed, ops, expected)
    errors = sorted({op["error"] for op in ops if op["error"]})
    attempted = len(ops)
    if trace:
        # A dataflow result that differs between workers, or a probe that
        # returned an error, fails the probe check.
        attempted += 1
        failed += int(raw["dataflow_mismatches"] > 0 or
                      bool(raw["probe_error"]))
        if raw["probe_error"]:
            errors.append(raw["probe_error"])
    e2e, extra = end_to_end(workload, raw["phases"][0], setup_samples,
                            raw["peak_rss_kb"])
    record = {
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": int(trace), "host": raw["host"],
        "attempted": attempted, "failed": failed,
        "checked_against_record": recorded, "checked_by_replay": replayed,
        "seed_recorded": str(seed) in expected.get(workload, {}),
        "errors": errors, "setup_samples_s": setup_samples,
        "end_to_end": e2e, "tails": extra,
    }
    if trace:
        record["per_layer"] = per_layer(raw, spans)
        selfs = self_times(spans)
        totals = {}
        for span in spans:
            entry = totals.setdefault(span["name"], [0, 0.0, 0.0])
            entry[0] += 1
            entry[1] += span["end_us"] - span["start_us"]
            entry[2] += selfs[span["id"]]
        record["self_time_ms"] = {
            name: {"count": c, "total_ms": t / 1e3, "self_ms": s / 1e3}
            for name, (c, t, s) in totals.items()}
    return record


# ---------------------------------------------------------------------------
# Reporting.
# ---------------------------------------------------------------------------

def fmt(value):
    if value is None:
        return "n/a"
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def report_lines(record, spec):
    """Human-readable lines: every metric by its per-workload name, with its
    unit, plus the failure count with its base."""
    workload = record["workload"]
    names = DISPLAY_NAMES[workload]
    host = record["host"]
    lines = [
        f"wallbench {workload} seed={record['seed']} "
        f"seconds={record['seconds']} trace={record['trace']}",
        f"  host: {host['cpu_model']}, nproc {host['nproc']}, simd "
        f"{host['simd_tier']}, pool {host['pool_threads']} threads, "
        f"{host['build_type']}",
    ]
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    e2e, tails = record["end_to_end"], record["tails"]
    untraced = " (untraced phase)" if record["trace"] else ""
    for name, value in e2e.items():
        label = names.get(name, name)
        unit = ITER_UNITS[workload] if name == "iters_per_s" else units[name]
        note = f"  [{name}]" if label != name else ""
        if name == "setup_s":
            note += f"  median of {len(record['setup_samples_s'])} set-ups"
        if name == "op_ms_p50":
            note += f"  n={tails['samples']}"
        lines.append(f"  {label:<18} {fmt(value):>12} {unit}{note}{untraced}")
    if "op_ms_p90" in names:
        p90 = tails["op_ms_p90"]
        why = (f"{tails['p90_beyond']} samples beyond" if p90 is not None
               else f"not reported: {tails['p90_beyond']} samples beyond, "
               f"fewer than {TAIL_MIN_BEYOND}")
        lines.append(f"  {names['op_ms_p90']:<18} {fmt(p90):>12} ms  "
                     f"n={tails['samples']}, {why}{untraced}")
    frac = record["failed"] / record["attempted"]
    lines.append(f"  {'fail_frac':<18} {fmt(frac):>12} failed/attempted  "
                 f"({record['failed']}/{record['attempted']})")
    source = ("recorded values for this seed" if record["seed_recorded"]
              else "replays within the run (seed not recorded)")
    lines.append(f"  outputs checked: {record['checked_against_record']} "
                 f"against recorded values, {record['checked_by_replay']} by "
                 f"replay; reference: {source}")
    for error in record["errors"][:5]:
        lines.append(f"  error: {error}")
    if record["trace"]:
        layer_units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        lines.append("  per-layer (traced phase and probes):")
        for name, value in sorted(record["per_layer"].items()):
            lines.append(f"    {name:<40} {fmt(value):>14} "
                         f"{layer_units.get(name, '')}")
        lines.append("  self time by span (ms):")
        ranked = sorted(record["self_time_ms"].items(),
                        key=lambda kv: -kv[1]["self_ms"])
        for name, t in ranked[:12]:
            lines.append(f"    {name:<40} {t['self_ms']:>10.2f} of "
                         f"{t['total_ms']:.2f} over {t['count']} spans")
    return lines


def result_line(record, spec):
    """The result's last line: end-to-end metrics untraced, per-layer
    metrics traced."""
    if record["trace"]:
        wanted = spec["per_layer"]
        values = record["per_layer"]
    else:
        wanted = spec["end_to_end"]
        values = record["end_to_end"]
    metrics = {}
    for metric in wanted:
        value = values.get(metric["name"])
        if value is None:
            raise BenchError(f"metric {metric['name']} was not measured")
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
    return {"correct": record["failed"] == 0,
            "attempted": record["attempted"], "failed": record["failed"],
            "metrics": metrics}


# ---------------------------------------------------------------------------
# Recording expected outputs.
# ---------------------------------------------------------------------------

def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def record_expected(binary, workloads, seeds, out_dir):
    """Runs every configuration of every seed once (realbytes: its first
    RECORD_UNITS episodes per trainer) and stores the outputs. Runs are
    deterministic, so they go RECORD_JOBS at a time."""
    def record_one(workload, seed):
        doc, _ = run_harness(
            binary, ["--workload", workload, "--seed", str(seed),
                     "--seconds", "1", "--record",
                     str(RECORD_UNITS[workload])],
            out_dir / f"record-{workload}-{seed}.log")
        return workload, seed, {op["key"]: op["output"]
                                for op in doc["record"]}

    expected = load_expected()
    jobs = [(w, s) for w in workloads for s in seeds]
    with concurrent.futures.ThreadPoolExecutor(RECORD_JOBS) as pool:
        for workload, seed, table in pool.map(lambda j: record_one(*j),
                                              jobs):
            expected.setdefault(workload, {})[str(seed)] = table
            print(f"recorded {workload} seed {seed}: {len(table)} outputs",
                  file=sys.stderr)
    expected["default_seed"] = DEFAULT_SEED
    expected["held_out_seed"] = HELD_OUT_SEED
    with open(EXPECTED_PATH, "w") as f:
        json.dump(expected, f, indent=1, sort_keys=True)
        f.write("\n")


# ---------------------------------------------------------------------------

def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="re-record expected outputs into expected.json")
    parser.add_argument("--seeds", default=f"{DEFAULT_SEED},{HELD_OUT_SEED}",
                        help="seeds for --record, e.g. 0-15")
    args = parser.parse_args(argv)
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        spec = load_spec()
        seconds = args.seconds or spec["run_seconds"]
        binary = build()
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        if args.record:
            record_expected(binary, workloads, parse_seeds(args.seeds),
                            out_dir)
            return 0
        expected = load_expected()
        results = {}
        for workload in workloads:
            record = measure(binary, workload, args.seed, seconds,
                             bool(args.trace), out_dir, expected)
            print("\n".join(report_lines(record, spec)), flush=True)
            results[workload] = result_line(record, spec)
    except (BenchError, OSError, subprocess.TimeoutExpired,
            json.JSONDecodeError, KeyError) as e:
        print(f"wallbench: {e}", file=sys.stderr)
        return 2
    if len(workloads) == 1:
        print(json.dumps(results[workloads[0]]))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {w: r["metrics"] for w, r in results.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
