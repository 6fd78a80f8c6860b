#!/usr/bin/env python3
"""Self-tests of the benchmark's own logic.

  python3 wallbench/test_wallbench.py

The tests on synthetic samples need nothing built. The end-to-end test runs
the harness briefly and is skipped until run.py has built it once.
"""

import json
import os
import subprocess
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

SPEC = run.load_spec()
E2E_NAMES = [m["name"] for m in SPEC["end_to_end"]]
LAYER_NAMES = [m["name"] for m in SPEC["per_layer"]]
# Per-layer metrics run.py derives from spans rather than harness counters.
SPAN_DERIVED = set(run.SPAN_TIMES) | {"trace.overhead_pct"} | {
    f"compress.{kind}.{codec}" for codec in run.PROBE_CODECS
    for kind in ("encode_MBps", "decode_add_MBps")}
HOST = {"cpu_model": "test cpu", "nproc": 4, "simd_tier": "avx2",
        "pool_threads": 4, "build_type": "RelWithDebInfo"}


def op(ms, key="k", output="", ok=True, iters=1):
    return {"ms": ms, "iters": iters, "ok": ok, "key": key, "output": output,
            "error": "" if ok else "failed"}


def span(id_, name, start, end, parent=-1, bytes_=0.0):
    return {"id": id_, "name": name, "start_us": start, "end_us": end,
            "parent": parent, "run": 0, "bytes": bytes_}


def synthetic_raw(ops, trace):
    raw = {"host": HOST, "peak_rss_kb": 2048.0,
           "phases": [{"traced": False, "window_s": 2.0, "ops": ops}]}
    if trace:
        raw["phases"].append({"traced": True, "window_s": 2.0, "ops": ops})
        raw["layers"] = {name: 1.0 for name in LAYER_NAMES
                         if name not in SPAN_DERIVED}
        raw["dataflow_mismatches"] = 0
        raw["probe_error"] = ""
    return raw


def synthetic_spans():
    spans = []
    for name, _ in run.SPAN_TIMES.values():
        spans.append(span(len(spans), name, 0.0, 10.0))
    for codec in run.PROBE_CODECS:
        for prefix in ("compress.Encode.", "compress.DecodeAdd."):
            spans.append(span(len(spans), prefix + codec, 0.0, 100.0, -1, 1e6))
    return spans


class MetricsPrintWithUnits(unittest.TestCase):
    def check_record(self, workload, trace):
        ops = [op(10.0 + i, output="1.5", key=f"c{i % 3}") for i in range(120)]
        record = run.summarize(workload, 99, 2, trace,
                               synthetic_raw(ops, trace), [0.5, 0.4, 0.6],
                               synthetic_spans() if trace else [], {})
        line = run.result_line(record, SPEC)
        self.assertEqual(set(line), {"correct", "attempted", "failed",
                                     "metrics"})
        wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
        self.assertEqual(list(line["metrics"]), [m["name"] for m in wanted])
        for metric in wanted:
            printed = line["metrics"][metric["name"]]
            self.assertEqual(printed["unit"], metric["unit"])
            self.assertIsInstance(printed["value"], (int, float))
        text = "\n".join(run.report_lines(record, SPEC))
        names = run.DISPLAY_NAMES[workload]
        for name in E2E_NAMES:
            label = names.get(name, name)
            unit = (run.ITER_UNITS[workload] if name == "iters_per_s" else
                    next(m["unit"] for m in SPEC["end_to_end"]
                         if m["name"] == name))
            self.assertRegex(text, rf"{label}\s+\S+ {unit}")
        self.assertIn("fail_frac", text)
        if trace:
            for name in LAYER_NAMES:
                self.assertIn(name, text)

    def test_every_workload_untraced(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                self.check_record(workload, trace=False)

    def test_every_workload_traced(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                self.check_record(workload, trace=True)


class PercentileRule(unittest.TestCase):
    def test_tail_needs_ten_samples_beyond(self):
        self.assertEqual(run.tail(list(range(99)), 0.9), (None, 9))
        self.assertEqual(run.tail(list(range(100)), 0.9), (89, 10))
        self.assertEqual(run.tail(list(range(1000)), 0.99), (989, 10))

    def test_report_withholds_unsupported_tail(self):
        for n, shown in ((99, False), (100, True)):
            ops = [op(float(i)) for i in range(n)]
            record = run.summarize("sweep", 99, 2, False,
                                   synthetic_raw(ops, False), [0.1], [], {})
            text = "\n".join(run.report_lines(record, SPEC))
            p90_line = next(l for l in text.splitlines() if "run_ms_p90" in l)
            self.assertEqual("not reported" not in p90_line, shown, p90_line)


class FingerprintChecks(unittest.TestCase):
    def test_wrong_expected_fingerprint_fails(self):
        ops = [op(5.0, key="c0", output="00ff")] * 4
        right = {"sweep": {"7": {"c0": "00ff"}}}
        wrong = {"sweep": {"7": {"c0": "00fe"}}}
        self.assertEqual(run.check_ops("sweep", 7, ops, right), (0, 4, 0))
        record = run.summarize("sweep", 7, 2, False,
                               synthetic_raw(ops, False), [0.1], [], wrong)
        self.assertGreater(record["failed"] / record["attempted"], 0)
        self.assertFalse(run.result_line(record, SPEC)["correct"])

    def test_unrecorded_seed_checks_replays(self):
        ops = [op(5.0, key="c0", output="01"), op(5.0, key="c0", output="02")]
        self.assertEqual(run.check_ops("churn", 5, ops, {}), (1, 0, 1))

    def test_loss_compared_to_rounding(self):
        expected = {"realbytes": {"3": {"k": "1.25"}}}
        close = [op(5.0, key="k", output="1.2500000000001")]
        far = [op(5.0, key="k", output="1.2501")]
        self.assertEqual(run.check_ops("realbytes", 3, close, expected)[0], 0)
        self.assertEqual(run.check_ops("realbytes", 3, far, expected)[0], 1)

    def test_error_status_fails(self):
        ops = [op(5.0, ok=False), op(5.0)]
        self.assertEqual(run.check_ops("fleet", 1, ops, {})[0], 1)


class SelfTime(unittest.TestCase):
    def test_self_time_is_duration_minus_child_cover(self):
        spans = [
            span(0, "root", 0.0, 100.0),
            span(1, "a", 10.0, 30.0, parent=0),
            span(2, "b", 20.0, 50.0, parent=0),   # overlaps a
            span(3, "c", 90.0, 120.0, parent=0),  # runs past the parent
            span(4, "a.child", 12.0, 18.0, parent=1),
        ]
        selfs = run.self_times(spans)
        self.assertAlmostEqual(selfs[0], 100.0 - (40.0 + 10.0))
        self.assertAlmostEqual(selfs[1], 20.0 - 6.0)
        self.assertAlmostEqual(selfs[2], 30.0)
        self.assertAlmostEqual(selfs[4], 6.0)


class EndToEnd(unittest.TestCase):
    """Runs the real harness briefly through run.py's command line."""

    def setUp(self):
        build_dir = run.ROOT / os.environ.get("CARGO_TARGET_DIR",
                                              ".bench_build") / "wallbench"
        if not (build_dir / "wallbench_harness").is_file():
            self.skipTest("harness not built; run wallbench/run.py once")

    def run_cli(self, trace):
        done = subprocess.run(
            [sys.executable, str(run.HERE / "run.py"), "--workload", "churn",
             "--seed", "1", "--seconds", "2", "--trace", str(trace)],
            capture_output=True, text=True, timeout=170, check=True)
        lines = done.stdout.strip().splitlines()
        return json.loads(lines[-1]), "\n".join(lines[:-1])

    def test_untraced_and_traced_runs(self):
        for trace, wanted in ((0, SPEC["end_to_end"]),
                              (1, SPEC["per_layer"])):
            result, text = self.run_cli(trace)
            self.assertTrue(result["correct"], text)
            self.assertEqual(result["failed"], 0)
            for metric in wanted:
                self.assertEqual(result["metrics"][metric["name"]]["unit"],
                                 metric["unit"])
            self.assertIn("sim_iters_per_s", text)


if __name__ == "__main__":
    unittest.main()
