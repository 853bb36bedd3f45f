"""Self-test of the benchmark at toy scale.

Runs every workload run.py knows (the gated ones of BENCHMARK.json and
dense-scan) with ``--toy`` untraced and traced, and checks that
every end-to-end and per-layer metric of BENCHMARK.json is reported with its
unit, that no pass failed (``fail_share`` is 0), and that the span file
nests run > pass > algorithm call > Spark job. Also checks that the
benchmark refuses to run, without printing a result, when the program's
sources are missing.

Run from the repository root (about two minutes on 4 cores):
    python3 -m unittest discover -s perfbench/tests -v
"""

import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
RUNS = ROOT / ".bench_build" / "perfbench" / "runs"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path.insert(0, str(ROOT / "perfbench"))
from run import WORKLOADS  # noqa: E402


def run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--toy"],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=600)


class ToyScale(unittest.TestCase):

    def check_result(self, proc: subprocess.CompletedProcess, wanted: list) -> dict:
        self.assertEqual(proc.returncode, 0, proc.stderr[-3000:])
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertEqual(set(res), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(res["correct"])
        self.assertEqual(res["failed"], 0)
        self.assertGreaterEqual(res["attempted"], 1)
        self.assertEqual(set(res["metrics"]), {m["name"] for m in wanted})
        for m in wanted:
            self.assertEqual(res["metrics"][m["name"]]["unit"], m["unit"], m["name"])
        return res

    def test_workloads(self):
        self.assertLessEqual({w["name"] for w in SPEC["workloads"]}, set(WORKLOADS))
        for name in WORKLOADS:
            with self.subTest(workload=name, trace=0):
                proc = run(name, 0)
                res = self.check_result(proc, SPEC["end_to_end"])
                for m in SPEC["end_to_end"]:
                    self.assertGreater(res["metrics"][m["name"]]["value"], 0, m["name"])
                self.assertIn("fail_share = 0 ratio", proc.stdout)
            with self.subTest(workload=name, trace=1):
                proc = run(name, 1)
                res = self.check_result(proc, SPEC["per_layer"])
                metrics = res["metrics"]
                self.assertEqual(metrics["dist.tasks_failed.gen"]["value"], 0)
                self.assertGreater(metrics["compiler.ops_compiled.gen_cold"]["value"], 0)
                if name == "dist-scan":
                    self.assertGreater(metrics["dist.jobs.gen"]["value"], 0)
                else:
                    self.assertEqual(metrics["dist.jobs.gen"]["value"], 0)
                self.check_spans(RUNS / f"{name}-seed3-trace1-toy.spans.jsonl", name)

    def check_spans(self, path: Path, workload: str):
        spans = [json.loads(line) for line in path.read_text().splitlines()]
        by_id = {s["id"]: s for s in spans}
        self.assertEqual(len({s["run_id"] for s in spans}), 1)
        parent_kind = {"run": None, "pass": "run", "algo": "pass", "job": "algo"}
        for s in spans:
            want = parent_kind[s["kind"]]
            got = by_id[s["parent"]]["kind"] if s["parent"] else None
            self.assertEqual(got, want, s)
            self.assertLessEqual(s["start_ms"], s["end_ms"], s)
        self.assertEqual(any(s["kind"] == "job" for s in spans), workload == "dist-scan")
        for s in spans:
            if s["kind"] == "algo":
                self.assertIn("self_ms", s)

    def test_refuses_without_sources(self):
        bare = ROOT / ".bench_build" / "perfbench" / "selftest-bare"
        shutil.rmtree(bare, ignore_errors=True)
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for p in SPEC["paths"]:
            shutil.copytree(ROOT / p, bare / p, ignore=shutil.ignore_patterns("__pycache__"))
        proc = run("dense-scan", 0, cwd=bare)
        shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"metrics"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
