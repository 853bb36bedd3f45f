"""Run one benchmark workload and print its metrics.

Usage:
    python3 perfbench/run.py --workload dense-scan --seed 1 --seconds 20 --trace 0

Builds the program and the harness from source (see build.py), runs the
workload in a fresh JVM, checks every pass against Base, prints a readable
summary and, as the last line, one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. With ``--trace 0`` the metrics
are the end-to-end ones of BENCHMARK.json; with ``--trace 1`` the per-layer
ones, and the spans are written next to the result file. Results, spans
and JVM logs go to ``.bench_build/perfbench/runs``.

``--toy`` shrinks every input and runs one warm-up and one timed round;
the self-test in perfbench/tests uses it.
"""

import argparse
import json
import math
import os
import signal
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import build  # noqa: E402

ROOT = build.ROOT
RUNS = build.BUILD_DIR / "runs"
WORKLOADS = ["dense-scan", "sparse-minibatch", "dist-scan"]
JVM_TIMEOUT_S = 150

# Module access Spark needs on JDK 17 (as spark-submit passes it).
JVM_OPENS = [f"--add-opens=java.base/{p}=ALL-UNNAMED" for p in [
    "java.lang", "java.lang.invoke", "java.lang.reflect", "java.io", "java.net", "java.nio",
    "java.util", "java.util.concurrent", "java.util.concurrent.atomic", "jdk.internal.ref",
    "sun.nio.ch", "sun.nio.cs", "sun.security.action", "sun.util.calendar"]]
JVM_FLAGS = ["-Xms2g", "-Xmx2g", "-XX:+UseParallelGC", "-XX:+AlwaysPreTouch", "-XX:+UseTransparentHugePages",
             "-Xss8m",
             "-Djdk.reflect.useDirectMethodHandle=false", "-Dio.netty.tryReflectionSetAccessible=true",
             "-Dspark.driver.host=127.0.0.1", "-Dspark.ui.enabled=false"]


def fail(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    return proc.stdout.strip() or "unknown"


def run_jvm(classes: Path, args: argparse.Namespace, tag: str) -> dict:
    jars = build.spark_jars()
    out = RUNS / f"{tag}.json"
    tmp = build.BUILD_DIR / "tmp"
    for d in (RUNS, tmp):
        d.mkdir(parents=True, exist_ok=True)
    out.unlink(missing_ok=True)
    cmd = ["java", *JVM_FLAGS, *JVM_OPENS,
           f"-Djava.io.tmpdir={tmp}", f"-Dspark.local.dir={tmp}",
           f"-Dspark.sql.warehouse.dir={tmp / 'warehouse'}",
           "-cp", f"{classes}{os.pathsep}{jars / '*'}", "repro.perfbench.PerfBench",
           "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--toy", "1" if args.toy else "0",
           "--out", str(out), "--trace-out", str(RUNS / f"{tag}.spans.jsonl"),
           "--git-sha", git_sha()]
    log = RUNS / f"{tag}.log"
    with open(log, "w") as logf:
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=logf, stderr=subprocess.STDOUT,
                                start_new_session=True)
        try:
            code = proc.wait(timeout=JVM_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            fail(f"JVM did not finish within {JVM_TIMEOUT_S} s; log: {log}")
    if code != 0 or not out.exists():
        tail = log.read_text(errors="replace").splitlines()[-30:]
        fail(f"JVM exited with {code}; last log lines:\n" + "\n".join(tail))
    return json.loads(out.read_text())


def summary(res: dict, spec: dict) -> None:
    env = res["env"]
    print(f"workload {res['workload']}  seed {res['seed']}  trace {int(res['trace'])}  run {res['run_id']}")
    print(f"env: nproc={env['nproc']} max_heap_mb={env['max_heap_mb']:.0f} jvm={env['jvm']} "
          f"gc={env['gc']} spark={env['spark']} git_sha={env['git_sha']}")
    print("calls per pass: " + ", ".join(env["calls"]))
    for i in env["inputs"]:
        print(f"input {i['name']}: {i['rows']}x{i['cols']} {i['format']} nnz={i['nnz']} "
              f"computed_bytes={i['computed_bytes']} (computed from shape and nnz, not measured)")
    s = res["setup"]
    print(f"setup: spark_start_s={s['spark_start_s']:.3f} inputs_s={[round(x, 3) for x in s['inputs_s']]} "
          f"warmup_s={s['warmup_s']:.3f} ({s['warmup_rounds']} rounds) -> setup_s={s['setup_s']:.3f}")
    timed = [p for p in res["passes"] if p["round"] >= 0 and not p["traced"]]
    counts = {lab: sum(1 for p in timed if p["label"] == lab) for lab in ["base", "fused", "gen", "gen_fa", "gen_fnr"]}
    print(f"timed rounds: {res['timed_rounds']} in {res['timed_loop_s']:.1f} s; untraced samples per mode: {counts}")
    e2e = res["end_to_end"]
    for m in spec["end_to_end"] + [{"name": "fail_share"}]:
        v = e2e[m["name"]]
        print(f"  {m['name']} = {v['value']:.6g} {v['unit']}")
    print(f"  passes attempted={res['attempted']} failed={res['failed']}")
    for p in res["passes"]:
        if p["failed"]:
            print(f"  FAILED pass {p['label']} round {p['round']}: losses={p['losses']} error={p['error']}")
    if res["trace"]:
        layers = res["per_layer"]
        for name in sorted(layers):
            print(f"  {name} = {layers[name]['value']:.6g} {layers[name]['unit']}")
        gen_wall = e2e["gen_s"]["value"] * 1e3
        acct = layers["runtime.exec_ms.gen"]["value"] + layers["compiler.codegen_ms.gen"]["value"] \
            + layers["dist.job_ms.gen"]["value"]
        print(f"accounting: exec_ms.gen + codegen_ms.gen + job_ms.gen = {acct:.1f} ms vs untraced gen pass "
              f"{gen_wall:.1f} ms ({(acct - gen_wall) / gen_wall:+.2%})")


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--toy", action="store_true")
    args = ap.parse_args()

    spec_file = ROOT / "BENCHMARK.json"
    if not spec_file.exists():
        fail(f"{spec_file} not found")
    spec = json.loads(spec_file.read_text())
    try:
        classes = build.build()
    except build.BuildError as e:
        fail(f"build failed: {e}")

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}" + ("-toy" if args.toy else "")
    res = run_jvm(classes, args, tag)
    summary(res, spec)

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    have = res["per_layer"] if args.trace else res["end_to_end"]
    metrics = {}
    for m in wanted:
        v = have.get(m["name"])
        if v is None or v["unit"] != m["unit"] or not math.isfinite(v["value"]):
            fail(f"metric {m['name']} missing, non-finite or not in {m['unit']}: {v}")
        metrics[m["name"]] = {"value": v["value"], "unit": v["unit"]}
    print(json.dumps({"correct": res["failed"] == 0, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))


if __name__ == "__main__":
    main()
