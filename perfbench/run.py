#!/usr/bin/env python3
"""End-to-end benchmark of BTrimDB.

Builds perfbench/btrim_bench from source, runs one workload and prints, as
the last line of standard output, one JSON object:

    {"correct": ..., "attempted": N, "failed": N, "metrics": {name: {value, unit}}}

With --trace 0 the metrics are the end_to_end metrics of BENCHMARK.json, with
--trace 1 its per_layer metrics. Earlier lines carry the hardware
fingerprint, every metric with its sample count or ratio base, and the
correctness checks. A failed check prints "correct": false and exits 1.

    python3 perfbench/run.py --workload tpcc_hot --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --all [--seconds 10] [--seed 1]
    python3 perfbench/run.py --workload htap --out a.json   (save a result)
    python3 perfbench/run.py --compare a.json b.json        (flag mismatched hardware)

Run from the repository root. The build goes to $CARGO_TARGET_DIR (default
.bench_build); per-run data directories and span dumps go to .bench_run/.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import uuid
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 170


def load_spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def build():
    build_dir = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not build_dir.is_absolute():
        build_dir = Path.cwd() / build_dir
    tree = build_dir / "perfbench"
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    for cmd in (
        ["cmake", "-S", str(HERE), "-B", str(tree), "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", str(tree), "-j", jobs, "--target", "btrim_bench"],
    ):
        subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, check=True)
    return tree / "btrim_bench"


def run_workload(binary, workload, seed, seconds, trace):
    """Runs one workload; returns (fingerprint, result dict) or raises."""
    scratch = ROOT / ".bench_run" / f"{workload}-{os.getpid()}-{uuid.uuid4().hex[:8]}"
    scratch.mkdir(parents=True)
    traces = ROOT / ".bench_run" / "traces"
    traces.mkdir(parents=True, exist_ok=True)
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--data-dir", str(scratch),
           "--trace-out", str(traces / f"{workload}.spans.jsonl")]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise RuntimeError(f"{workload}: timed out; data kept in {scratch}")
    fingerprint, result = None, None
    for line in out.splitlines():
        if line.startswith("RESULT "):
            result = json.loads(line[len("RESULT "):])
        else:
            print(line)
            if line.startswith("fingerprint "):
                fingerprint = json.loads(line[len("fingerprint "):])
    if result is None or fingerprint is None:
        raise RuntimeError(f"{workload}: exit {proc.returncode}, no result; "
                           f"data kept in {scratch}")
    if proc.returncode == 0 and result["correct"]:
        shutil.rmtree(scratch, ignore_errors=True)
    else:
        print(f"run failed (exit {proc.returncode}); data kept in {scratch}",
              file=sys.stderr)
    return fingerprint, result


def select(spec, result, trace):
    names = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
    missing = [n for n in names if n not in result["metrics"]]
    if missing:
        raise RuntimeError(f"metrics missing from the run: {missing}")
    return {
        "correct": bool(result["correct"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {n: {"value": result["metrics"][n]["value"],
                        "unit": result["metrics"][n]["unit"]} for n in names},
    }


def compare(path_a, path_b):
    """Prints end-to-end changes from A to B; exits 3 on mismatched hardware."""
    a, b = (json.load(open(p)) for p in (path_a, path_b))
    fa, fb = a["fingerprint"], b["fingerprint"]
    flagged = [k for k in ("hw_threads", "compiler", "build_type", "workload")
               if fa.get(k) != fb.get(k)]
    spec = load_spec()
    for m in spec["end_to_end"]:
        va = a["result"]["metrics"][m["name"]]["value"]
        vb = b["result"]["metrics"][m["name"]]["value"]
        change = (vb - va) / va if va else float("nan")
        worse = change > 0 if m["better"] == "lower" else change < 0
        verdict = "worse beyond bound" if worse and abs(change) > m["bound"] else "ok"
        print(f"{m['name']:<16} {va:>14.6g} -> {vb:<14.6g} {m['unit']:<4} "
              f"{change:+.2%}  {verdict}")
    for k in flagged:
        print(f"FLAG: {k} differs: {fa.get(k)} vs {fb.get(k)}; "
              "the runs are not comparable")
    return 3 if flagged else 0


def run_all(binary, spec, seed, seconds):
    """Every workload untraced then traced; a table of end-to-end metrics."""
    ok = True
    rows = []
    for w in spec["workloads"]:
        name = w["name"]
        _, plain = run_workload(binary, name, seed, seconds, 0)
        _, traced = run_workload(binary, name, seed, seconds, 1)
        ok = ok and plain["correct"] and traced["correct"]
        rows.append((name, plain, traced))
    print()
    for name, plain, traced in rows:
        print(f"== {name}: correct={plain['correct'] and traced['correct']} "
              f"attempted={plain['attempted']} failed={plain['failed']}")
        for m in spec["end_to_end"]:
            got = plain["metrics"][m["name"]]
            print(f"  {m['name']:<16} {got['value']:>14.6g} {got['unit']:<4} "
                  f"{got['note']}")
        over = traced["metrics"]["bench.trace_overhead_ratio"]
        print(f"  tracing overhead on throughput_tps: {over['value']:+.2%} "
              f"({over['note']})")
    return 0 if ok else 1


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--all", action="store_true")
    p.add_argument("--out")
    p.add_argument("--compare", nargs=2, metavar=("A", "B"))
    args = p.parse_args()

    if args.compare:
        return compare(*args.compare)
    spec = load_spec()
    seconds = args.seconds or spec["run_seconds"]
    names = [w["name"] for w in spec["workloads"]]
    if not args.all and args.workload not in names:
        p.error(f"--workload must be one of {names}")
    binary = build()
    if args.all:
        return run_all(binary, spec, args.seed, seconds)
    fingerprint, result = run_workload(binary, args.workload, args.seed,
                                       seconds, args.trace)
    if args.out:
        with open(args.out, "w") as f:
            json.dump({"fingerprint": fingerprint, "result": result}, f, indent=1)
    final = select(spec, result, args.trace)
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (RuntimeError, OSError, subprocess.CalledProcessError,
            json.JSONDecodeError, KeyError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        sys.exit(1)
