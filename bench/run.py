"""b3rep benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --compare BASE NEW

A run generates the workload's inputs from the seed, measures set-up in
fresh interpreters, then measures the workload in one child process
(closed loop, one client) and checks every op's output.  With --trace 0
the last line of stdout holds the end-to-end metrics, with --trace 1 the
per-layer metrics; the full result, with the environment it ran in, is
written under bench/out/results/.

--compare takes two result files or directories of them and prints, per
workload and metric, both medians and quartiles, the ratio and a verdict
under the bounds in BENCHMARK.json.  It exits 1 when a traced run of one
source tree and seed does not repeat its exact counts, and 2 when the
results come from different environments.

Run from the root of the repository; b3rep is imported from src/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans
import summary
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"

#: fresh interpreters whose median gives setup_s
SETUP_RUNS = 7
#: BLAS and OpenMP threads of the child processes (the machine has 2 cores;
#: one thread avoids the sporadic slow first SVD seen with two)
BLAS_THREADS = "1"
#: a run must end within 180 s
DEADLINE_S = 170.0


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def child_env() -> dict:
    env = dict(os.environ)
    env.update(OPENBLAS_NUM_THREADS=BLAS_THREADS, OMP_NUM_THREADS=BLAS_THREADS,
               MKL_NUM_THREADS=BLAS_THREADS, PYTHONHASHSEED="0")
    return env


def run_child(args, deadline) -> dict:
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before starting a child process")
    try:
        proc = subprocess.run([sys.executable, str(BENCH / "worker.py"), *args],
                              cwd=ROOT, env=child_env(), capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"child {args[0]} exceeded the run's time limit") from exc
    if proc.returncode != 0:
        raise BenchError(f"child {args[0]} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def src_digest() -> str:
    h = hashlib.sha256()
    for f in sorted((ROOT / "src" / "b3rep").rglob("*.py")):
        h.update(f.relative_to(ROOT).as_posix().encode() + b"\0" + f.read_bytes())
    return h.hexdigest()[:16]


def git_commit() -> str | None:
    """HEAD of the repository rooted here, or None outside a git checkout."""
    try:
        proc = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = proc.stdout.split()
    if proc.returncode or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def failure_record(op, failure, seed):
    record = {"op": failure["op"], "argv": op["argv"], "workload_seed": seed,
              "reason": failure["reason"]}
    if "--spec" in op["argv"]:
        spec_path = Path(op["argv"][op["argv"].index("--spec") + 1])
        record["spec"] = json.loads(spec_path.read_text(encoding="utf-8"))
    return record


def run_workload(workload: str, seed: int, seconds: float, trace: int, spec: dict) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    if not (ROOT / "src" / "b3rep" / "__init__.py").is_file():
        raise BenchError(f"no b3rep sources under {ROOT / 'src'}")
    rundir = OUT / f"run-{workload}-s{seed}-t{trace}-{os.getpid()}"
    try:
        ops = workloads.make_ops(workload, seed, rundir)
        ops_file = rundir / "ops.json"
        ops_file.write_text(json.dumps(ops), encoding="utf-8")

        setup_s, setups = [], []

        def measure_setup(count):
            for _ in range(count):
                start = time.perf_counter()
                setups.append(run_child(["setup", str(ops_file)], deadline))
                setup_s.append(time.perf_counter() - start)

        # half of the set-up samples before the workload and half after, so
        # that their median spans the run rather than a few seconds of it
        measure_setup(SETUP_RUNS // 2)
        run = run_child(["measure", str(ops_file), str(seconds), str(trace)], deadline)
        measure_setup(SETUP_RUNS - SETUP_RUNS // 2)

        failures = [failure_record(ops[f["op"]], f, seed) for f in run["failures"]]
        for s in setups:
            if s["failure"] is None and s["digest"] != run["reference_digest"]:
                s["failure"] = "cold stdout differs from the warm output"
            if s["failure"]:
                failures.append(failure_record(ops[0], {"op": 0, "reason": s["failure"]}, seed))
        attempted = run["attempted"] + len(setups)
    finally:
        shutil.rmtree(rundir, ignore_errors=True)

    untraced = [p["seconds"] for p in run["passes"] if not p["traced"]]
    traced = [p["seconds"] for p in run["passes"] if p["traced"]]
    exact_counts, deterministic = {}, True
    if trace:
        layers = run["layers"]
        exact_counts = {k: layers[0][k] for k in spans.EXACT_COUNTS}
        deterministic = all(all(l[k] == exact_counts[k] for k in exact_counts) for l in layers)
        values = {name: statistics.mean(l[name] for l in layers) for name in layers[0]}
        values["cli.import_ms"] = statistics.median(s["import_s"] for s in setups) * 1000
        values["cli.cold_op_ms"] = statistics.median(s["cold_op_s"] for s in setups) * 1000
        values["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
    else:
        lat = run["latencies_s"]
        p90 = summary.percentile(lat, 90)
        values = {
            "setup_s": statistics.median(setup_s),
            "wall_s": statistics.median(untraced),
            "op_p50_ms": summary.percentile(lat, 50) * 1000,
            "op_p90_ms": p90 * 1000,
            "ok_frac": (attempted - len(failures)) / attempted,
            "peak_rss_mb": run["peak_rss_mb"],
        }
    names = spec["per_layer" if trace else "end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in names}
    line = {"correct": not failures and deterministic, "attempted": attempted,
            "failed": len(failures), "metrics": metrics}

    result = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "commit": git_commit(), "src_digest": src_digest(),
        "environment": {
            "nproc": os.cpu_count(), "cpu_model": cpu_model(),
            "python": platform.python_version(), **run["environment"],
        },
        **line,
        "failures": failures,
        "deterministic": deterministic,
        "exact_counts": exact_counts,
        "setup": {"wall_s": setup_s, "import_s": [s["import_s"] for s in setups],
                  "cold_op_s": [s["cold_op_s"] for s in setups]},
        "passes": run["passes"],
        "ops_per_pass": len(ops),
    }
    if not trace:
        result["latency"] = {"ops": len(lat), "beyond_p90": summary.beyond(lat, p90)}
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    (results / f"{workload}-s{seed}-t{trace}-{stamp}-{os.getpid()}.json").write_text(
        json.dumps(result, indent=1) + "\n", encoding="utf-8")
    for f in failures:
        print(f"FAILED op {f['op']} {' '.join(f['argv'])}: {f['reason']}", file=sys.stderr)
    if not deterministic:
        print("FAILED: exact counts differ between traced passes", file=sys.stderr)
    return line


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"))
    args = parser.parse_args(argv)
    if not (args.workload or args.compare):
        parser.error("--workload or --compare is required")
    try:
        if args.compare:
            base, new = (summary.load_results(p) for p in args.compare)
            lines, clean = summary.compare(base, new, spec)
            print("\n".join(lines))
            return 0 if clean else 1
        line = run_workload(args.workload, args.seed, args.seconds, args.trace, spec)
    except (BenchError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
