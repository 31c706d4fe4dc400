"""Child process of the benchmark: runs ops in-process through
``b3rep.cli.main`` with stdout and stderr captured.

    python3 bench/worker.py setup OPS_FILE
        import b3rep, run the first op cold, report both times
    python3 bench/worker.py measure OPS_FILE SECONDS TRACE
        one warm-up pass, then timed passes over the ops for about
        SECONDS; with TRACE 1 every other pass runs with spans installed

Prints one JSON object on stdout.  ``run.py`` starts this script with the
BLAS thread count pinned in its environment.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path

import checks

ROOT = Path(__file__).resolve().parent.parent
MIN_PASSES = 3


def import_cli():
    """Import b3rep from the checkout's src/ and time it."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    start = time.perf_counter()
    import b3rep.cli
    import_s = time.perf_counter() - start
    if not Path(b3rep.cli.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"b3rep was imported from {b3rep.cli.__file__}, not from {src}")
    return b3rep.cli, import_s


def call(cli, argv):
    """One op: (exit code or None on an exception, stdout, stderr, seconds)."""
    out, err = io.StringIO(), io.StringIO()
    rc = None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
    except Exception:  # an escaping exception is a failed op, not a crashed run
        err.write(traceback.format_exc())
    seconds = time.perf_counter() - start
    return rc, out.getvalue(), err.getvalue(), seconds


def judge(op, rc, out, err) -> str | None:
    reason = ("exception" if rc is None
              else checks.check_output(op["check"], rc, out))
    if reason and err.strip():
        reason += f" (stderr: {err.strip().splitlines()[-1]})"
    return reason


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def environment() -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {v: os.environ.get(v)
                         for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
    }


def setup(ops):
    cli, import_s = import_cli()
    rc, out, err, seconds = call(cli, ops[0]["argv"])
    return {
        "import_s": import_s,
        "cold_op_s": seconds,
        "digest": digest(out),
        "failure": judge(ops[0], rc, out, err),
    }


def measure(ops, seconds, trace):
    import statistics

    import spans

    cli, _ = import_cli()

    tracer = spans.Tracer()
    reference: dict[int, str] = {}
    failures = []
    attempted = 0

    def run_pass():
        """Latencies of one pass over the ops; the checks run outside them."""
        nonlocal attempted
        latencies = []
        for i, op in enumerate(ops):
            rc, out, err, op_s = call(cli, op["argv"])
            attempted += 1
            latencies.append(op_s)
            reason = judge(op, rc, out, err)
            out_digest = digest(out)
            if reason is None and reference.setdefault(i, out_digest) != out_digest:
                reason = "stdout differs from the first output of this op"
            if reason:
                failures.append({"op": i, "reason": reason})
        return latencies

    run_pass()  # warm-up, also records each op's reference output
    passes, latencies, layers = [], [], []
    start = time.perf_counter()
    while True:
        traced = bool(trace) and len(passes) % 2 == 1
        tracer.reset()
        restore = spans.install(tracer) if traced else None
        try:
            pass_latencies = run_pass()
        finally:
            if restore:
                restore()
        # a pass's time is that of its ops, without the checks between them
        passes.append({"seconds": sum(pass_latencies), "traced": traced,
                       "latencies_s": pass_latencies})
        if traced:
            layers.append(spans.layer_metrics(tracer))
        else:
            latencies += pass_latencies
        elapsed = time.perf_counter() - start
        typical = statistics.median(p["seconds"] for p in passes)
        if len(passes) >= MIN_PASSES and elapsed + typical > seconds:
            break
    return {
        "passes": passes,
        "latencies_s": latencies,
        "layers": layers,
        "attempted": attempted,
        "failures": failures,
        "reference_digest": reference.get(0),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "environment": environment(),
    }


def main(argv):
    mode, ops_file = argv[0], argv[1]
    ops = json.loads(Path(ops_file).read_text(encoding="utf-8"))
    if mode == "setup":
        result = setup(ops)
    else:
        result = measure(ops, float(argv[2]), int(argv[3]))
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main(sys.argv[1:])
