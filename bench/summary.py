"""Percentiles, quartiles and the comparison of two sets of result files."""

from __future__ import annotations

import json
import math
import statistics
from pathlib import Path

#: Result-file fields that must be equal for two runs to be compared.
ENVIRONMENT_KEYS = ("nproc", "cpu_model", "python", "numpy", "blas", "blas_threads")


def percentile(values, q: float) -> float:
    """Nearest-rank percentile: the smallest value with at least q % of
    the values at or below it."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no values")
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def beyond(values, threshold: float) -> int:
    """Number of values strictly above threshold."""
    return sum(1 for v in values if v > threshold)


def quartiles(values) -> tuple[float, float, float]:
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them."""
    values = list(values)
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def relative_spread(values) -> float:
    """Interquartile distance as a share of the median."""
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else (0.0 if q3 == q1 else math.inf)


def verdict(base, new, bound: float, better: str) -> str:
    """better / worse / unchanged / unresolved for one metric.

    worse: the new median is worse than the base median by more than
    ``bound`` (a share of the base median).  better: the new side wins
    at least nine tenths of all (base, new) pairs, ties counting for
    neither, and the medians differ by more than the base's own
    interquartile distance.  When either side spreads wider than the
    bound, the result is unresolved unless every new value is better,
    or every one worse, than every base value.
    """
    sign = 1.0 if better == "lower" else -1.0
    base_med, new_med = statistics.median(base), statistics.median(new)
    pairs = [(b, n) for b in base for n in new]
    wins = sum(1 for b, n in pairs if sign * (n - b) < 0)
    losses = sum(1 for b, n in pairs if sign * (n - b) > 0)
    if max(relative_spread(base), relative_spread(new)) > bound:
        if wins == len(pairs):
            return "better"
        if losses == len(pairs):
            return "worse"
        return "unresolved"
    scale = abs(base_med) if base_med else 1.0
    worse_by = sign * (new_med - base_med) / scale
    if worse_by > bound:
        return "worse"
    q1, _, q3 = quartiles(base)
    if wins >= 0.9 * len(pairs) and abs(new_med - base_med) > q3 - q1:
        return "better"
    return "unchanged"


# --- comparing result files ---------------------------------------------

def load_results(path) -> list[dict]:
    """One result file, or every result file in a directory."""
    path = Path(path)
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    return [json.loads(f.read_text(encoding="utf-8")) for f in files]


def environment_of(result: dict) -> dict:
    return {k: result["environment"].get(k) for k in ENVIRONMENT_KEYS}


def _fmt(v: float) -> str:
    return f"{v:.6g}"


def compare(base: list[dict], new: list[dict], spec: dict) -> tuple[list[str], bool]:
    """Rows comparing two sets of runs, and whether the comparison is
    clean (same environment, exact counts repeat).  Raises ValueError
    when the runs come from different environments."""
    envs = {json.dumps(environment_of(r), sort_keys=True) for r in base + new}
    if len(envs) > 1:
        raise ValueError("results come from different environments:\n  "
                         + "\n  ".join(sorted(envs)))
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    layer_names = [m["name"] for m in spec["per_layer"]]
    lines = [f"{'workload':16} {'metric':26} {'base':>11} {'new':>11} {'ratio':>7}  "
             f"{'base q1..q3':>23} {'new q1..q3':>23}  verdict"]
    clean = True
    workloads = sorted({r["workload"] for r in base} & {r["workload"] for r in new})
    for wl in workloads:
        for trace, names in ((0, list(bounds)), (1, layer_names)):
            b_runs = [r for r in base if r["workload"] == wl and r["trace"] == trace]
            n_runs = [r for r in new if r["workload"] == wl and r["trace"] == trace]
            if not (b_runs and n_runs):
                continue
            for name in names:
                if any(name not in r["metrics"] for r in b_runs + n_runs):
                    continue  # a metric one side's benchmark did not report
                b = [r["metrics"][name]["value"] for r in b_runs]
                n = [r["metrics"][name]["value"] for r in n_runs]
                bq, nq = quartiles(b), quartiles(n)
                ratio = f"{nq[1] / bq[1]:.3f}" if bq[1] else "-"
                if trace == 0:
                    m = bounds[name]
                    mark = verdict(b, n, m["bound"], m["better"])
                else:
                    mark = "(no bound)"
                lines.append(
                    f"{wl:16} {name:26} {_fmt(bq[1]):>11} {_fmt(nq[1]):>11} {ratio:>7}  "
                    f"{_fmt(bq[0]) + '..' + _fmt(bq[2]):>23} "
                    f"{_fmt(nq[0]) + '..' + _fmt(nq[2]):>23}  {mark}")
    for b in base:
        for n in new:
            if not same_run(b, n):
                continue
            diff = {k: (b["exact_counts"][k], n["exact_counts"][k])
                    for k in b["exact_counts"] if b["exact_counts"][k] != n["exact_counts"].get(k)}
            label = f"{b['workload']} seed {b['seed']}"
            if diff:
                clean = False
                lines.append(f"determinism: {label}: exact counts differ {diff}")
            else:
                lines.append(f"determinism: {label}: exact counts repeat")
    return lines, clean


def same_run(a: dict, b: dict) -> bool:
    """Two traced runs of one source tree, workload and seed."""
    return (a["trace"] == b["trace"] == 1 and a["workload"] == b["workload"]
            and a["seed"] == b["seed"] and a["src_digest"] == b["src_digest"])
