"""Tests of the benchmark's own helpers.

    python3 -m pytest -q bench
"""

import json
import statistics
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import spans  # noqa: E402
import summary  # noqa: E402
import workloads  # noqa: E402


# --- percentiles and quartiles -----------------------------------------

def test_percentile_nearest_rank():
    values = list(range(1, 101))
    assert summary.percentile(values, 50) == 50
    assert summary.percentile(values, 90) == 90
    assert summary.percentile(values, 100) == 100
    assert summary.percentile([7.0], 90) == 7.0
    assert summary.percentile([3, 1, 2], 50) == 2
    assert summary.beyond(values, summary.percentile(values, 90)) == 10


def test_percentile_of_nothing_raises():
    with pytest.raises(ValueError):
        summary.percentile([], 50)


def test_quartiles_match_statistics():
    values = [5.0, 1.0, 4.0, 2.0, 3.0, 9.0]
    q1, med, q3 = summary.quartiles(values)
    assert (q1, med, q3) == tuple(statistics.quantiles(values, n=4))
    assert summary.relative_spread(values) == pytest.approx((q3 - q1) / med)
    assert summary.quartiles([2.5]) == (2.5, 2.5, 2.5)


# --- self time ------------------------------------------------------------

class FakeClock:
    def __init__(self, *ticks):
        self.ticks = list(ticks)

    def __call__(self):
        return self.ticks.pop(0)


def test_self_time_is_span_minus_children():
    # outer [0, 10] holds inner [2, 5] and inner [6, 7]; inner [2, 5] holds leaf [3, 4]
    tracer = spans.Tracer(FakeClock(0, 2, 3, 4, 5, 6, 7, 10))
    tracer.enter("outer")
    tracer.enter("inner")
    tracer.enter("leaf")
    tracer.exit()
    tracer.exit()
    tracer.enter("inner")
    tracer.exit()
    tracer.exit()
    assert tracer.self_s == {"leaf": 1, "inner": 2 + 1, "outer": 10 - 3 - 1}
    assert tracer.calls == {"leaf": 1, "inner": 2, "outer": 1}
    assert sum(tracer.self_s.values()) == 10


def test_layer_metrics_group_spans_and_counts():
    tracer = spans.Tracer()
    tracer.self_s = {"cli.main": 0.002, "geometry.tangent_dim_numeric": 0.003,
                     spans.SVD: 0.005, "geometry.analyze": 0.001,
                     "geometry.component_dim": 0.001,
                     "factory.word_span_dim": 0.004, "factory.burnside_simple": 0.001,
                     "factory.random_simple_gamma": 0.0005}
    tracer.calls = {spans.SVD: 2, "geometry.tangent_dim_numeric": 1,
                    "factory.random_simple_gamma": 3, "factory.word_span_dim": 4}
    tracer.counts = {"factory.simple_attempts": 4, "extoracle.svd_cells": 99}
    m = spans.layer_metrics(tracer)
    assert m["cli.self_ms"] == pytest.approx(2)
    assert m["geometry.tangent_ms"] == pytest.approx(3)
    assert m["geometry.analyze_ms"] == pytest.approx(2)
    assert m["extoracle.svd_ms"] == pytest.approx(5)
    assert m["factory.burnside_ms"] == pytest.approx(5)
    assert m["extoracle.svd_calls"] == 2 and m["extoracle.svd_cells"] == 99
    assert m["factory.burnside_calls"] == 4
    assert m["factory.simple_yield"] == pytest.approx(3 / 4)
    assert m["extoracle.build_ms"] == 0 and m["verify.checks"] == 0


def test_ambiguity_counted_once_per_exception():
    class Ambiguity(Exception):
        pass

    tracer = spans.Tracer()

    def raise_ambiguity():
        raise Ambiguity("near the threshold")

    inner = spans._wrap(raise_ambiguity, "extoracle.rank", tracer, Ambiguity)
    outer = spans._wrap(lambda: inner(), "verify.verify_tangent", tracer, Ambiguity)
    for _ in range(2):  # a retry loop: each attempt raises a new exception
        with pytest.raises(Ambiguity):
            outer()
    assert tracer.counts == {"extoracle.ambiguity_raised": 2}
    assert tracer.calls == {"extoracle.rank": 2, "verify.verify_tangent": 2}


def test_install_wraps_and_restores():
    import numpy as np

    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    import b3rep
    from b3rep import factory, geometry, verify

    before = (np.linalg.svd, geometry.tangent_dim_numeric, verify._SUITES["ext"][0])
    tracer = spans.Tracer()
    restore = spans.install(tracer)
    try:
        V = factory.assemble(factory.SemisimpleSpec.from_json({"entries": [
            {"alpha": [1, 0, 1, 0, 0], "lambda": {"r": "1", "q": "0"}, "mult": 2}]}))
        b3rep.tangent_dim_numeric(V)
        assert np.linalg.svd is not before[0]
        assert verify._SUITES["ext"][0] is not before[2]
    finally:
        restore()
    assert (np.linalg.svd, geometry.tangent_dim_numeric, verify._SUITES["ext"][0]) == before
    m = spans.layer_metrics(tracer)
    assert m["geometry.tangent_calls"] == 1
    assert m["geometry.jacobian_cells"] == 2 * 2 ** 4
    assert m["extoracle.svd_cells"] == 4 * 8 * 4  # one 4 x 8 Jacobian
    assert m["factory.simple_attempts"] >= 1


# --- compare verdicts ---------------------------------------------------

def test_verdict_worse_beyond_bound():
    base = [1.00, 1.01, 0.99, 1.00, 1.02]
    assert summary.verdict(base, [1.20, 1.21, 1.19, 1.22, 1.20], 0.1, "lower") == "worse"
    assert summary.verdict(base, [0.80, 0.79, 0.81, 0.80, 0.78], 0.1, "higher") == "worse"


def test_verdict_better_needs_nine_tenths_of_pairs():
    base = [1.00, 1.01, 0.99, 1.00, 1.02]
    assert summary.verdict(base, [0.90, 0.91, 0.89, 0.90, 0.92], 0.1, "lower") == "better"
    # one new run no better than the base: 5 of 25 pairs lost
    assert summary.verdict(base, [0.90, 0.91, 0.89, 0.90, 1.03], 0.1, "lower") == "unchanged"


def test_verdict_unchanged_within_bound():
    base = [1.00, 1.01, 0.99, 1.00, 1.02]
    assert summary.verdict(base, [1.03, 1.02, 1.04, 1.00, 1.01], 0.1, "lower") == "unchanged"


def test_verdict_unresolved_when_spread_exceeds_bound():
    base = [1.0, 1.5, 0.7, 1.2, 0.9]
    new = [1.1, 1.4, 0.8, 1.3, 0.8]
    assert summary.verdict(base, new, 0.1, "lower") == "unresolved"
    # every new run below every base run still reads better
    assert summary.verdict(base, [0.3, 0.5, 0.2, 0.4, 0.6], 0.1, "lower") == "better"


def _result(workload, value, env=None, **extra):
    return {"workload": workload, "trace": 0, "seed": 1, "src_digest": "x",
            "environment": env or {k: "same" for k in summary.ENVIRONMENT_KEYS},
            "metrics": {"wall_s": {"value": value, "unit": "s"}}, **extra}


SPEC = {"end_to_end": [{"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.1}],
        "per_layer": []}


def test_compare_rows_and_environment_refusal():
    base = [_result("suites", v) for v in (1.0, 1.01, 0.99)]
    new = [_result("suites", v) for v in (1.3, 1.31, 1.29)]
    lines, clean = summary.compare(base, new, SPEC)
    assert clean and len(lines) == 2
    assert lines[1].split()[:2] == ["suites", "wall_s"] and lines[1].endswith("worse")
    other = dict(base[0]["environment"], blas_threads="2")
    with pytest.raises(ValueError, match="different environments"):
        summary.compare(base, [_result("suites", 1.0, env=other)], SPEC)


def test_compare_checks_exact_counts_of_same_run():
    traced = dict(trace=1, metrics={})
    a = _result("suites", 1.0, **traced, exact_counts={"verify.checks": 3060})
    b = _result("suites", 1.0, **traced, exact_counts={"verify.checks": 3060})
    c = _result("suites", 1.0, **traced, exact_counts={"verify.checks": 3059})
    assert summary.compare([a], [b], SPEC)[1]
    lines, clean = summary.compare([a], [c], SPEC)
    assert not clean and "differ" in lines[-1]


# --- workload inputs ----------------------------------------------------

def test_simple_types_match_known_counts():
    assert len(workloads.simples(1)) == 6
    assert len(workloads.simples(2)) == 3
    assert len(workloads.simples(3)) == 2
    assert workloads.self_ext((2, 2, 2, 1, 1)) == 3


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_inputs_depend_only_on_seed(name, tmp_path):
    first = workloads.make_ops(name, 7, tmp_path / "a")
    again = workloads.make_ops(name, 7, tmp_path / "b")
    other = workloads.make_ops(name, 8, tmp_path / "c")

    def specs(ops, root):
        return [(Path(a).read_text() if a.startswith(str(root)) else a)
                for op in ops for a in op["argv"]]

    assert specs(first, tmp_path / "a") == specs(again, tmp_path / "b")
    assert specs(first, tmp_path / "a") != specs(other, tmp_path / "c")


def test_checks_catch_wrong_output():
    suite = {"kind": "suite", "checks": 6}
    assert checks.check_output(suite, 0, '{"checks": 6, "failed": 0}') is None
    assert "expected 6" in checks.check_output(suite, 0, '{"checks": 5, "failed": 0}')
    assert checks.check_output(suite, 3, '{"checks": 6, "failed": 1}')
    assert "not a JSON object" in checks.check_output(suite, 2, "")
    assert "not a JSON object" in checks.check_output(suite, 0, "[6]")
    point = {"kind": "analyze", "n": 2, "component_dim": 4}
    report = {"n": 2, "component_dim": 4, "tangent_dim": 6, "smooth": False,
              "verification": {"matches_formula": True, "matches_smooth_criterion": True}}
    assert checks.check_output(point, 1, json.dumps(report)) is None
    assert "exit 0" in checks.check_output(point, 0, json.dumps(report))
    report["verification"]["matches_formula"] = False
    assert "disagrees" in checks.check_output(point, 1, json.dumps(report))
