"""Spans around the public functions of each b3rep module.

``install`` wraps the public functions of the b3rep modules, and
``numpy.linalg.svd`` as the rank step, so that each call opens a span on
a ``Tracer``.  Spans are kept in memory while open; when one closes, its
self time (duration minus the time its child spans cover) and its call
count are folded into per-function totals, so memory stays flat however
many calls a pass makes.

``layer_metrics`` maps those totals onto the per-layer metrics of
``BENCHMARK.json``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time

#: b3rep modules whose public functions are wrapped, in layer order.
MODULES = ("cli", "lattice", "factory", "extoracle", "geometry", "verify")

#: Per-vector predicates of the lattice layer, called from the inner loops
#: of the enumerators at ~1 us a call, so a span apiece would cost more
#: than the call; their time counts as self time of whichever span calls
#: them.
UNWRAPPED = frozenset({
    "lattice.is_simple_gamma", "lattice.is_simple_hex", "lattice.twist_gamma",
    "lattice.orbit_gamma", "lattice.orbit_class", "lattice.euler_gamma",
    "lattice.euler_hex", "lattice.ext_gamma_self", "lattice.ext_gamma_pair",
    "lattice.hex_to_gamma",
})

SVD = "numpy.linalg.svd"


class Tracer:
    """Open spans on a stack; per-function self time and calls, plus
    named counters, accumulated until ``reset``."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stack: list[list] = []  # [name, start, time covered by children]
        self.reset()

    def reset(self) -> None:
        self.self_s: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self.counts: dict[str, int] = {}

    def enter(self, name: str) -> None:
        self.stack.append([name, self.clock(), 0.0])

    def exit(self) -> None:
        name, start, children = self.stack.pop()
        duration = self.clock() - start
        self.self_s[name] = self.self_s.get(name, 0.0) + duration - children
        self.calls[name] = self.calls.get(name, 0) + 1
        if self.stack:
            self.stack[-1][2] += duration

    def count(self, counter: str, value: int = 1) -> None:
        self.counts[counter] = self.counts.get(counter, 0) + value

    def count_error_once(self, counter: str, exc: BaseException) -> None:
        """Count an exception where it is first seen, not again in each
        span it propagates through."""
        if not getattr(exc, "_bench_counted", False):
            exc._bench_counted = True
            self.count(counter)


def _svd_cells(tracer, args, kwargs, result):
    shape = args[0].shape
    m, n = shape[-2], shape[-1]
    batch = 1
    for k in shape[:-2]:
        batch *= k
    tracer.count("extoracle.svd_cells", batch * m * n * min(m, n))


def _jacobian_cells(tracer, args, kwargs, result):
    n = args[0].n
    tracer.count("geometry.jacobian_cells", n * n * 2 * n * n)


#: span name -> hook(tracer, args, kwargs, result) recording work counts
COUNTERS = {
    SVD: _svd_cells,
    "geometry.tangent_dim_numeric": _jacobian_cells,
    "factory.random_simple_gamma":
        lambda t, a, k, r: t.count("factory.simple_attempts", r.attempts),
    "verify.run_suite": lambda t, a, k, r: t.count("verify.checks", r.checks),
}


def _wrap(fn, name, tracer, ambiguity):
    hook = COUNTERS.get(name)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        tracer.enter(name)
        try:
            result = fn(*args, **kwargs)
        except ambiguity as exc:
            tracer.count_error_once("extoracle.ambiguity_raised", exc)
            raise
        finally:
            tracer.exit()
        if hook is not None:
            hook(tracer, args, kwargs, result)
        return result

    return traced


def install(tracer: Tracer):
    """Wrap the public functions of every b3rep module and
    ``numpy.linalg.svd``; return a function that undoes it.

    Modules import each other's functions by name, so every module
    global (and every function held one level down in a dict of tuples,
    such as a dispatch table) that refers to a wrapped function is
    rebound to the wrapper.
    """
    import numpy

    from b3rep.errors import ToleranceAmbiguity

    modules = [importlib.import_module(f"b3rep.{short}") for short in MODULES]
    wrappers = {}
    for short, mod in zip(MODULES, modules):
        for attr, obj in vars(mod).items():
            name = f"{short}.{attr}"
            if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                    and not attr.startswith("_") and name not in UNWRAPPED):
                wrappers[obj] = _wrap(obj, name, tracer, ToleranceAmbiguity)
    svd = numpy.linalg.svd
    wrappers[svd] = _wrap(svd, SVD, tracer, ToleranceAmbiguity)

    def swap(value):
        return wrappers.get(value, value) if inspect.isfunction(value) else value

    undo = [(numpy.linalg, "svd", svd)]
    numpy.linalg.svd = wrappers[svd]
    for mod in [sys.modules["b3rep"], *modules]:
        for attr, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in wrappers:
                undo.append((mod, attr, obj))
                setattr(mod, attr, wrappers[obj])
            elif isinstance(obj, dict):
                for key, value in list(obj.items()):
                    if isinstance(value, tuple) and any(swap(v) is not v for v in value):
                        undo.append((obj, key, value))
                        obj[key] = tuple(swap(v) for v in value)

    def restore():
        for target, key, value in reversed(undo):
            if isinstance(target, dict):
                target[key] = value
            else:
                setattr(target, key, value)

    return restore


# --- per-layer metrics ---------------------------------------------------

#: self time of these spans -> metric (ms per pass)
TIME_EXACT = {
    "geometry.tangent_dim_numeric": "geometry.tangent_ms",
    "factory.word_span_dim": "factory.burnside_ms",
    "factory.burnside_simple": "factory.burnside_ms",
    "factory.random_simple_gamma": "factory.simple_ms",
    "factory.assemble": "factory.assemble_ms",
    "factory.scale_rep": "factory.assemble_ms",
    "extoracle.commutant_matrix": "extoracle.build_ms",
    "extoracle.cocycle_matrix": "extoracle.build_ms",
    "extoracle.boundary_dim_numeric": "extoracle.build_ms",
    SVD: "extoracle.svd_ms",
    "verify.verify_ext": "verify.ext_ms",
    "verify.verify_tangent": "verify.tangent_ms",
    "verify.verify_lemma": "verify.lemma_ms",
    "verify.verify_gln": "verify.gln_ms",
    "verify.verify_symmetry": "verify.symmetry_ms",
}

#: every other span of a module -> metric
TIME_BY_MODULE = {
    "cli": "cli.self_ms",
    "lattice": "lattice.enum_ms",
    "geometry": "geometry.analyze_ms",
    "factory": "factory.other_ms",
    "extoracle": "extoracle.other_ms",
    "verify": "verify.other_ms",
}

#: calls of these spans -> metric (per pass)
CALLS = {
    "lattice.enumerate_simple_gamma": "lattice.enum_calls",
    "lattice.simple_orbit_classes": "lattice.enum_calls",
    "lattice.enumerate_hex": "lattice.enum_calls",
    "geometry.analyze": "geometry.analyze_calls",
    "geometry.tangent_dim_numeric": "geometry.tangent_calls",
    "factory.word_span_dim": "factory.burnside_calls",
    "extoracle.commutant_matrix": "extoracle.build_calls",
    "extoracle.cocycle_matrix": "extoracle.build_calls",
    "extoracle.boundary_dim_numeric": "extoracle.build_calls",
    SVD: "extoracle.svd_calls",
}

COUNT_METRICS = (
    "geometry.jacobian_cells", "extoracle.svd_cells", "factory.simple_attempts",
    "verify.checks", "extoracle.ambiguity_raised",
)

#: counts that must repeat exactly between passes and between runs of
#: one commit and seed
EXACT_COUNTS = ("extoracle.svd_cells", "geometry.jacobian_cells",
                "factory.burnside_calls", "factory.simple_attempts", "verify.checks")

TIME_METRICS = tuple(dict.fromkeys([*TIME_BY_MODULE.values(), *TIME_EXACT.values()]))
CALL_METRICS = tuple(dict.fromkeys(CALLS.values()))


def time_metric(span: str) -> str:
    return TIME_EXACT.get(span) or TIME_BY_MODULE[span.split(".", 1)[0]]


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer totals of one pass: self times in ms, call counts and
    work counts, and the Burnside yield (instances per attempt)."""
    out = {name: 0.0 for name in TIME_METRICS}
    out.update({name: 0 for name in (*CALL_METRICS, *COUNT_METRICS)})
    for span, seconds in tracer.self_s.items():
        out[time_metric(span)] += seconds * 1000.0
    for span, calls in tracer.calls.items():
        if span in CALLS:
            out[CALLS[span]] += calls
    out.update(tracer.counts)
    attempts = out["factory.simple_attempts"]
    instances = tracer.calls.get("factory.random_simple_gamma", 0)
    out["factory.simple_yield"] = instances / attempts if attempts else 0.0
    return out
