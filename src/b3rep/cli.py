"""Batch front end.

Subcommands
-----------
simples     list simple dimension vectors of a given total dimension
components  list component signatures and dimensions in a given total dimension
analyze     smoothness report for a semisimple spec file (JSON)
verify      run one of the property suites: ext | tangent | lemma | gln | symmetry

Exit codes: 0 success (analyze: smooth point), 1 singular point,
2 invalid input, 3 formula/oracle mismatch, an assembled pair that
fails its relation, a verification still inconclusive after its last
attempt, or suite failure.  Output is
deterministic: the same command, flags and seed produce byte-identical
bytes.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .errors import B3RepError, InvalidSpec
from .extoracle import ABS_FLOOR, DEFAULT_TOL, ToleranceConfig
from .factory import SemisimpleSpec, derived_seed
from .geometry import analyze, enumerate_component_signatures
from .lattice import enumerate_simple_gamma, ext_gamma_self, orbit_class, simple_orbit_classes
from .verify import _VERIFY_BUDGET, SUITE_NAMES, _check_point, _measure_points, run_suite

# --tol is the rank threshold of the measurements and nothing else: scalar
# grouping and the relation and commutation checks read the fixed
# DEFAULT_TOL.  It lies in (ABS_FLOOR, 0.1]: above 0.1 every nonzero
# system's largest singular value is within a factor 10 of its own rank
# threshold, so each of its rank decisions would be ambiguous, redrawn and
# failed.
_TOL_CAP = 0.1
# n = 20 takes about 1 s; the count of signatures grows fast beyond it.
_COMPONENT_CAP = 20
# analyze holds and prints one factor per copy of a simple: 10^4 copies
# take about 0.3 s and 52 MB, 10^5 about 2 s and 220 MB.
_COPIES_CAP = 10_000
# The local quiver, the report and its JSON hold an arrow for every
# ordered pair of distinct entries, so time and memory grow with the
# square of their count: 1000 entries take about 1.1 s and 99 MB of RSS
# above import, 2000 about 4.3 s and 388 MB.
_ENTRIES_CAP = 1_000
EXIT_OK = 0
EXIT_SINGULAR = 1
EXIT_INPUT = 2
EXIT_MISMATCH = 3


def _emit(payload: dict, fmt: str, table_lines) -> None:
    try:
        if fmt == "json":
            sys.stdout.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        else:
            for line in table_lines:
                sys.stdout.write(line + "\n")
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed early (``| head``): what is left goes to devnull,
        # so the flush at exit cannot fail, and the command keeps its exit code
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def _fail(message: str, code: int = EXIT_INPUT) -> int:
    sys.stderr.write(f"error: {message}\n")
    return code


def cmd_simples(args) -> int:
    if args.n < 1:
        return _fail(f"--n must be >= 1, got {args.n}")
    simples = [(v, orbit_class(v), ext_gamma_self(v)) for v in enumerate_simple_gamma(args.n)]
    classes = simple_orbit_classes(args.n)
    payload = {
        "n": args.n,
        "simples": [{"alpha": v.to_json(), "orbit_class": c.to_json(), "self_ext": e}
                    for v, c, e in simples],
        "orbit_classes": [c.to_json() for c in classes],
    }
    lines = [f"simple dimension vectors with n = {args.n}: {len(simples)}"]
    lines += [f"  {v}  orbit {c}  self-ext {e}" for v, c, e in simples]
    lines.append(f"orbit classes: {len(classes)}")
    lines += [f"  {c}" for c in classes]
    _emit(payload, args.format, lines)
    return EXIT_OK


def cmd_components(args) -> int:
    if args.n < 1:
        return _fail(f"--n must be >= 1, got {args.n}")
    if args.n > _COMPONENT_CAP and not args.force:
        return _fail(
            f"component enumeration above n = {_COMPONENT_CAP} grows quickly; "
            "pass --force to run anyway"
        )
    signatures = enumerate_component_signatures(args.n)
    payload = {
        "n": args.n,
        "components": [
            {"signature": s.to_json(), "dim": s.dimension()} for s in signatures
        ],
    }
    lines = [f"components of the variety in dimension n = {args.n}: {len(signatures)}"]
    lines += [f"  dim {s.dimension():4d}  {s}" for s in signatures]
    _emit(payload, args.format, lines)
    return EXIT_OK


def cmd_analyze(args) -> int:
    try:
        with open(args.spec, encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        return _fail(f"cannot read {args.spec}: {exc}")
    except json.JSONDecodeError as exc:
        return _fail(f"malformed JSON in {args.spec}: {exc}")
    try:
        spec = SemisimpleSpec.from_json(data)
        copies = sum(e.mult for e in spec.entries)
        if copies > _COPIES_CAP and not args.force:
            raise InvalidSpec(f"spec has {copies} copies of simples; above "
                              f"{_COPIES_CAP} it needs --force")
        if spec.k > _ENTRIES_CAP and not args.force:
            raise InvalidSpec(f"spec has {spec.k} distinct entries; above "
                              f"{_ENTRIES_CAP} it needs --force")
        if args.verify:
            _check_point(spec, "--verify on this spec", "it needs --force", args.force)
        report = analyze(spec)
    except (B3RepError, ValueError) as exc:
        return _fail(str(exc))

    payload = report.to_json()
    verification = None
    if args.verify:
        # the first assembly uses --seed itself, retries derived seeds
        def point_seed(_, attempt):
            return derived_seed("analyze-rep", args.seed, attempt) if attempt else args.seed

        (attempt, (measured, valid), (reason, _)), = _measure_points([spec], point_seed, args.tol)
        if reason:
            # the spec and --tol are valid: a failed check, as in the suites
            return _fail(f"numeric verification inconclusive: {reason}", EXIT_MISMATCH)
        seed = point_seed(0, attempt)
        if not valid:
            return _fail(f"assembled pair (seed {seed}) is singular or fails "
                         f"A^2 = B^3: {valid.residuals}", EXIT_MISMATCH)
        verification = {
            "seed": seed,
            "tangent_dim_numeric": measured,
            "matches_formula": measured == report.tangent_dim,
            "matches_smooth_criterion":
                (measured == report.component_dim) == report.smooth,
        }
        payload["verification"] = verification

    lines = [
        f"n = {report.n}",
        f"signature      {report.signature}",
        f"component dim  {report.component_dim}",
        f"tangent dim    {report.tangent_dim}",
        f"verdict        {'smooth' if report.smooth else 'singular'}",
    ]
    for f in report.failed_conditions:
        if f["kind"] == "cross_ext":
            lines.append(
                f"  failed: entries {tuple(f['entries'])} have ext = {f['ext']}"
            )
        else:
            lines.append(
                f"  failed: entry {f['entry']} has dim {f['dim']}, mult {f['mult']}"
            )
    for w in report.witnesses:
        lines.append(f"  witness component {w}  dim {w.dimension()}")
    for note in report.notes:
        lines.append(f"  note: {note}")
    if verification is not None:
        lines.append(
            f"numeric tangent dim {verification['tangent_dim_numeric']} "
            f"(formula match: {verification['matches_formula']})"
        )
    _emit(payload, args.format, lines)

    if verification is not None and not (
        verification["matches_formula"] and verification["matches_smooth_criterion"]
    ):
        return _fail("formula/oracle mismatch", EXIT_MISMATCH)
    return EXIT_OK if report.smooth else EXIT_SINGULAR


def cmd_verify(args) -> int:
    try:
        result = run_suite(args.suite, n=args.n, trials=args.trials,
                           seed=args.seed, tol=args.tol)
    except (B3RepError, ValueError) as exc:
        return _fail(str(exc))
    payload = result.to_json()
    lines = [
        f"suite {result.name}: {result.checks - result.failed}/{result.checks} "
        f"checks passed, worst residual {result.worst_residual:.3e}"
    ]
    lines += [f"  FAIL: {msg}" for msg in result.failures]
    _emit(payload, args.format, lines)
    return EXIT_OK if result.ok else EXIT_MISMATCH


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="b3rep",
        description="Smoothness of semisimple points of the matrix variety A^2 = B^3",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p):
        p.add_argument("--format", choices=("json", "table"), default="json")

    p_simples = sub.add_parser("simples", help="list simple dimension vectors")
    p_simples.add_argument("--n", type=int, required=True)
    add_format(p_simples)
    p_simples.set_defaults(func=cmd_simples)

    p_comp = sub.add_parser("components", help="list component signatures")
    p_comp.add_argument("--n", type=int, required=True)
    p_comp.add_argument("--force", action="store_true",
                        help=f"allow n above the default cap of {_COMPONENT_CAP}")
    add_format(p_comp)
    p_comp.set_defaults(func=cmd_components)

    p_an = sub.add_parser("analyze", help="smoothness report for a spec file")
    p_an.add_argument("--spec", required=True, help="path to a spec JSON file")
    p_an.add_argument("--verify", action="store_true",
                      help="assemble matrices and check the tangent dimension")
    p_an.add_argument("--force", action="store_true",
                      help=f"allow more than {_COPIES_CAP} copies of simples or "
                           f"{_ENTRIES_CAP} distinct entries, and "
                           f"--verify above {_VERIFY_BUDGET / 1e6:.0f} MB of "
                           "estimated memory")
    p_an.add_argument("--seed", type=int, default=0)
    p_an.add_argument("--tol", type=float, default=DEFAULT_TOL.rel_tol)
    add_format(p_an)
    p_an.set_defaults(func=cmd_analyze)

    p_ver = sub.add_parser("verify", help="run a property suite")
    p_ver.add_argument("suite", choices=SUITE_NAMES)
    p_ver.add_argument("--n", type=int, default=None,
                       help="suite size (max dimension / max total)")
    p_ver.add_argument("--trials", type=int, default=None)
    p_ver.add_argument("--seed", type=int, default=0)
    p_ver.add_argument("--tol", type=float, default=DEFAULT_TOL.rel_tol)
    add_format(p_ver)
    p_ver.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors, which matches the input-error code
        return int(exc.code) if exc.code else EXIT_OK
    if getattr(args, "trials", None) is not None and args.trials < 1:
        return _fail("--trials must be >= 1")
    if hasattr(args, "tol"):
        if not ABS_FLOOR < args.tol <= _TOL_CAP:
            return _fail(f"--tol must be in ({ABS_FLOOR}, {_TOL_CAP}]")
        args.tol = ToleranceConfig(args.tol)
    return args.func(args)


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
