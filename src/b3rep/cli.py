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

from .errors import B3RepError, InvalidSpec, ToleranceAmbiguity
from .extoracle import ABS_FLOOR, DEFAULT_TOL, ToleranceConfig
from .factory import SemisimpleSpec, derived_seed
from .geometry import analyze, enumerate_component_signatures
from .lattice import enumerate_simple_gamma, ext_gamma_self, orbit_class, simple_orbit_classes
from .verify import SUITE_NAMES, assemble_and_measure, run_suite

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
# Memory of analyze --verify in bytes: 32 bytes per cell (d_V d_W)^2 of
# every ordered pair of summands whose scalars have equal lambda^6, 64 n^2
# for the dense assembled pair (32 n^2) and what validate_rep holds beside
# it, and 128 bytes per ordered pair of distinct entries (second
# paragraph).  A pair of summands
# at equal c is ranked on a reduced K x N system with K, N <= d_V d_W
# (about d_V^2 d_W^2 / 6 cells for balanced types), held with its copies
# while it is built and ranked; a pair at distinct c builds none.  Summed
# over a group of equal c that is (sum d^2)^2, and for one summand
# 32 d^4 + 64 n^2.  Fresh processes, tracemalloc peak / peak RSS above
# the 34 MB of the imported package: one balanced simple at d = 24 / 28 /
# 32, 2.9 / 4.5 / 6.8 MB and 8 / 10 / 13 MB (about 5 MB of it a fixed cost
# that a d = 4 run pays too) against an estimate of 10.7 / 19.7 / 33.6 MB;
# two of d = 24 at lambda = 1 and e^(2 pi i/7), 4.8 and 10 MB against
# 21.4 MB; at 1 and zeta6, 8.4 and 14 MB against 42.6 MB.
#
# The local quiver holds an arrow for every ordered pair of entries, and
# the report and its JSON text hold them again: about 110 bytes a pair,
# counted as 128.  assemble builds the pair once, read-only, and RepPair
# adopts it without a copy.  validate_rep forms A^2 and B^3 a block of
# rows at a time, so beside the pair it holds no more than the copy of A
# or B its singular values need.  Tracemalloc peaks in-process after a
# first run, against the estimate: 40 summands (2,1;1,1,1) at distinct
# moduli, n = 120, 0.95 MB against 1.22 MB; 100 of them, n = 300, 4.8 MB
# against 7.3 MB; the 40 at angles k/6 (one group of equal lambda^6),
# 2.6 MB against 5.3 MB (in the tangent oracle); 100 and 300
# one-dimensional summands at distinct moduli, 1.7 MB against 1.9 MB and
# 12.9 MB against 17.3 MB (in the JSON output); 724 copies of one
# character, 25.4 MB against 33.5 MB (in validate_rep: the 16.8 MB pair
# and 8.5 MB beside it; assemble peaks at 16.8 MB).
#
# Without --force it may use what one summand of dimension 32 needs.
_VERIFY_BUDGET = 32 * 32 ** 4 + 64 * 32 ** 2

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


def _check_verifiable(spec: SemisimpleSpec, force: bool) -> None:
    """Raise InvalidSpec when ``analyze --verify`` should not assemble the
    spec: a scalar whose |lambda|^6, the scale of A^2 = B^3, is not a
    normal float, or, without --force, a memory estimate above the budget."""
    if not all(sys.float_info.min <= e.lam.r ** 6 <= sys.float_info.max
               for e in spec.entries):
        raise InvalidSpec(
            "--verify takes scalar moduli whose sixth power is a normal float "
            f"only, in [{sys.float_info.min:.3g}, {sys.float_info.max:.3g}]"
        )
    need = _verify_bytes(spec)
    if need > _VERIFY_BUDGET and not force:
        raise InvalidSpec(
            f"--verify on this spec needs about {need / 1e6:.0f} MB by the memory "
            f"estimate; above {_VERIFY_BUDGET / 1e6:.0f} MB it needs --force"
        )


def _verify_bytes(spec: SemisimpleSpec) -> int:
    """The memory estimate of ``analyze --verify`` on the spec (see
    ``_VERIFY_BUDGET``): (sum d^2)^2 cells over each of the spec's
    ``lambda6_classes``, and 128 bytes for each ordered pair of distinct
    entries."""
    cells = sum(sum(spec.entries[i].dim ** 2 for i in cls) ** 2 for cls in spec.lambda6_classes)
    return 32 * cells + 64 * spec.n ** 2 + 128 * spec.k * (spec.k - 1)


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
            _check_verifiable(spec, args.force)
        report = analyze(spec)
    except (B3RepError, ValueError) as exc:
        return _fail(str(exc))

    payload = report.to_json()
    verification = None
    if args.verify:
        try:
            # the first assembly uses --seed itself, retries derived seeds
            seed, valid, measured = assemble_and_measure(
                spec,
                lambda k: derived_seed("analyze-rep", args.seed, k) if k else args.seed, args.tol)
        except ToleranceAmbiguity as exc:
            # the spec and --tol are valid: a failed check, as in the suites
            return _fail(f"numeric verification inconclusive: {exc}", EXIT_MISMATCH)
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
