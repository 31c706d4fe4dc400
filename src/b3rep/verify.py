"""Randomized and exhaustive property suites.

Each suite pits a combinatorial formula against its numerical oracle (or
an exhaustive desk-scale enumeration) and reports pass/fail counts with
the worst observed residual.  A failure here never means an unlucky
draw: the formulas are exact integers, so any mismatch is a bug or a
wrong reading of the underlying identities.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .constants import B3, GAMMA
from .errors import ToleranceAmbiguity
from .extoracle import (
    DEFAULT_TOL,
    ToleranceConfig,
    _coboundary_defects,
    _ext_dims,
    _hom_dims,
)
from .factory import (
    SemisimpleSpec,
    SpecEntry,
    _assemble,
    _draw_simples,
    _unitaries,
    derived_seed,
    entries_isomorphic,
    scale_rep,
    validate_rep,
)
from .geometry import (
    _frobenius,
    _gln_embed,
    _gln_retract,
    analyze,
    ext_b3_spec,
    tangent_dims_numeric,
)
from .lattice import (
    EULER_MATRIX_HEX,
    HexDimVector,
    enumerate_hex,
    enumerate_simple_gamma,
    euler_gamma,
    euler_hex,
    ext_gamma_pair,
    ext_gamma_self,
    hex_to_gamma,
    is_simple_hex,
)
from .scalars import ExactScalar

#: Scalars used when sampling rescalings: the identity, two sixth roots
#: of unity, and two values outside the unit circle / off the rational
#: angles, so all three extension regimes occur.
LAMBDA_POOL = (
    ExactScalar.one(),
    ExactScalar.zeta6(1),
    ExactScalar.zeta6(2),
    ExactScalar.from_rational(2),
    ExactScalar(Fraction(3, 2), Fraction(1, 7)),
)

@dataclass
class SuiteResult:
    """Outcome of one verification suite."""

    name: str
    checks: int = 0
    failed: int = 0
    worst_residual: float = 0.0
    failures: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.failed == 0

    def record(self, ok: bool, residual: float = 0.0, message: str = "") -> None:
        self.checks += 1
        self.worst_residual = max(self.worst_residual, abs(residual))
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(message)

    def to_json(self) -> dict:
        return {
            "suite": self.name,
            "checks": self.checks,
            "failed": self.failed,
            "ok": self.ok,
            "worst_residual": self.worst_residual,
            "failures": list(self.failures),
        }


#: Bytes of system ``_measure`` ranks in one stacked call, counted as the
#: 16 (2 n_V n_W)^2 bytes of a quotient cocycle system, the largest one it
#: builds.  Every group of the default and CI sizes fits in one call; at
#: ``verify ext --n 10`` the (10, 10) group alone holds 3.3 GB of them.
#: ``_assemble_and_measure`` counts a point as the 32 n^4 bytes of its
#: full n^2 x 2n^2 tangent system.
_MEASURE_CHUNK_BYTES = 2 ** 26


def _measure(systems, tol: ToleranceConfig) -> tuple[list[int], list[bool]]:
    """Values of (oracle, V, W, kind) systems, in order, and whether a rank
    decision behind each is ambiguous; the oracle is ext, coboundary or
    hom.
    One stacked call per oracle, kind and pair of dimensions, split into
    calls of at most ``_MEASURE_CHUNK_BYTES``.  Each call stacks its pairs
    once (``_ext_dims`` ranks its cocycle and commutant systems on the
    same unit-scaled stacks) and reports every system's ambiguity flag
    instead of raising, so the caller redraws only what is ambiguous."""
    oracles = {"ext": _ext_dims, "coboundary": _coboundary_defects, "hom": _hom_dims}
    groups: dict[tuple, list[int]] = {}
    for idx, (oracle, V, W, kind) in enumerate(systems):
        groups.setdefault((oracle, kind, V.n, W.n), []).append(idx)
    values, ambiguous = [0] * len(systems), [False] * len(systems)
    for (oracle, kind, n_v, n_w), idxs in groups.items():
        step = max(1, _MEASURE_CHUNK_BYTES // (16 * (2 * n_v * n_w) ** 2))
        for start in range(0, len(idxs), step):
            chunk = idxs[start:start + step]
            got, flags = oracles[oracle]([systems[i][1:3] for i in chunk], kind, tol)
            for i, value, flag in zip(chunk, got.tolist(), flags.tolist()):
                values[i], ambiguous[i] = value, flag
    return values, ambiguous


#: Attempts at a measurement before it is given up: draws of the suites,
#: and assemblies of ``assemble_and_measure``.  A check still ambiguous,
#: or a pair still isomorphic, after the last attempt is a failed check.
REMEASURE_ATTEMPTS = 3


def _pair(alpha, beta, trial) -> list:
    """The draw of two independent instances of types alpha and beta; the
    labels end with 0, which keeps the seeds of earlier releases."""
    return [(alpha, ("pair-a", alpha, beta, trial, 0)), (beta, ("pair-b", alpha, beta, trial, 0))]


def _equal(slot: int, item: str, expected: int, head: str = "", tail: str = ""):
    """The check that system ``slot`` of a draw measures ``expected``; its
    message reads "<item>: <head><value> != <tail><expected>"."""
    return (slot,), item, lambda got: (got == expected, got - expected,
                                       f"{item}: {head}{got} != {tail}{expected}")


def _braid_ext(lam, mu, both: bool = False):
    """The systems of a braid draw: ext of its first instance scaled by
    lam against its last scaled by mu, and then the reverse when ``both``."""
    def systems(*reps):
        v, w = scale_rep(reps[0], lam), scale_rep(reps[-1], mu)
        return [("ext", v, w, B3), ("ext", w, v, B3)] if both else [("ext", v, w, B3)]
    return systems


def _run_draws(result: SuiteResult, plan, seed: int, tol: ToleranceConfig) -> None:
    """Measure the draws of a plan and record their checks, in plan order.

    A draw is (instances, systems, checks): (type, label) instances, each
    drawn from ``derived_seed("verify", label, seed)``, all of an attempt
    in one ``_draw_simples``; ``systems(*reps)``, its systems in the form
    ``_measure`` takes; and checks (slots, item, judge), each recording
    ``judge(*values of its slots)``, an (ok, residual, message) triple.
    Two instances of one type of dimension >= 2 must be non-isomorphic:
    their Hom is one more system, and a nonzero Hom leaves every system of
    the draw unclear, as an ambiguous rank decision leaves its own.  (A
    zero Hom near the threshold stands: on a quotient pair ``_ext_dims``
    flags the same commutant.)  A draw with an unclear system is drawn
    again, under labels that end with the attempt, for
    ``REMEASURE_ATTEMPTS`` attempts in all, unless its instances are all
    one-dimensional: such a type has one pair, so a redraw would bring the
    ambiguity back.  A check with a slot still unclear fails with
    "persistent tolerance ambiguity for <item>"."""
    linked = {k for k, (((alpha, _), *rest), _, _) in enumerate(plan)
              if rest and rest[0][0] == alpha and alpha.n > 1}
    values, unclear = [None] * len(plan), [None] * len(plan)
    todo = range(len(plan))
    for attempt in range(REMEASURE_ATTEMPTS):
        requests = [(alpha, (*label, attempt) if attempt else label)
                    for k in todo for alpha, label in plan[k][0]]
        drawn = iter(_draw_simples([alpha for alpha, _ in requests],
                                   [derived_seed("verify", label, seed) for _, label in requests]))
        owned, systems = [], []
        for k in todo:
            reps = [next(drawn).rep for _ in plan[k][0]]
            listed = plan[k][1](*reps)
            owned.append((k, len(systems), len(systems) + len(listed)))
            systems += listed
            if k in linked:
                systems.append(("hom", reps[0], reps[1], GAMMA))
        got, flags = _measure(systems, tol)
        for k, start, end in owned:
            values[k], unclear[k] = got[start:end], flags[start:end]
            # a linked draw's Hom follows its systems
            if k in linked and got[end] != 0:
                unclear[k] = [True] * (end - start)
        todo = [k for k in todo
                if any(unclear[k]) and any(alpha.n > 1 for alpha, _ in plan[k][0])]
        if not todo:
            break
    for (_, _, checks), got, flags in zip(plan, values, unclear):
        for slots, item, judge in checks:
            if any(map(flags.__getitem__, slots)):
                result.record(False, 0, f"persistent tolerance ambiguity for {item}")
            else:
                result.record(*judge(*map(got.__getitem__, slots)))


def assemble_and_measure(spec: SemisimpleSpec, seed_of, tol: ToleranceConfig = DEFAULT_TOL):
    """(seed, ``validate_rep(rep, B3)``, measured value) of the first clean
    assembly of the spec at ``seed_of(k)``, k the attempt: the stack of one
    of ``_assemble_and_measure``.  Raises ToleranceAmbiguity with the
    reason of the last attempt when no attempt was clean."""
    (seed, valid, measured, reason), = _assemble_and_measure(
        [spec], lambda _, attempt: seed_of(attempt), tol)
    if reason:
        raise ToleranceAmbiguity(reason)
    return seed, valid, measured


def _assemble_and_measure(specs, seed_of, tol: ToleranceConfig) -> list[tuple]:
    """(seed, validation, measured value, reason) of each spec, assembled
    at ``seed_of(i, k)`` on attempt k, for ``REMEASURE_ATTEMPTS`` attempts
    while its value is ambiguous (reason not ''); a clean pair is
    validated.  Each attempt assembles and measures a chunk of specs in
    one call each; a chunk holds at most ``_MEASURE_CHUNK_BYTES`` of full
    n^2 x 2n^2 systems (32 n^4 bytes) at the largest n."""
    step = max(1, _MEASURE_CHUNK_BYTES // max([32 * spec.n ** 4 for spec in specs], default=1))
    out = [None] * len(specs)
    for start in range(0, len(specs), step):
        todo = range(start, min(start + step, len(specs)))
        for attempt in range(REMEASURE_ATTEMPTS):
            seeds = [seed_of(i, attempt) for i in todo]
            reps = _assemble([specs[i] for i in todo], seeds)
            for i, seed, rep, value, reason in zip(todo, seeds, reps,
                                                   *tangent_dims_numeric(reps, tol)):
                out[i] = (seed, None if reason else validate_rep(rep, B3), value, reason)
            todo = [i for i in todo if out[i][3]]
            if not todo:
                break
    return out


def verify_ext(max_dim: int = 3, trials: int = 20, seed: int = 0,
               tol: ToleranceConfig = DEFAULT_TOL) -> SuiteResult:
    """Oracle vs. formula for extension dimensions.

    Quotient case: for every simple type up to max_dim, the measured
    self-extension dimension of an instance against itself matches the
    self formula, and for every ordered pair of types the measured value
    on independent instances matches the pair formula (equal
    one-dimensional types are necessarily the same module and fall back
    to the self value).  Braid case: sampled rescalings from the pool
    cover the three regimes against the spec-entry formula, including
    the +1 on the diagonal and the incommensurable-scalar zero.  Also
    asserts, for every quotient pair, that each coboundary is a cocycle
    (``coboundary_defects_numeric`` is 0), the premise of
    dim Ext = dim Z - dim B.

    The suite is a plan of draws, each with its systems and checks, in
    recording order: self instances, quotient pairs (an ext and a
    coboundary check each), braid pairs, braid self instances.
    ``_run_draws`` draws and measures them in stacks and redraws what is
    unclear.  Formulas and failure texts are made once per type, pair of
    types or spec entry, not per check.
    """
    result = SuiteResult("ext")
    simples = [v for n in range(1, max_dim + 1) for v in enumerate_simple_gamma(n)]
    pair_trials = max(1, trials // 4)
    b3_types = [v for n in range(1, min(max_dim, 2) + 1)
                for v in enumerate_simple_gamma(n)]
    self_ext = {alpha: ext_gamma_self(alpha) for alpha in simples}

    def self_systems(v):
        return [("ext", v, v, GAMMA)]

    def pair_systems(s, t):
        return [("ext", s, t, GAMMA), ("coboundary", s, t, GAMMA)]

    plan = []
    for alpha in simples:
        check = _equal(0, f"self {alpha}", self_ext[alpha], "oracle ", "formula ")
        plan += [([(alpha, ("self", alpha, trial))], self_systems, [check])
                 for trial in range(trials)]
    for alpha in simples:
        for beta in simples:
            # equal one-dimensional types: the two instances are the same module
            expected = 0 if alpha == beta and alpha.n == 1 else ext_gamma_pair(alpha, beta)
            checks = [_equal(0, f"pair {alpha},{beta}", expected, "oracle "),
                      _equal(1, f"coboundaries {alpha},{beta}", 0, "cocycle defect rank ")]
            plan += [(_pair(alpha, beta, trial), pair_systems, checks)
                     for trial in range(pair_trials)]
    # one spec entry per type and scalar on each side of the braid checks
    left, right = ({(alpha, lam): SpecEntry(alpha, lam, 1, side)
                    for alpha in b3_types for lam in LAMBDA_POOL} for side in "LR")
    scaled = {(alpha, lam): f"{alpha}*{lam}" for alpha, lam in left}
    for ai, alpha in enumerate(b3_types):
        for bi, beta in enumerate(b3_types):
            for li, lam in enumerate(LAMBDA_POOL):
                mu = LAMBDA_POOL[(li + ai + bi) % len(LAMBDA_POOL)]
                e1, e2 = left[alpha, lam], right[beta, mu]
                expected = (self_ext[alpha] + 1 if entries_isomorphic(e1, e2)
                            else ext_b3_spec(e1, e2))
                item = f"braid {scaled[alpha, lam]} vs {scaled[beta, mu]}"
                plan.append((_pair(alpha, beta, 1000 + li), _braid_ext(lam, mu),
                             [_equal(0, item, expected)]))
    for alpha in b3_types:
        for lam in LAMBDA_POOL:
            plan.append(([(alpha, ("b3self", alpha, str(lam)))], _braid_ext(lam, lam),
                         [_equal(0, f"braid self {scaled[alpha, lam]}", self_ext[alpha] + 1)]))
    _run_draws(result, plan, seed, tol)
    return result


def verify_symmetry(max_dim: int = 3, trials: int = 6, seed: int = 0,
                    tol: ToleranceConfig = DEFAULT_TOL) -> SuiteResult:
    """Measured braid-case extension dimensions are symmetric:
    ext(V, W) = ext(W, V) on sampled pairs of rescaled simples.

    The suite is a plan of one draw per trial: a pair, both directions as
    its systems, and one check on the two, run by ``_run_draws`` as the
    draws of ``verify_ext`` are."""
    result = SuiteResult("symmetry")
    simples = [v for n in range(1, max_dim + 1) for v in enumerate_simple_gamma(n)]

    def draw(trial):
        rng = np.random.default_rng(derived_seed("symmetry", seed, trial))
        alpha, beta = (simples[rng.integers(len(simples))] for _ in range(2))
        lam, mu = (LAMBDA_POOL[rng.integers(len(LAMBDA_POOL))] for _ in range(2))
        name = f"ext({alpha}*{lam},{beta}*{mu})"
        return (_pair(alpha, beta, trial), _braid_ext(lam, mu, both=True),
                [((0, 1), name, lambda forward, backward: (
                    forward == backward, forward - backward,
                    f"{name} = {forward} but reverse = {backward}"))])

    _run_draws(result, [draw(trial) for trial in range(trials)], seed, tol)
    return result


def verify_lemma(max_total: int = 8) -> SuiteResult:
    """Exhaustive desk-scale checks on the hexagon lattice.

    For every vector with total at most max_total: the two Euler forms
    agree through the multiplicity map, the hexagon form is symmetric,
    and among vectors passing the simplicity criterion the quadratic
    form equals 1 exactly on the coordinate vectors and is <= 0
    everywhere else.  The Euler matrix and the multiplicity map are the
    library's own: ``EULER_MATRIX_HEX`` and ``hex_to_gamma`` on the six
    coordinate vectors.

    Both forms are bilinear and the vectors of total <= max_total
    (>= 1) include the six coordinate vectors, so each identity holds on
    every pair exactly when it holds on the 6x6 Gram matrices of that
    basis; the suite checks it there, in O(N) time and memory over the
    N vectors.
    """
    result = SuiteResult("lemma")
    vectors = [h for total in range(max_total + 1) for h in enumerate_hex(total)]
    hmat = np.array([h.as_tuple() for h in vectors], dtype=np.int64)
    euler = np.array(EULER_MATRIX_HEX, dtype=np.int64)
    result.record(bool(np.array_equal(euler, euler.T)), 0,
                  "hexagon Euler matrix is not symmetric")
    # multiplicity map to (a, b; x, y, z) and the bipartite form
    to_gamma = np.array([hex_to_gamma(HexDimVector.basis(i)).as_tuple()
                         for i in range(6)], dtype=np.int64)
    gram_gamma = to_gamma @ to_gamma.T - 1
    result.record(bool(np.array_equal(euler, gram_gamma)),
                  float(np.max(np.abs(euler - gram_gamma))),
                  "hexagon and bipartite Euler forms disagree")
    # spot-check the scalar API against the matrix form
    for i in (0, 1, len(vectors) // 2, len(vectors) - 1):
        h1, h2 = vectors[i], vectors[-1 - i]
        result.record(euler_hex(h1, h2) == int(hmat[i] @ euler @ hmat[-1 - i]),
                      0, f"euler_hex mismatch at {h1},{h2}")
        result.record(
            euler_gamma(hex_to_gamma(h1), hex_to_gamma(h2)) == euler_hex(h1, h2),
            0, f"form identity fails at {h1},{h2}")
    # simplicity criterion vs. the quadratic form
    diag = np.einsum("ij,jk,ik->i", hmat, euler, hmat)
    for idx, h in enumerate(vectors):
        if not is_simple_hex(h):
            continue
        chi = int(diag[idx])
        if h.total == 1:
            result.record(chi == 1, chi - 1, f"coordinate vector {h} has chi {chi}")
        else:
            result.record(chi <= 0, max(0, chi), f"simple {h} has chi {chi} > 0")
    return result


def verify_gln(max_n: int = 4, trials: int = 50, seed: int = 0) -> SuiteResult:
    """Round trips of the commuting-component isomorphism with the
    invertible matrices: G -> (G^3, G^2) -> G and back, plus the
    relation and commutation residuals of the embedding.

    Each size n is one stack: the trials draw their matrices from their
    own seeds, and then the unitaries, the embedding, the retraction and
    the second embedding each run once on the stack of all trials
    (``_gln_embed`` and ``_gln_retract``, behind ``gln_embed`` and
    ``gln_retract``)."""
    result = SuiteResult("gln")
    for n in range(2, max_n + 1):
        gauss, moduli = [], []
        for trial in range(trials):
            rng = np.random.default_rng(derived_seed("gln", seed, n, trial))
            # the real and imaginary Gaussians of two unitaries, then the moduli
            gauss += [rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
                      for _ in range(2)]
            moduli.append(0.8 + 0.45 * rng.random(n))
        u, w = _unitaries(np.array(gauss)).reshape(trials, 2, n, n).swapaxes(0, 1)
        # controlled conditioning: unitary * diag(moduli in [0.8, 1.25]) * unitary
        g = u @ (np.eye(n) * np.array(moduli, dtype=complex)[:, None, :]) @ w
        A, B = _gln_embed(g)
        rel = _frobenius(A @ A - B @ B @ B)
        comm = _frobenius(A @ B - B @ A)
        size = _frobenius(A)
        back = _gln_retract(A, B)
        err = _frobenius(back - g)
        again_a, again_b = _gln_embed(back)
        err2 = _frobenius(again_a - A) + _frobenius(again_b - B)
        for r, c, s, e, e2 in zip(*(x.tolist() for x in (rel, comm, size, err, err2))):
            bound = 1e-12 * max(1.0, s ** 2)
            result.record(r <= bound, r, f"embed relation residual {r:.2e} at n={n}")
            result.record(c <= bound, c, f"embed commutation residual {c:.2e} at n={n}")
            result.record(e <= 1e-10, e, f"retract(embed(G)) error {e:.2e}")
            result.record(e2 <= 1e-10, e2, f"embed(retract(V)) error {e2:.2e}")
    return result


def random_spec(n: int, seed: int = 0) -> SemisimpleSpec:
    """Deterministic random semisimple spec of total dimension n:
    random simple types, scalars from ``LAMBDA_POOL``, occasional higher
    multiplicities and occasional reuse of an instance id with a
    different scalar."""
    rng = np.random.default_rng(derived_seed("spec", seed, n))
    entries: list[SpecEntry] = []
    remaining = n
    fresh = 0
    while remaining > 0:
        dim = int(rng.integers(1, remaining + 1))
        if rng.random() < 0.5:
            dim = 1 if remaining < 2 else int(rng.integers(1, min(remaining, 3) + 1))
        mult = 1
        if remaining // dim >= 2 and rng.random() < 0.35:
            mult = int(rng.integers(2, remaining // dim + 1))
        simples = enumerate_simple_gamma(dim)
        alpha = simples[rng.integers(len(simples))]
        lam = LAMBDA_POOL[rng.integers(len(LAMBDA_POOL))]
        if entries and rng.random() < 0.15:
            donor = entries[rng.integers(len(entries))]
            if donor.alpha.n == dim and donor.lam != lam:
                candidate = SpecEntry(donor.alpha, lam, mult, donor.instance_id)
                if not any(entries_isomorphic(candidate, e) for e in entries):
                    entries.append(candidate)
                    remaining -= dim * mult
                    continue
        candidate = SpecEntry(alpha, lam, mult, f"s{fresh}")
        fresh += 1
        for idx, existing in enumerate(entries):
            if entries_isomorphic(candidate, existing):
                entries[idx] = SpecEntry(existing.alpha, existing.lam,
                                         existing.mult + mult, existing.instance_id)
                break
        else:
            entries.append(candidate)
        remaining -= dim * mult
    return SemisimpleSpec(tuple(entries))


def verify_tangent(max_n: int = 6, trials: int = 50, seed: int = 0,
                   tol: ToleranceConfig = DEFAULT_TOL) -> SuiteResult:
    """Tangent dimensions on random specs: the measured value always
    equals the formula, the assembled pair is relation-valid, and the
    smooth verdict coincides with tangent = component dimension.  All
    trials are measured in one ``_assemble_and_measure``.  A trial whose
    assemblies all stay ambiguous fails its three measured checks, as in
    ``_run_draws``; its formula-only defect check still counts."""
    result = SuiteResult("tangent")
    specs = []
    for trial in range(trials):
        rng = np.random.default_rng(derived_seed("tangent-size", seed, trial))
        n = int(rng.integers(1, max_n + 1))
        specs.append(random_spec(n, derived_seed("tangent", seed, trial)))
    reports = [analyze(spec) for spec in specs]
    measured = _assemble_and_measure(
        specs, lambda trial, bump: derived_seed("tangent-rep", seed, trial, bump), tol)
    for spec, report, (_, valid, value, reason) in zip(specs, reports, measured):
        formula, comp, verdict = report.tangent_dim, report.component_dim, report.smooth
        text = spec.to_json()
        if reason:
            checks = [(False, 0, f"persistent tolerance ambiguity for {text}")] * 3
        else:
            checks = [(bool(valid), valid.residuals.get("relation_A2_B3", 0.0),
                       f"assembled pair invalid for {text}"),
                      (value == formula, value - formula,
                       f"tangent mismatch {value} != {formula} for {text}"),
                      (verdict == (value == comp), 0,
                       f"smooth verdict {verdict} but tangent {value}, "
                       f"component {comp} for {text}")]
        for check in checks:
            result.record(*check)
        slack = formula - comp
        result.record(slack >= 0 and (slack == 0) == verdict, 0,
                      f"tangent defect {slack} inconsistent with verdict")
    return result


#: Suite name -> (function, name of its size parameter, smallest size that
#: records a check).  The defaults are those of the function signatures.
_SUITES = {
    "ext": (verify_ext, "max_dim", 1),
    "tangent": (verify_tangent, "max_n", 1),
    "lemma": (verify_lemma, "max_total", 1),
    "gln": (verify_gln, "max_n", 2),
    "symmetry": (verify_symmetry, "max_dim", 1),
}

SUITE_NAMES = tuple(_SUITES)


def run_suite(name: str, n: int | None = None, trials: int | None = None,
              seed: int = 0, tol: ToleranceConfig = DEFAULT_TOL) -> SuiteResult:
    """Run one named suite; n remaps to the suite's size parameter, and a
    size too small to record a check raises ValueError.  Each suite gets
    only the trials, seed and tol that its function takes: the exhaustive
    lemma suite ignores all three, and gln ignores tol."""
    if name not in _SUITES:
        raise ValueError(f"unknown suite {name!r}; pick one of {SUITE_NAMES}")
    fn, size_key, least = _SUITES[name]
    if n is not None and n < least:
        raise ValueError(f"the {name} suite needs n >= {least}, got {n}")
    given = {size_key: n, "trials": trials, "seed": seed, "tol": tol}
    params = inspect.signature(fn).parameters
    return fn(**{key: value for key, value in given.items()
                 if value is not None and key in params})
