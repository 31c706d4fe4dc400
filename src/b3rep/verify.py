"""Randomized and exhaustive property suites.

Each suite pits a combinatorial formula against its numerical oracle (or
an exhaustive desk-scale enumeration) and reports pass/fail counts with
the worst observed residual.  A failure here never means an unlucky
draw: the formulas are exact integers, so any mismatch is a bug or a
wrong reading of the underlying identities.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import sys
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .constants import B3, GAMMA
from .errors import InvalidSpec, ToleranceAmbiguity
from .extoracle import (
    DEFAULT_TOL,
    ToleranceConfig,
    _coboundary_defects,
    _ext_dims,
    _hom_dims,
    scalar_groups,
)
from .factory import (
    SemisimpleSpec,
    SpecEntry,
    _block_pair,
    _draw_simples,
    _instances,
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


#: Bytes of system ``_measure`` ranks in one call, each system counted as
#: the 16 (2 n_V n_W)^2 bytes of a quotient cocycle system, the largest one
#: the ext oracle builds; a full n^2 x 2n^2 tangent system takes half of
#: that.  Every group of the default and CI sizes fits in one call; at
#: ``verify ext --n 10`` the (10, 10) group alone holds 3.3 GB of them.
_MEASURE_CHUNK_BYTES = 2 ** 26


def _measure(systems, tol: ToleranceConfig) -> tuple[list, list]:
    """Values of (oracle, V, W, kind) systems, in order, and why each is
    unclear (falsy if clean): ext and coboundary on an ambiguous rank
    decision; link, the Hom of a ``_pair``, when nonzero (near the
    threshold a zero stands: ``_ext_dims`` flags the same commutant);
    tangent, of V, for the reason it gives; relation never.  One call per
    oracle, kind and pair of dimensions (tangent and relation take every
    size in one), split into calls of at most ``_MEASURE_CHUNK_BYTES``."""
    oracles = {"ext": _ext_dims, "coboundary": _coboundary_defects, "link": _hom_dims,
               "tangent": lambda pairs, kind, tol: tangent_dims_numeric([v for v, _ in pairs], tol),
               "relation": lambda pairs, kind, tol: ([validate_rep(v, kind) for v, _ in pairs],
                                                     [False] * len(pairs))}
    groups: dict[tuple, list[int]] = {}
    for idx, (oracle, V, W, kind) in enumerate(systems):
        sizes = () if oracle in ("tangent", "relation") else (V.n, W.n)
        groups.setdefault((oracle, kind, sizes), []).append(idx)
    values, unclear = [0] * len(systems), [False] * len(systems)
    for (oracle, kind, _), idxs in groups.items():
        largest = max(systems[i][1].n * systems[i][2].n for i in idxs)
        step = max(1, _MEASURE_CHUNK_BYTES // (16 * (2 * largest) ** 2))
        for start in range(0, len(idxs), step):
            chunk = idxs[start:start + step]
            got, flags = oracles[oracle]([systems[i][1:3] for i in chunk], kind, tol)
            if oracle == "link":
                flags = got != 0
            for i, value, flag in zip(chunk, np.asarray(got).tolist(), np.asarray(flags).tolist()):
                values[i], unclear[i] = value, flag
    return values, unclear


#: Attempts at a measurement before it is given up, in ``_run_draws``.  A
#: check still unclear after the last attempt is a failed check.
REMEASURE_ATTEMPTS = 3


def _run_draws(plan, seed_of, tol: ToleranceConfig) -> list[tuple]:
    """(attempt, values, unclear) of the last attempt of each item of a
    plan, in order: the ``_measure`` values and flags of its systems.

    An item is (instances, systems, ...): (type, key) instances, each
    drawn from ``seed_of(k, key, attempt)``, k the item's index, all of an
    attempt in one ``_draw_simples``; and ``systems(*reps)`` in the form
    ``_measure`` takes.  An item with an unclear system is drawn again, for
    ``REMEASURE_ATTEMPTS`` attempts in all, unless its instances are all
    one-dimensional: such a type has one pair, so a redraw would bring the
    same ambiguity back."""
    outcomes = [None] * len(plan)
    todo = range(len(plan))
    for attempt in range(REMEASURE_ATTEMPTS):
        drawn = iter(_draw_simples(
            [alpha for k in todo for alpha, _ in plan[k][0]],
            [seed_of(k, key, attempt) for k in todo for _, key in plan[k][0]]))
        ends, systems = [], []
        for k in todo:
            systems += plan[k][1](*[next(drawn).rep for _ in plan[k][0]])
            ends.append(len(systems))
        # the instances live on in the systems only
        del drawn
        got, flags = _measure(systems, tol)
        for k, start, end in zip(todo, [0, *ends], ends):
            outcomes[k] = attempt, got[start:end], flags[start:end]
        todo = [k for k in todo
                if any(outcomes[k][2]) and any(alpha.n > 1 for alpha, _ in plan[k][0])]
        if not todo:
            break
    return outcomes


def _record(name: str, outcomes, checks) -> SuiteResult:
    """The suite result of the checks of each outcome of ``_run_draws``, in
    order.  A check (slots, item, judge) records ``judge(*values of its
    slots)``, an (ok, residual, message) triple, or, when one of its slots
    is still unclear, the failure "persistent tolerance ambiguity for <item>"."""
    result = SuiteResult(name)
    for (_, got, flags), item_checks in zip(outcomes, checks):
        for slots, item, judge in item_checks:
            if any(map(flags.__getitem__, slots)):
                result.record(False, 0, f"persistent tolerance ambiguity for {item}")
            else:
                result.record(*judge(*map(got.__getitem__, slots)))
    return result


def _labelled(seed: int):
    """The ``seed_of`` of the suites' draws: a labelled instance at attempt
    k is drawn from ``derived_seed("verify", label, seed)``, the label
    ending with k after the first attempt."""
    return lambda _, label, attempt: derived_seed("verify", (*label, attempt) if attempt else label, seed)


def _pair(alpha, beta, trial, systems, checks) -> tuple:
    """The draw of two independent instances of types alpha and beta, with
    its systems and checks; the labels end with 0, as in earlier releases.
    Two instances of one type of dimension >= 2 must be non-isomorphic:
    their Hom is a last "link" system that every check reads too."""
    instances = [(alpha, ("pair-a", alpha, beta, trial, 0)), (beta, ("pair-b", alpha, beta, trial, 0))]
    if alpha != beta or alpha.n == 1:
        return instances, systems, checks
    return (instances, lambda v, w: [*systems(v, w), ("link", v, w, GAMMA)],
            [((*slots, -1), item, lambda *got, judge=judge: judge(*got[:-1]))
             for slots, item, judge in checks])


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


def _point(spec: SemisimpleSpec) -> tuple:
    """The plan item of an assembled point, which reaches ``_run_draws``
    through ``_measure_points`` only: the spec's ``_instances``, and as
    systems the tangent and the relation check of their ``_block_pair``;
    unlike a ``_pair``, it links no two instances."""
    keys = _instances(spec)
    # a partial holds two objects that the garbage collector tracks, a
    # closure four: a plan of many points stays cheaper to collect
    return keys, functools.partial(_point_systems, spec, keys)


def _point_systems(spec, keys, *reps) -> list:
    """The systems of a ``_point`` from the pairs of its instances, in order."""
    rep = _block_pair(spec, dict(zip(keys, reps)))
    return [("tangent", rep, rep, B3), ("relation", rep, rep, B3)]


def _measure_points(specs, point_seed, tol: ToleranceConfig = DEFAULT_TOL) -> list[tuple]:
    """The ``_run_draws`` outcomes (attempt, (tangent, ``validate_rep``),
    (reason, _)) of one ``_point`` per spec, each passed by ``_check_point``:
    instance id i of spec k at attempt a is drawn as ``assemble(spec,
    point_seed(k, a))`` draws it, from ``derived_seed("assemble", point_seed(k, a), i)``."""
    return _run_draws([_point(spec) for spec in specs], lambda k, instance_id, attempt:
                      derived_seed("assemble", point_seed(k, attempt), instance_id), tol)


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

    The suite is a plan of draws for ``_run_draws``, in recording order:
    self instances, quotient pairs (an ext and a coboundary check each),
    braid pairs, braid self instances.  Formulas and failure texts are
    made once per type, pair of types or spec entry, not per check.
    """
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
            plan += [_pair(alpha, beta, trial, pair_systems, checks)
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
                plan.append(_pair(alpha, beta, 1000 + li, _braid_ext(lam, mu),
                                  [_equal(0, item, expected)]))
    for alpha in b3_types:
        for lam in LAMBDA_POOL:
            plan.append(([(alpha, ("b3self", alpha, str(lam)))], _braid_ext(lam, lam),
                         [_equal(0, f"braid self {scaled[alpha, lam]}", self_ext[alpha] + 1)]))
    return _record("ext", _run_draws(plan, _labelled(seed), tol), [checks for *_, checks in plan])


def verify_symmetry(max_dim: int = 3, trials: int = 6, seed: int = 0,
                    tol: ToleranceConfig = DEFAULT_TOL) -> SuiteResult:
    """Measured braid-case extension dimensions are symmetric:
    ext(V, W) = ext(W, V) on sampled pairs of rescaled simples.

    The suite is a plan of one draw per trial for ``_run_draws``: a pair,
    both directions as its systems, and one check on the two."""
    simples = [v for n in range(1, max_dim + 1) for v in enumerate_simple_gamma(n)]

    def draw(trial):
        rng = np.random.default_rng(derived_seed("symmetry", seed, trial))
        alpha, beta = (simples[rng.integers(len(simples))] for _ in range(2))
        lam, mu = (LAMBDA_POOL[rng.integers(len(LAMBDA_POOL))] for _ in range(2))
        name = f"ext({alpha}*{lam},{beta}*{mu})"
        return _pair(alpha, beta, trial, _braid_ext(lam, mu, both=True),
                     [((0, 1), name, lambda forward, backward: (
                         forward == backward, forward - backward,
                         f"{name} = {forward} but reverse = {backward}"))])

    plan = [draw(trial) for trial in range(trials)]
    return _record("symmetry", _run_draws(plan, _labelled(seed), tol),
                   [checks for *_, checks in plan])


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
# _check_point holds every point to it before any draw: without --force a
# spec may use what one summand of dimension 32 needs, and so may each
# trial of verify tangent, which has no --force.
_VERIFY_BUDGET = 32 * 32 ** 4 + 64 * 32 ** 2


def _verify_bytes(spec: SemisimpleSpec) -> int:
    """The memory estimate of ``analyze --verify`` on the spec (see
    ``_VERIFY_BUDGET``): (sum d^2)^2 cells over each of its
    ``lambda6_classes``, and 128 bytes per ordered pair of entries."""
    squares = [e.dim ** 2 for e in spec.entries]
    cells = sum([sum([squares[i] for i in cls]) ** 2 for cls in spec.lambda6_classes])
    return 32 * cells + 64 * spec.n ** 2 + 128 * spec.k * (spec.k - 1)


#: The normal floats, exact: |lambda|^6 of every point measured lies in them.
_NORMAL = (Fraction(sys.float_info.min), Fraction(sys.float_info.max))


def _check_point(spec: SemisimpleSpec, what: str, remedy: str, force: bool = False) -> None:
    """Raise InvalidSpec when the point of a spec should not be assembled
    and measured: a scalar whose |lambda|^6, the scale of A^2 = B^3, is not
    a normal float; unless forced, a memory estimate (``_verify_bytes``) above
    ``_VERIFY_BUDGET``, "<what> needs about ...; above ... <remedy>"; or two
    distinct lambda^6 that ``scalar_groups`` merges, as the oracle would.
    The ``LAMBDA_POOL`` scalars of ``verify tangent`` meet neither first nor last."""
    lams = [spec.entries[cls[0]].lam for cls in spec.lambda6_classes]
    if not all(_NORMAL[0] <= lam.r ** 6 <= _NORMAL[1] for lam in lams):
        raise InvalidSpec(
            "--verify takes scalar moduli whose sixth power is a normal float "
            f"only, in [{sys.float_info.min:.3g}, {sys.float_info.max:.3g}]")
    need = _verify_bytes(spec)
    if need > _VERIFY_BUDGET and not force:
        raise InvalidSpec(f"{what} needs about {need / 1e6:.0f} MB by the memory "
                          f"estimate; above {_VERIFY_BUDGET / 1e6:.0f} MB {remedy}")
    if len(lams) == 1:
        return
    # lambda^6 as the oracle compares it, c = e^(2 pi i 6q) and t = r; an
    # ambiguous grouping is left to the draws, which report it
    c = np.exp(12j * np.pi * np.array([lam.q for lam in lams], float))
    with contextlib.suppress(ToleranceAmbiguity):
        for i, j, *_ in (g for g in scalar_groups(c, [float(lam.r) for lam in lams]) if len(g) > 1):
            raise InvalidSpec(
                f"--verify cannot tell the lambda^6 of entries {spec.lambda6_classes[i][0] + 1} "
                f"and {spec.lambda6_classes[j][0] + 1} apart: they differ by at most "
                f"{DEFAULT_TOL.rel_tol / 10:g} of their modulus, which the oracle reads as equal")


def verify_tangent(max_n: int = 6, trials: int = 50, seed: int = 0,
                   tol: ToleranceConfig = DEFAULT_TOL) -> SuiteResult:
    """Tangent dimensions on random specs: the measured value always
    equals the formula, the assembled pair is relation-valid, and the
    smooth verdict coincides with tangent = component dimension.  Every
    trial's spec passes ``_check_point`` before any draw, or the suite
    raises InvalidSpec; then trial t is the point of ``_measure_points``
    at point seed ``derived_seed("tangent-rep", seed, t, attempt)``."""
    specs = []
    for trial in range(trials):
        rng = np.random.default_rng(derived_seed("tangent-size", seed, trial))
        n = int(rng.integers(1, max_n + 1))
        specs.append(random_spec(n, derived_seed("tangent", seed, trial)))
        _check_point(specs[-1], f"tangent trial {trial} (n = {n})", "the suite refuses it")
    outcomes = _measure_points(
        specs, lambda trial, attempt: derived_seed("tangent-rep", seed, trial, attempt), tol)
    return _record("tangent", outcomes, map(_tangent_checks, specs))


def _tangent_checks(spec: SemisimpleSpec) -> list:
    """The checks of a trial of ``verify_tangent`` on its point's tangent
    and relation systems; the last, formula-only, counts on a give-up too."""
    report, text = analyze(spec), str(spec.to_json())
    formula, comp, verdict = report.tangent_dim, report.component_dim, report.smooth
    return [((0, 1), text, lambda value, valid: (
                bool(valid), valid.residuals.get("relation_A2_B3", 0.0),
                f"assembled pair invalid for {text}")),
            ((0,), text, lambda value: (value == formula, value - formula,
                                        f"tangent mismatch {value} != {formula} for {text}")),
            ((0,), text, lambda value: (verdict == (value == comp), 0,
                                        f"smooth verdict {verdict} but tangent {value}, "
                                        f"component {comp} for {text}")),
            ((), text, lambda: (formula >= comp and (formula == comp) == verdict, 0,
                                f"tangent defect {formula - comp} inconsistent with verdict"))]


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
