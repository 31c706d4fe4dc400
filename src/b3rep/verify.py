"""Randomized and exhaustive property suites.

Each suite pits a combinatorial formula against its numerical oracle (or
an exhaustive desk-scale enumeration) and reports pass/fail counts with
the worst observed residual.  A failure here never means an unlucky
draw: the formulas are exact integers, so any mismatch is a bug or a
wrong reading of the underlying identities.
"""

from __future__ import annotations

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
    _draw_simples,
    _unitaries,
    assemble,
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
    tangent_dim_numeric,
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
    twist_gamma,
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


def _measure_draws(draws, systems_of, seed: int,
                   tol: ToleranceConfig) -> tuple[list[list[int]], list[list[bool]]]:
    """The measured systems of every draw, redrawn while unclear.

    A draw is a list of (type, label) instances, each drawn from
    ``derived_seed("verify", label, seed)``, all of an attempt in one
    ``_draw_simples``, and ``systems_of(k, instances)`` lists the systems
    of draw k in the form ``_measure`` takes.  The two instances of a draw
    of one type of dimension >= 2 must be non-isomorphic: their Hom is one
    more system, ranked in the same call, and a Hom that reads nonzero
    leaves the draw unclear, as an ambiguous system does.  A zero Hom near
    the threshold stands: on a quotient pair the commutant behind its flag
    is the one ``_ext_dims`` flags.  An unclear draw is drawn again, under
    labels that end with the attempt, and all its systems are measured
    again, for ``REMEASURE_ATTEMPTS`` attempts in all.  Returns the values
    of each draw's systems and their ambiguity flags, from its last
    attempt; every flag of a draw still isomorphic is set.  A draw of
    one-dimensional instances only is measured once: every instance of a
    one-dimensional type is the same pair, so a redraw would bring its
    ambiguity back."""
    linked = {k for k, ((alpha, _), *rest) in enumerate(draws)
              if rest and rest[0][0] == alpha and alpha.n > 1}
    values, ambiguous = [None] * len(draws), [None] * len(draws)
    todo = list(range(len(draws)))
    for attempt in range(REMEASURE_ATTEMPTS):
        instances = [(alpha, (*label, attempt) if attempt else label)
                     for k in todo for alpha, label in draws[k]]
        drawn = iter(_draw_simples([alpha for alpha, _ in instances],
                                   [derived_seed("verify", label, seed) for _, label in instances],
                                   tol))
        owners, systems = [], []
        for k in todo:
            insts = [next(drawn) for _ in draws[k]]
            listed = systems_of(k, insts)
            if k in linked:
                listed.append(("hom", insts[0].rep, insts[1].rep, GAMMA))
            owners += [k] * len(listed)
            systems += listed
            values[k], ambiguous[k] = [], []
        for k, system, value, flag in zip(owners, systems, *_measure(systems, tol)):
            values[k].append(value)
            ambiguous[k].append(value != 0 if system[0] == "hom" else flag)
        todo = [k for k in todo
                if any(ambiguous[k]) and any(alpha.n > 1 for alpha, _ in draws[k])]
        if not todo:
            break
    for k in linked:
        values[k].pop()
        if ambiguous[k].pop():
            ambiguous[k] = [True] * len(ambiguous[k])
    return values, ambiguous


def assemble_and_measure(spec: SemisimpleSpec, seed_of,
                         tol: ToleranceConfig = DEFAULT_TOL):
    """Assemble the spec and measure its tangent dimension
    (``tangent_dim_numeric``), re-assembling on ToleranceAmbiguity:
    attempt k uses the seed ``seed_of(k)``, for k below
    ``REMEASURE_ATTEMPTS``.  Returns (seed, rep, measured value) of the
    first clean attempt, and re-raises the last ambiguity when no attempt
    was clean."""
    for attempt in range(REMEASURE_ATTEMPTS):
        seed = seed_of(attempt)
        rep = assemble(spec, seed=seed, tol=tol)
        try:
            return seed, rep, tangent_dim_numeric(rep, tol)
        except ToleranceAmbiguity as exc:
            last = exc
    raise last


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

    The suite plans its checks, draws every instance in one stack per
    type, measures every system in one stack per oracle, kind and shape,
    and then records the checks in the planned order.  The formulas are
    evaluated once per type, pair of types or spec entry, not per check.
    An instance behind an ambiguous rank decision, or a pair of one type
    whose Hom reads nonzero, is drawn again (``_measure_draws``); a check
    still unclear after the last attempt is recorded as failed, with
    "persistent tolerance ambiguity".
    """
    result = SuiteResult("ext")
    simples = [v for n in range(1, max_dim + 1) for v in enumerate_simple_gamma(n)]
    pair_trials = max(1, trials // 4)
    b3_types = [v for n in range(1, min(max_dim, 2) + 1)
                for v in enumerate_simple_gamma(n)]
    self_ext = {alpha: ext_gamma_self(alpha) for alpha in simples}
    # one spec entry per type and scalar on each side of the braid checks,
    # and each check's entries as indices (type, scalar) into them
    left, right = ([[SpecEntry(alpha, lam, 1, side) for lam in LAMBDA_POOL] for alpha in b3_types]
                   for side in "LR")
    braid = [(ai, li, bi, (li + ai + bi) % len(LAMBDA_POOL))
             for ai in range(len(b3_types)) for bi in range(len(b3_types))
             for li in range(len(LAMBDA_POOL))]
    # the draws: quotient pairs, braid pairs, self instances, braid self instances
    quotient = [(alpha, beta, trial) for alpha in simples for beta in simples
                for trial in range(pair_trials)]
    self_keys = [(alpha, ("self", alpha, trial))
                 for alpha in simples for trial in range(trials)]
    b3self = [(alpha, lam) for alpha in b3_types for lam in LAMBDA_POOL]
    n_q, n_b, n_s = len(quotient), len(braid), len(self_keys)

    def systems_of(k, drawn):
        if k < n_q:
            s, t = (inst.rep for inst in drawn)
            return [("ext", s, t, GAMMA), ("coboundary", s, t, GAMMA)]
        if k < n_q + n_b:
            _, li, _, mi = braid[k - n_q]
            return [("ext", scale_rep(drawn[0].rep, LAMBDA_POOL[li]),
                     scale_rep(drawn[1].rep, LAMBDA_POOL[mi]), B3)]
        if k < n_q + n_b + n_s:
            return [("ext", drawn[0].rep, drawn[0].rep, GAMMA)]
        v = scale_rep(drawn[0].rep, b3self[k - n_q - n_b - n_s][1])
        return [("ext", v, v, B3)]

    values, ambiguous = _measure_draws(
        [*(_pair(*request) for request in quotient),
         *(_pair(b3_types[ai], b3_types[bi], 1000 + li) for ai, li, bi, _ in braid),
         *([one] for one in self_keys),
         *([(alpha, ("b3self", alpha, str(lam)))] for alpha, lam in b3self)],
        systems_of, seed, tol)

    # every check in recording order: its draw and system, the expected
    # value, the checked item, and the failure message around the measured
    # value; each text is made once per type, pair of types or entry
    checks = []
    for ai, alpha in enumerate(simples):
        expected = self_ext[alpha]
        text = (expected, f"self {alpha}", "oracle ", f" != formula {expected}")
        first = n_q + n_b + ai * trials
        checks += [(k, 0, *text) for k in range(first, first + trials)]
    for k in range(0, n_q, pair_trials):
        alpha, beta, _ = quotient[k]
        # equal one-dimensional types: the two instances are the same module
        expected = 0 if alpha == beta and alpha.n == 1 else ext_gamma_pair(alpha, beta)
        ext_text = (expected, f"pair {alpha},{beta}", "oracle ", f" != {expected}")
        cob_text = (0, f"coboundaries {alpha},{beta}", "cocycle defect rank ", " != 0")
        for j in range(k, k + pair_trials):
            checks += [(j, 0, *ext_text), (j, 1, *cob_text)]
    scaled = [[f"{alpha}*{lam}" for lam in LAMBDA_POOL] for alpha in b3_types]
    for k, (ai, li, bi, mi) in enumerate(braid, n_q):
        e1, e2 = left[ai][li], right[bi][mi]
        if entries_isomorphic(e1, e2):
            expected = self_ext[e1.alpha] + 1
        else:
            expected = ext_b3_spec(e1, e2)
        checks.append((k, 0, expected, f"braid {scaled[ai][li]} vs {scaled[bi][mi]}", "",
                       f" != {expected}"))
    for k, (alpha, lam) in enumerate(b3self, n_q + n_b + n_s):
        expected = self_ext[alpha] + 1
        checks.append((k, 0, expected, f"braid self {alpha}*{lam}", "", f" != {expected}"))

    for k, slot, expected, item, head, tail in checks:
        if ambiguous[k][slot]:
            result.record(False, 0, f"persistent tolerance ambiguity for {item}")
        else:
            got = values[k][slot]
            result.record(got == expected, got - expected, f"{item}: {head}{got}{tail}")
    return result


def verify_symmetry(max_dim: int = 3, trials: int = 6, seed: int = 0,
                    tol: ToleranceConfig = DEFAULT_TOL) -> SuiteResult:
    """Measured braid-case extension dimensions are symmetric:
    ext(V, W) = ext(W, V) on sampled pairs of rescaled simples.

    The pairs are drawn, and both directions of every pair measured, by
    ``_measure_draws``, the stacked path of ``verify_ext``: one stacked
    call per pair of dimensions, and a pair with an ambiguous direction,
    or of one type with a nonzero Hom, drawn again; one still unclear
    after the last attempt is a failed check."""
    result = SuiteResult("symmetry")
    simples = [v for n in range(1, max_dim + 1) for v in enumerate_simple_gamma(n)]
    samples = []
    for trial in range(trials):
        rng = np.random.default_rng(derived_seed("symmetry", seed, trial))
        alpha = simples[rng.integers(len(simples))]
        beta = simples[rng.integers(len(simples))]
        lam = LAMBDA_POOL[rng.integers(len(LAMBDA_POOL))]
        mu = LAMBDA_POOL[rng.integers(len(LAMBDA_POOL))]
        samples.append(((alpha, beta, trial), lam, mu))

    def systems_of(k, drawn):
        _, lam, mu = samples[k]
        v, w = scale_rep(drawn[0].rep, lam), scale_rep(drawn[1].rep, mu)
        return [("ext", v, w, B3), ("ext", w, v, B3)]

    values, ambiguous = _measure_draws([_pair(*req) for req, _, _ in samples], systems_of,
                                       seed, tol)
    for ((alpha, beta, _), lam, mu), (forward, backward), unclear in zip(
            samples, values, ambiguous):
        name = f"ext({alpha}*{lam},{beta}*{mu})"
        if any(unclear):
            result.record(False, 0, f"persistent tolerance ambiguity for {name}")
        else:
            result.record(forward == backward, forward - backward,
                          f"{name} = {forward} but reverse = {backward}")
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


def verify_gln(max_n: int = 4, trials: int = 50, seed: int = 0,
               tol: ToleranceConfig = DEFAULT_TOL) -> SuiteResult:
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
            # the draws of two _random_unitary calls, then the moduli
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
        back = _gln_retract(A, B, tol)
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
    smooth verdict coincides with tangent = component dimension."""
    result = SuiteResult("tangent")
    for trial in range(trials):
        rng = np.random.default_rng(derived_seed("tangent-size", seed, trial))
        n = int(rng.integers(1, max_n + 1))
        spec = random_spec(n, derived_seed("tangent", seed, trial))
        try:
            _, rep, measured = assemble_and_measure(
                spec, lambda bump: derived_seed("tangent-rep", seed, trial, bump), tol)
        except ToleranceAmbiguity:
            result.record(False, 0, f"persistent tolerance ambiguity for {spec.to_json()}")
            continue
        valid = validate_rep(rep, B3, tol)
        result.record(bool(valid), valid.residuals.get("relation_A2_B3", 0.0),
                      f"assembled pair invalid for {spec.to_json()}")
        report = analyze(spec)
        formula, comp, verdict = report.tangent_dim, report.component_dim, report.smooth
        result.record(measured == formula, measured - formula,
                      f"tangent mismatch {measured} != {formula} for {spec.to_json()}")
        result.record(verdict == (measured == comp), 0,
                      f"smooth verdict {verdict} but tangent {measured}, "
                      f"component {comp} for {spec.to_json()}")
        slack = formula - comp
        result.record(slack >= 0 and (slack == 0) == verdict, 0,
                      f"tangent defect {slack} inconsistent with verdict")
    return result


#: Suite name -> (function, name of its size parameter, whether it draws
#: random instances and so takes trials, seed and tol, smallest size that
#: records a check).  The defaults are those of the function signatures.
_SUITES = {
    "ext": (verify_ext, "max_dim", True, 1),
    "tangent": (verify_tangent, "max_n", True, 1),
    "lemma": (verify_lemma, "max_total", False, 1),
    "gln": (verify_gln, "max_n", True, 2),
    "symmetry": (verify_symmetry, "max_dim", True, 1),
}

SUITE_NAMES = tuple(_SUITES)


def run_suite(name: str, n: int | None = None, trials: int | None = None,
              seed: int = 0, tol: ToleranceConfig = DEFAULT_TOL) -> SuiteResult:
    """Run one named suite; n remaps to the suite's size parameter, and a
    size too small to record a check raises ValueError.  The exhaustive
    lemma suite ignores trials, seed and tol."""
    if name not in _SUITES:
        raise ValueError(f"unknown suite {name!r}; pick one of {SUITE_NAMES}")
    fn, size_key, randomized, least = _SUITES[name]
    if n is not None and n < least:
        raise ValueError(f"the {name} suite needs n >= {least}, got {n}")
    kwargs = {} if n is None else {size_key: n}
    if randomized:
        kwargs.update(seed=seed, tol=tol)
        if trials is not None:
            kwargs["trials"] = trials
    return fn(**kwargs)
