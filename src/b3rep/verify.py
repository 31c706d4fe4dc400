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
from .errors import GenerationFailed, ToleranceAmbiguity
from .extoracle import (
    DEFAULT_TOL,
    ToleranceConfig,
    coboundary_defects_numeric,
    ext_dim_numeric,
    ext_dims_numeric,
    hom_dims_numeric,
)
from .factory import (
    SemisimpleSpec,
    SpecEntry,
    _random_unitary,
    derived_seed,
    entries_isomorphic,
    random_simples_gamma,
    scale_rep,
    validate_rep,
)
from .geometry import (
    analyze,
    assemble_and_measure,
    ext_b3_spec,
    gln_embed,
    gln_retract,
    tangent_dim_formula,
    tangent_dim_numeric,
)
from .lattice import (
    EULER_MATRIX_HEX,
    GammaDimVector,
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


def _draw(keys, seed: int, tol: ToleranceConfig) -> dict:
    """Instances for (alpha, label) keys, each from the seed
    ``derived_seed("verify", label, seed)``: one stacked
    ``random_simples_gamma`` per type."""
    labels_by_type: dict[GammaDimVector, list] = {}
    for alpha, label in dict.fromkeys(keys):
        labels_by_type.setdefault(alpha, []).append(label)
    drawn = {}
    for alpha, labels in labels_by_type.items():
        seeds = [derived_seed("verify", label, seed) for label in labels]
        for label, inst in zip(labels, random_simples_gamma(alpha, seeds, tol)):
            drawn[alpha, label] = inst
    return drawn


def _independent_pairs(requests, seed: int, tol: ToleranceConfig,
                       singles=()) -> tuple[dict, dict]:
    """Two independent instances for each (alpha, beta, trial) request;
    for equal types of dimension >= 2 the draw is retried, with a bumped
    label, until the modules are non-isomorphic (Hom = 0).  Each round
    is one ``_draw`` and one stacked Hom rank per dimension.  The
    (alpha, label) keys of ``singles`` are drawn with the first round.
    Returns the pairs by request and the single instances by key."""
    pairs, drawn_singles = {}, {}
    pending = list(dict.fromkeys(requests))
    for bump in range(8):
        keys = [key for alpha, beta, trial in pending
                for key in ((alpha, ("pair-a", alpha, beta, trial, bump)),
                            (beta, ("pair-b", alpha, beta, trial, bump)))]
        drawn = _draw([*keys, *(singles if bump == 0 else ())], seed, tol)
        if bump == 0:
            drawn_singles = {key: drawn[key] for key in singles}
        for req, a_key, b_key in zip(pending, keys[0::2], keys[1::2]):
            pairs[req] = (drawn[a_key], drawn[b_key])
        linked: dict[int, list] = {}
        for req in pending:
            alpha, beta, _ = req
            if alpha == beta and alpha.n > 1:
                linked.setdefault(alpha.n, []).append(req)
        pending = []
        for same_n in linked.values():
            homs = hom_dims_numeric([(s.rep, t.rep) for s, t in map(pairs.get, same_n)],
                                    GAMMA, tol)
            pending += [req for req, hom in zip(same_n, homs) if hom != 0]
        if not pending:
            return pairs, drawn_singles
    raise GenerationFailed("could not draw non-isomorphic instances")


def _measure(systems, tol: ToleranceConfig) -> list[int]:
    """Values of (oracle, V, W, kind) systems, in order; the oracle is
    ext or coboundary.  One stacked call per oracle, kind and pair of
    dimensions."""
    oracles = {"ext": ext_dims_numeric, "coboundary": coboundary_defects_numeric}
    groups: dict[tuple, list[int]] = {}
    for idx, (oracle, V, W, kind) in enumerate(systems):
        groups.setdefault((oracle, kind, V.n, W.n), []).append(idx)
    values = [0] * len(systems)
    for (oracle, kind, _, _), idxs in groups.items():
        got = oracles[oracle]([systems[i][1:3] for i in idxs], kind, tol)
        for i, value in zip(idxs, got):
            values[i] = value
    return values


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
    and then records the checks in the planned order.
    """
    result = SuiteResult("ext")
    simples = [v for n in range(1, max_dim + 1) for v in enumerate_simple_gamma(n)]
    pair_trials = max(1, trials // 4)
    b3_types = [v for n in range(1, min(max_dim, 2) + 1)
                for v in enumerate_simple_gamma(n)]
    self_keys = [(alpha, ("self", alpha, trial))
                 for alpha in simples for trial in range(trials)]
    quotient = [(alpha, beta, trial) for alpha in simples for beta in simples
                for trial in range(pair_trials)]
    braid = [(alpha, lam, beta, LAMBDA_POOL[(li + ai + bi) % len(LAMBDA_POOL)], 1000 + li)
             for ai, alpha in enumerate(b3_types) for bi, beta in enumerate(b3_types)
             for li, lam in enumerate(LAMBDA_POOL)]
    b3self = [(alpha, lam, (alpha, ("b3self", alpha, str(lam))))
              for alpha in b3_types for lam in LAMBDA_POOL]
    pairs, singles = _independent_pairs(
        [*quotient, *((alpha, beta, trial) for alpha, _, beta, _, trial in braid)],
        seed, tol, singles=[*self_keys, *(key for _, _, key in b3self)])

    # every check in recording order: its system, the expected value, and
    # the failure message around the measured value
    systems, checks = [], []

    def check(expected, head, tail, system):
        systems.append(system)
        checks.append((expected, head, tail))

    for alpha, label in self_keys:
        rep = singles[alpha, label].rep
        expected = ext_gamma_self(alpha)
        check(expected, f"self {alpha}: oracle ", f" != formula {expected}",
              ("ext", rep, rep, GAMMA))
    for alpha, beta, trial in quotient:
        s, t = (inst.rep for inst in pairs[alpha, beta, trial])
        # equal one-dimensional types: the two instances are the same module
        expected = 0 if alpha == beta and alpha.n == 1 else ext_gamma_pair(alpha, beta)
        check(expected, f"pair {alpha},{beta}: oracle ", f" != {expected}",
              ("ext", s, t, GAMMA))
        check(0, f"coboundaries {alpha},{beta}: cocycle defect rank ", " != 0",
              ("coboundary", s, t, GAMMA))
    for alpha, lam, beta, mu, trial in braid:
        e1, e2 = SpecEntry(alpha, lam, 1, "L"), SpecEntry(beta, mu, 1, "R")
        if entries_isomorphic(e1, e2):
            expected = ext_gamma_self(alpha) + 1
        else:
            expected = ext_b3_spec(e1, e2)
        s, t = pairs[alpha, beta, trial]
        check(expected, f"braid {alpha}*{lam} vs {beta}*{mu}: ", f" != {expected}",
              ("ext", scale_rep(s.rep, lam), scale_rep(t.rep, mu), B3))
    for alpha, lam, key in b3self:
        v = scale_rep(singles[key].rep, lam)
        expected = ext_gamma_self(alpha) + 1
        check(expected, f"braid self {alpha}*{lam}: ", f" != {expected}",
              ("ext", v, v, B3))

    for got, (expected, head, tail) in zip(_measure(systems, tol), checks):
        result.record(got == expected, got - expected, f"{head}{got}{tail}")
    return result


def verify_symmetry(max_dim: int = 3, trials: int = 6, seed: int = 0,
                    tol: ToleranceConfig = DEFAULT_TOL) -> SuiteResult:
    """Measured braid-case extension dimensions are symmetric:
    ext(V, W) = ext(W, V) on sampled pairs of rescaled simples."""
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
    pairs, _ = _independent_pairs([req for req, _, _ in samples], seed, tol)
    for req, lam, mu in samples:
        alpha, beta, _ = req
        s, t = pairs[req]
        v = scale_rep(s.rep, lam)
        w = scale_rep(t.rep, mu)
        forward = ext_dim_numeric(v, w, B3, tol)
        backward = ext_dim_numeric(w, v, B3, tol)
        result.record(forward == backward, forward - backward,
                      f"ext({alpha}*{lam},{beta}*{mu}) = {forward} but "
                      f"reverse = {backward}")
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
    relation and commutation residuals of the embedding."""
    result = SuiteResult("gln")
    for n in range(2, max_n + 1):
        for trial in range(trials):
            rng = np.random.default_rng(derived_seed("gln", seed, n, trial))
            # controlled conditioning: unitary * diag(moduli in [0.8, 1.25]) * unitary
            u = _random_unitary(n, rng)
            w = _random_unitary(n, rng)
            moduli = 0.8 + 0.45 * rng.random(n)
            g = u @ np.diag(moduli.astype(complex)) @ w
            pair = gln_embed(g)
            rel = float(np.linalg.norm(pair.A @ pair.A - pair.B @ pair.B @ pair.B))
            comm = float(np.linalg.norm(pair.A @ pair.B - pair.B @ pair.A))
            result.record(rel <= 1e-12 * max(1.0, np.linalg.norm(pair.A) ** 2), rel,
                          f"embed relation residual {rel:.2e} at n={n}")
            result.record(comm <= 1e-12 * max(1.0, np.linalg.norm(pair.A) ** 2), comm,
                          f"embed commutation residual {comm:.2e} at n={n}")
            back = gln_retract(pair, tol)
            err = float(np.linalg.norm(back - g))
            result.record(err <= 1e-10, err, f"retract(embed(G)) error {err:.2e}")
            again = gln_embed(back)
            err2 = float(np.linalg.norm(again.A - pair.A) + np.linalg.norm(again.B - pair.B))
            result.record(err2 <= 1e-10, err2, f"embed(retract(V)) error {err2:.2e}")
    return result


def random_spec(n: int, seed: int = 0,
                lambda_pool: tuple[ExactScalar, ...] = LAMBDA_POOL) -> SemisimpleSpec:
    """Deterministic random semisimple spec of total dimension n:
    random simple types, scalars from the pool, occasional higher
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
        lam = lambda_pool[rng.integers(len(lambda_pool))]
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
        merged = False
        for idx, existing in enumerate(entries):
            if entries_isomorphic(candidate, existing):
                entries[idx] = SpecEntry(existing.alpha, existing.lam,
                                         existing.mult + mult, existing.instance_id)
                merged = True
                break
        if not merged:
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
                spec, lambda bump: derived_seed("tangent-rep", seed, trial, bump),
                tangent_dim_numeric, tol)
        except ToleranceAmbiguity:
            result.record(False, 0, f"persistent tolerance ambiguity for {spec.to_json()}")
            continue
        valid = validate_rep(rep, B3, tol)
        result.record(bool(valid), valid.residuals.get("relation_A2_B3", 0.0),
                      f"assembled pair invalid for {spec.to_json()}")
        formula = tangent_dim_formula(spec)
        result.record(measured == formula, measured - formula,
                      f"tangent mismatch {measured} != {formula} for {spec.to_json()}")
        report = analyze(spec)
        comp, verdict = report.component_dim, report.smooth
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
