"""Smoothness analysis at semisimple points of the variety A^2 = B^3.

For a semisimple module given by a ``SemisimpleSpec`` this module
computes, purely combinatorially:

* pairwise extension dimensions between the simple summands (the
  three-case rule: zero unless the scalars differ by a sixth root of
  unity, a twisted quiver value when they do, and one extra dimension on
  the diagonal),
* the local quiver at the point,
* the dimension of the irreducible component the point sits on,
* the tangent-space dimension,
* the smooth/singular verdict: smooth iff all cross extensions vanish
  and every summand of dimension > 1 appears with multiplicity 1,
* for singular points, witness signatures of second components through
  the point (merging two summand types, or doubling one of dimension
  >= 3).

Each combinatorial value has a numerical twin built from explicit
matrices (`tangent_dim_numeric` here, the Hom/Ext oracles in the
companion module); the test suite holds the two sides together.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from .errors import B3RepError, IsomorphicDistinctEntries, ToleranceAmbiguity, WitnessUnavailable
from .extoracle import DEFAULT_TOL, ToleranceConfig, block_cocycle_dims
from .factory import RepPair, SemisimpleSpec, SpecEntry, entries_isomorphic
from .constants import B3
from .lattice import (
    GammaDimVector,
    ext_gamma_pair,
    ext_gamma_self,
    is_simple_gamma,
    orbit_class,
    simple_orbit_classes,
    twist_gamma,
)
from .scalars import mu6_exponent


def ext_b3_spec(e1: SpecEntry, e2: SpecEntry) -> int:
    """Extension dimension between the modules of two spec entries.

    Self entries get the quotient self-extension count plus one (the
    extra direction along the rescaling orbit); otherwise the value is
    zero unless the scalars differ by a sixth root of unity zeta6^k, in
    which case it is the pair value of alpha1 against the k-twist of
    alpha2.
    """
    if e1 == e2:
        return ext_gamma_self(e1.alpha) + 1
    if entries_isomorphic(e1, e2):
        raise IsomorphicDistinctEntries(
            "distinct entries denote isomorphic modules; merge multiplicities"
        )
    k = mu6_exponent(e2.lam, e1.lam)
    if k is None:
        return 0
    return ext_gamma_pair(e1.alpha, twist_gamma(e2.alpha, k))


@dataclass(frozen=True)
class ComponentSignature:
    """Multiset of twist-orbit classes, one member per simple factor
    (multiplicity = repetition).  Labels an irreducible component."""

    factors: tuple[GammaDimVector, ...]

    def __post_init__(self):
        factors = tuple(sorted(self.factors))
        if not factors:
            raise ValueError("signature needs at least one factor")
        object.__setattr__(self, "factors", factors)
        for f in self._counts():
            if orbit_class(f) != f:
                raise ValueError(f"{f} is not a canonical orbit representative")
            if not is_simple_gamma(f):
                raise ValueError(f"{f} is not a simple dimension vector")

    def _counts(self) -> dict[GammaDimVector, int]:
        """Each distinct factor with its multiplicity, in sorted order."""
        return Counter(self.factors)

    @classmethod
    def from_factors(cls, vectors) -> "ComponentSignature":
        """Build from arbitrary simple vectors, collapsing each to its
        canonical orbit representative."""
        return cls(tuple(orbit_class(v) for v in vectors))

    @property
    def n(self) -> int:
        return sum(f.n for f in self.factors)

    @property
    def k(self) -> int:
        return len(self.factors)

    def dimension(self) -> int:
        """Dimension of the labelled component: n^2 plus the sum of the
        factors' self-extension counts."""
        return self.n ** 2 + sum(c * ext_gamma_self(f) for f, c in self._counts().items())

    def to_json(self) -> list[list[int]]:
        return [f.to_json() for f in self.factors]

    def __str__(self) -> str:
        return "{" + ", ".join(str(f) for f in self.factors) + "}"


@dataclass(frozen=True)
class LocalQuiver:
    """Ext quiver at a semisimple point: one vertex per entry (with its
    multiplicity), arrow counts = pairwise extension dimensions."""

    entries: tuple[SpecEntry, ...]
    arrows: tuple[tuple[int, ...], ...]

    @property
    def multiplicities(self) -> tuple[int, ...]:
        return tuple(e.mult for e in self.entries)

    def to_json(self) -> dict:
        return {
            "vertices": [e.to_json() for e in self.entries],
            "arrows": [list(row) for row in self.arrows],
        }


def local_quiver(spec: SemisimpleSpec) -> LocalQuiver:
    """Local quiver of the spec: loops count self-extensions plus one,
    cross arrows the pairwise extension dimensions, computed once per pair
    inside each of ``lambda6_classes`` and mirrored; across classes, 0."""
    entries = spec.entries
    arrows = [[0] * len(entries) for _ in entries]
    for cls in spec.lambda6_classes:
        for n, i in enumerate(cls):
            for j in cls[n:]:
                arrows[i][j] = arrows[j][i] = ext_b3_spec(entries[i], entries[j])
    return LocalQuiver(entries, tuple(tuple(row) for row in arrows))


def component_signature(spec: SemisimpleSpec) -> ComponentSignature:
    """Signature of the component the spec's point sits on: the orbit
    class of each entry's type, repeated by its multiplicity."""
    factors = []
    for e in spec.entries:
        factors.extend([orbit_class(e.alpha)] * e.mult)
    return ComponentSignature(tuple(factors))


def component_dim(spec: SemisimpleSpec) -> int:
    """Dimension of the component through the point:
    n^2 + sum_i e_i * selfext(alpha_i)."""
    return component_signature(spec).dimension()


def tangent_dim_formula(spec: SemisimpleSpec) -> int:
    """Tangent-space dimension at the point:
    n^2 + sum_i e_i^2 selfext(alpha_i) + sum_{i<j} 2 e_i e_j ext(S_i, S_j)."""
    return _tangent_dim(local_quiver(spec))


def _tangent_dim(quiver: LocalQuiver) -> int:
    """The tangent formula read off the local quiver, whose loops count
    selfext + 1: n^2 + sum_{i,j} e_i e_j (arrows_ij - [i = j])."""
    mults = quiver.multiplicities
    n = sum(e.mult * e.dim for e in quiver.entries)
    return n ** 2 + sum(
        mi * mj * (quiver.arrows[i][j] - (i == j))
        for i, mi in enumerate(mults)
        for j, mj in enumerate(mults)
    )


def tangent_dim_numeric(V: RepPair, tol: ToleranceConfig = DEFAULT_TOL) -> int:
    """Tangent-space dimension measured from the matrices: the kernel
    dimension of the linearized relation

        (dA, dB) -> dA A + A dA - (dB B^2 + B dB B + B^2 dB),

    which is the cocycle space Z^1(V, V) of the braid relation: the stack
    of one of ``tangent_dims_numeric``.

    When A and B share a block-diagonal zero pattern, the linearized
    relation is block diagonal up to a permutation of rows and columns,
    and its block (i, j) is the cocycle system from the j-th diagonal
    block of V to the i-th.  Byte-equal diagonal blocks (repeated
    summands) form one class, so dim Z = e^T Z e, e the class counts and
    Z the cocycle dimensions of the pairs of classes (``block_cocycle_dims``).
    Dense input, such as a unitary conjugate of an assembled pair, is one
    block.  Raises ToleranceAmbiguity when a decision is not clean.
    """
    (value,), (reason,) = tangent_dims_numeric([V], tol)
    if reason:
        raise ToleranceAmbiguity(reason)
    return value


def tangent_dims_numeric(reps, tol: ToleranceConfig = DEFAULT_TOL) -> tuple[list[int], list[str]]:
    """``tangent_dim_numeric`` of each of a list of pairs, and why each
    value is unclear ('' if it is clean), instead of raising: the block
    classes of all pairs in one ``block_cocycle_dims``, each pair the
    owner of its classes."""
    classes = [_block_classes(V) for V in reps]
    owners = np.repeat(np.arange(len(reps)), [len(point) for point in classes])
    i, j, z, reasons = block_cocycle_dims(
        [rep for point in classes for rep, _ in point], owners, tol)
    counts, sizes = np.array([(count, rep.n) for point in classes
                              for rep, count in point], dtype=np.int64).reshape(-1, 2).T
    # e^T Z e, with Z = n_V n_W off the computed pairs: n^2 plus their excess
    values = np.array([V.n for V in reps], dtype=np.int64) ** 2
    np.add.at(values, owners[i], counts[i] * counts[j] * (z - sizes[i] * sizes[j]))
    return values.tolist(), reasons


def _diagonal_blocks(V: RepPair) -> list[slice]:
    """The finest partition of the indices into contiguous intervals such
    that every nonzero entry of A and of B lies in a diagonal block.
    Read off the exact zero pattern, so it does not rely on the spec."""
    n = V.n
    rows, cols = np.nonzero((V.A != 0) | (V.B != 0))
    reach = np.arange(n)
    np.maximum.at(reach, rows, cols)
    np.maximum.at(reach, cols, rows)
    ends = np.flatnonzero(np.maximum.accumulate(reach) == np.arange(n)) + 1
    return [slice(int(start), int(end)) for start, end in zip([0, *ends[:-1]], ends)]


def _block_classes(V: RepPair) -> list[list]:
    """Diagonal blocks of V as [pair, count] classes, byte-equal blocks
    merged into one class (keyed on their bytes), in order of first appearance."""
    classes: dict[tuple[bytes, bytes], list] = {}
    for blk in _diagonal_blocks(V):
        a, b = V.A[blk, blk], V.B[blk, blk]
        key = (a.tobytes(), b.tobytes())
        if key in classes:
            classes[key][1] += 1
        else:
            classes[key] = [RepPair(a, b, V.relation_kind), 1]
    return list(classes.values())


@dataclass(frozen=True)
class AnalysisReport:
    """Verdict and supporting data for one semisimple point."""

    n: int
    signature: ComponentSignature
    component_dim: int
    tangent_dim: int
    smooth: bool
    failed_conditions: tuple[dict, ...]
    witnesses: tuple[ComponentSignature, ...]
    local_quiver: LocalQuiver
    notes: tuple[str, ...]

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "signature": self.signature.to_json(),
            "component_dim": self.component_dim,
            "tangent_dim": self.tangent_dim,
            "smooth": self.smooth,
            "failed_conditions": [dict(f) for f in self.failed_conditions],
            "witnesses": [w.to_json() for w in self.witnesses],
            "local_quiver": self.local_quiver.to_json(),
            "notes": list(self.notes),
        }


def _failed_conditions(quiver: LocalQuiver) -> list[dict]:
    """Smoothness failures: cross pairs with nonzero extensions, and
    higher-dimensional summands with multiplicity >= 2.  Entry indices
    are 1-based."""
    failures = []
    entries = quiver.entries
    for i in range(len(entries)):
        for j in range(i + 1, len(entries)):
            ext = quiver.arrows[i][j]
            if ext:
                failures.append(
                    {"kind": "cross_ext", "entries": [i + 1, j + 1], "ext": ext}
                )
    for i, e in enumerate(entries):
        if e.dim > 1 and e.mult > 1:
            failures.append(
                {"kind": "multiplicity", "entry": i + 1, "dim": e.dim, "mult": e.mult}
            )
    return failures


def intersection_witnesses(spec: SemisimpleSpec) -> list[ComponentSignature]:
    """Signatures of second components through a singular point.

    Each failed cross pair (i, j) yields the signature in which one
    copy of alpha_i and one twist-aligned copy of alpha_j merge into the
    single simple type alpha_i + twist(alpha_j, k); each entry of
    dimension >= 3 with multiplicity >= 2 yields the signature merging
    two copies into 2 alpha_i.  Raises WitnessUnavailable when the point
    is singular but every failure is a dimension-2 summand with
    multiplicity >= 2 (no witness exists in general there), and
    ValueError on a smooth spec.
    """
    return _witnesses(spec, _failed_conditions(local_quiver(spec)))


def _witnesses(spec: SemisimpleSpec, failures: list[dict]) -> list[ComponentSignature]:
    """intersection_witnesses for the given failed conditions of spec."""
    if not failures:
        raise ValueError("point is smooth; no intersection witnesses")
    entries = spec.entries
    classes = [orbit_class(e.alpha) for e in entries]
    # each witness is the spec's signature with the removed copies
    # replaced by the merged class, so (merged class, removed classes)
    # determines it; every distinct witness is built once, in order of
    # first appearance
    keys: dict[tuple, None] = {}
    for failure in failures:
        if failure["kind"] == "cross_ext":
            i, j = (t - 1 for t in failure["entries"])
            # ext > 0, so the scalars share lambda^6
            k = mu6_exponent(entries[j].lam, entries[i].lam)
            merged = entries[i].alpha + twist_gamma(entries[j].alpha, k)
            if not is_simple_gamma(merged):
                raise B3RepError(
                    f"merged vector {merged} failed the simplicity criterion; "
                    "this contradicts the merging rule and wants a close look"
                )
            keys.setdefault((orbit_class(merged), tuple(sorted((classes[i], classes[j])))))
        elif failure["kind"] == "multiplicity" and failure["dim"] >= 3:
            i = failure["entry"] - 1
            merged = 2 * entries[i].alpha
            if not is_simple_gamma(merged):
                raise B3RepError(
                    f"doubled vector {merged} failed the simplicity criterion"
                )
            keys.setdefault((orbit_class(merged), (classes[i], classes[i])))
    copies = Counter(cls for cls, e in zip(classes, entries) for _ in range(e.mult))
    witnesses = []
    for merged, removed in keys:
        rest = copies.copy()
        rest.subtract(removed)
        witnesses.append(ComponentSignature((merged, *rest.elements())))
    if not witnesses:
        offenders = [f for f in failures if f["kind"] == "multiplicity"]
        raise WitnessUnavailable(
            "all failures are 2-dimensional summands with multiplicity >= 2 "
            f"(entries {[f['entry'] for f in offenders]}); the point is "
            "singular but a second generically-semisimple component is not "
            "guaranteed"
        )
    return witnesses


def analyze(spec: SemisimpleSpec) -> AnalysisReport:
    """Full smoothness report for one semisimple point."""
    quiver = local_quiver(spec)
    failures = _failed_conditions(quiver)
    smooth = not failures
    witnesses: tuple[ComponentSignature, ...] = ()
    notes: list[str] = []
    if not smooth:
        try:
            witnesses = tuple(_witnesses(spec, failures))
        except WitnessUnavailable as exc:
            notes.append(str(exc))
        for f in failures:
            if f["kind"] == "multiplicity" and f["dim"] == 2:
                notes.append(
                    f"entry {f['entry']}: 2-dimensional simple with multiplicity "
                    f"{f['mult']}; singular, but not necessarily an intersection "
                    "of two components with generically semisimple points"
                )
        if witnesses:
            notes.append(
                "witness components are labelled by their signatures; distinct "
                "signatures are assumed to give distinct components"
            )
    signature = component_signature(spec)
    return AnalysisReport(
        n=spec.n,
        signature=signature,
        component_dim=signature.dimension(),
        tangent_dim=_tangent_dim(quiver),
        smooth=smooth,
        failed_conditions=tuple(failures),
        witnesses=witnesses,
        local_quiver=quiver,
        notes=tuple(notes),
    )


def enumerate_component_signatures(n: int) -> list[ComponentSignature]:
    """All component signatures in total dimension n: multisets of
    simple orbit classes whose dimensions sum to n.  Sorted by component
    dimension, then lexicographically on the factor lists."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    pool: list[GammaDimVector] = []
    for d in range(1, n + 1):
        pool.extend(simple_orbit_classes(d))

    signatures: list[ComponentSignature] = []

    def extend(start: int, remaining: int, chosen: list[GammaDimVector]):
        if remaining == 0:
            signatures.append(ComponentSignature(tuple(chosen)))
            return
        for idx in range(start, len(pool)):
            if pool[idx].n <= remaining:
                chosen.append(pool[idx])
                extend(idx, remaining - pool[idx].n, chosen)
                chosen.pop()

    extend(0, n, [])
    return sorted(signatures, key=lambda s: (s.dimension(), s.factors))


def _frobenius(M: np.ndarray) -> np.ndarray:
    """Frobenius norms of a stack of complex matrices (k, m, n), equal bit
    for bit to ``np.linalg.norm`` of each member: that norm adds the dot
    products of the real and of the imaginary parts with themselves, and
    matmul takes a row times a column through the same BLAS dot."""
    flat = np.ascontiguousarray(M, dtype=complex).reshape(len(M), -1)
    real, imag = ((part[:, None, :] @ part[:, :, None])[:, 0, 0]
                  for part in (flat.real, flat.imag))
    return np.sqrt(real + imag)


def _gln_embed(G: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(G^3, G^2) for each matrix of a complex stack G (k, n, n); raises
    ValueError if any member is numerically singular."""
    if G.ndim != 3 or G.shape[1] != G.shape[2]:
        raise ValueError(f"expected square matrices, got shape {G.shape[1:]}")
    sing = np.linalg.svd(G, compute_uv=False)
    if np.any(sing[:, -1] <= DEFAULT_TOL.rel_tol * sing[:, 0]):
        raise ValueError("matrix is numerically singular")
    B = G @ G
    return B @ G, B


def _gln_retract(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """A B^{-1} for each pair of the stacks A and B (k, n, n); raises
    ValueError, with the residual of the first, if any pair does not
    commute at the fixed ``DEFAULT_TOL``."""
    comm = _frobenius(A @ B - B @ A)
    # fmax, like max, keeps the bound 1.0 when the product is nan
    scale = np.fmax(1.0, _frobenius(A) * _frobenius(B))
    bad = np.flatnonzero(comm > DEFAULT_TOL.rel_tol * scale)
    if bad.size:
        raise ValueError(
            f"pair does not commute (residual {comm[bad[0]]:.3e}); not in the "
            "commuting component"
        )
    return A @ np.linalg.inv(B)


def gln_embed(G: np.ndarray) -> RepPair:
    """Embed an invertible matrix as the commuting pair (G^3, G^2); its
    image always satisfies A^2 = B^3 and AB = BA.  A stack of one of
    ``_gln_embed``: ValueError if G is numerically singular."""
    A, B = _gln_embed(np.asarray(G, dtype=complex)[None])
    return RepPair(A[0], B[0], B3)


def gln_retract(V: RepPair) -> np.ndarray:
    """Inverse of the embedding on the commuting component: A B^{-1}.  A
    stack of one of ``_gln_retract``: ValueError if the pair does not
    commute at the fixed ``DEFAULT_TOL``."""
    return _gln_retract(V.A[None], V.B[None])[0]
