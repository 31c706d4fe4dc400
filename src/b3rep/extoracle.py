"""Numerical Hom and Ext dimensions from explicit matrices.

This module is the ground truth the lattice formulas are measured
against: every dimension is the kernel dimension of an explicitly
assembled linear system, decided by singular values against a relative
threshold.

For a domain module V (action written on the right of the unknown) and a
codomain module W, a 1-cocycle is determined by its values (D_X, D_Y) on
the two generators, and the group relation cuts out the cocycle space:

* relation A^2 = B^3 (braid case): one block of equations

      D_X A_V + A_W D_X  =  D_Y B_V^2 + B_W D_Y B_V + B_W^2 D_Y,

* relations A^2 = B^3 = 1 (quotient case): both sides vanish separately,
  giving two independent blocks.

Coboundaries are the image of F -> (A_W F - F A_V, B_W F - F B_V), whose
kernel is exactly the space of intertwiners, so

    dim Ext^1 = dim(cocycles) - (n_V n_W - dim Hom).

Every system comes from one builder, ``_system``, which turns a list of
pairs (P, Q), and optionally a list to subtract, into the matrix of
F -> sum P F Q on F flattened row-major: vec(P F Q) = kron(P, Q^T) vec(F).
The commutant stacks (I_W, A_V) minus (A_W, I_V) over the same with B;
its image is the coboundary space, negated.  The cocycle blocks are
(I_W, A_V) + (A_W, I_V) on D_X and (I_W, B_V^2) + (B_W, B_V) + (B_W^2, I_V)
on D_Y, side by side with D_Y negated (braid) or diagonal (quotient).

The oracles take lists of equal-shape pairs: the builders broadcast over
a leading stack axis (``PairStack``), one stacked SVD gives every
system's singular values, and each system gets its own rank threshold
(``_ranks``, the one rank rule of the package).  Cocycle and commutant
systems are ranked on unit-scaled stacks (``_unit_scaled``), so that no
threshold depends on the moduli of the pairs.  The single-pair functions
are the one-element case.

A pair of blocks (V, W) whose A^2 and B^3 are scalars on each side also
has a reduced cocycle system (``reduced_cocycle_dims_numeric``), self
pairs included.  Split by the eigenspaces of A and of B, it is empty at
distinct scalars (dim Z = n_V n_W), and K x N with K, N <= n_V n_W
(N about n_V n_W / 3) at equal ones, in place of the n_V n_W x 2 n_V n_W
system whose SVD dominates the tangent oracle on large summands.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .constants import B3, GAMMA, OMEGA
from .errors import ToleranceAmbiguity


@dataclass(frozen=True)
class ToleranceConfig:
    """Rank thresholds: singular values above rel_tol * sigma_max count,
    and a matrix whose largest singular value falls below abs_floor is
    the zero map."""

    rel_tol: float = 1e-8
    abs_floor: float = 1e-12

    def __post_init__(self):
        if not (0.0 < self.abs_floor < self.rel_tol < 1.0):
            raise ValueError(
                f"need 0 < abs_floor < rel_tol < 1, got "
                f"abs_floor={self.abs_floor}, rel_tol={self.rel_tol}"
            )


DEFAULT_TOL = ToleranceConfig()


def _ranks(M: np.ndarray, tol: ToleranceConfig) -> tuple[np.ndarray, np.ndarray]:
    """Numerical rank of each matrix of a stack (..., m, n), and its
    ambiguity flag.  Each matrix has its own threshold, rel_tol times its
    largest singular value, and is the zero map when that value falls
    below abs_floor.  Ambiguous means some singular value lies within a
    factor 10 of the threshold, so the rank would move under a modest
    change of tolerance.  An empty matrix has rank 0."""
    if 0 in M.shape[-2:]:
        zeros = np.zeros(M.shape[:-2], dtype=int)
        return zeros, zeros != 0
    sing = np.linalg.svd(M, compute_uv=False)
    threshold = tol.rel_tol * sing[..., :1]
    ranks = (sing > threshold).sum(-1)
    ambiguous = ((sing > threshold / 10.0) & (sing < threshold * 10.0)).any(-1)
    zero = sing[..., 0] < tol.abs_floor
    return np.where(zero, 0, ranks), ambiguous & ~zero


def _checked(ranks, ambiguous):
    """The ranks; raises ToleranceAmbiguity when any decision is flagged."""
    if np.any(ambiguous):
        raise ToleranceAmbiguity(
            "singular value within a factor 10 of the rank threshold; "
            "re-randomize the instances"
        )
    return ranks


def numeric_rank(M: np.ndarray, tol: ToleranceConfig = DEFAULT_TOL) -> int:
    """Numerical rank by singular values."""
    rank, _ = _ranks(np.asarray(M, dtype=complex), tol)
    return int(rank)


def numeric_kernel_dim(M: np.ndarray, tol: ToleranceConfig = DEFAULT_TOL) -> int:
    """Kernel dimension: #columns minus numerical rank.  An empty
    constraint block (0 rows) leaves everything free."""
    return np.shape(M)[1] - numeric_rank(M, tol)


def _kron(P: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """np.kron(P, Q) for matrices, or for each pair of matrices of two
    stacks that broadcast over their leading axes, equal to it bit for
    bit (one product per entry) without its per-call overhead, which
    dominates the many small systems of the oracles."""
    (p0, p1), (q0, q1) = P.shape[-2:], Q.shape[-2:]
    prod = P[..., :, None, :, None] * Q[..., None, :, None, :]
    return prod.reshape(prod.shape[:-4] + (p0 * q0, p1 * q1))


def _system(terms, minus=()) -> np.ndarray:
    """Matrix of F -> sum P F Q - sum P' F Q' over the pairs (P, Q) of
    ``terms`` and (P', Q') of ``minus``, on F flattened row-major: the
    Kronecker products kron(P, Q^T), added and subtracted in order.
    Stacked factors give a stack of systems."""
    (P, Q), *rest = terms
    total = _kron(P, Q.swapaxes(-1, -2))
    for P, Q in rest:
        total = total + _kron(P, Q.swapaxes(-1, -2))
    for P, Q in minus:
        total = total - _kron(P, Q.swapaxes(-1, -2))
    return total


class PairStack:
    """Equal-shape matrix pairs stacked along a leading axis: A and B of
    shape (k, n, n).  The system builders take it wherever they take a
    single pair, and return one system per element."""

    __slots__ = ("A", "B")

    def __init__(self, A: np.ndarray, B: np.ndarray):
        self.A = A
        self.B = B

    @property
    def n(self) -> int:
        return self.A.shape[-1]


def _stacks(pairs, group_kind: str) -> tuple[PairStack, PairStack]:
    """Check the relation kinds of equal-shape (V, W) pairs, then stack
    the domains and the codomains."""
    for V, W in pairs:
        _check_kinds(V, W, group_kind)
    return tuple(PairStack(np.stack([pair[side].A for pair in pairs]),
                           np.stack([pair[side].B for pair in pairs]))
                 for side in (0, 1))


def commutant_matrix(V, W) -> np.ndarray:
    """System whose kernel is {F : F A_V = A_W F, F B_V = B_W F},
    F flattened row-major as an (n_W x n_V) unknown."""
    iv, iw = np.eye(V.n), np.eye(W.n)
    return np.concatenate([_system([(iw, V.A)], [(W.A, iv)]),
                           _system([(iw, V.B)], [(W.B, iv)])], axis=-2)


def hom_dims_numeric(pairs, group_kind: str = B3,
                     tol: ToleranceConfig = DEFAULT_TOL) -> list[int]:
    """Dimension of the intertwiner space Hom(V, W) for each of a list
    of equal-shape pairs (V, W), from the unit-scaled commutant system.

    The linear condition is the same for both relation kinds; the kind
    argument only enforces that quotient-case Hom is asked of matrix
    pairs tagged as satisfying A^2 = B^3 = 1.
    """
    V, W = _stacks(pairs, group_kind)
    ranks, _ = _ranks(commutant_matrix(*_unit_scaled(V, W)), tol)
    return (V.n * W.n - ranks).tolist()


def hom_dim_numeric(V, W, group_kind: str = B3,
                    tol: ToleranceConfig = DEFAULT_TOL) -> int:
    """Dimension of the intertwiner space Hom(V, W)."""
    return hom_dims_numeric([(V, W)], group_kind, tol)[0]


def cocycle_matrix(V, W, group_kind: str) -> np.ndarray:
    """Constraint matrix on the stacked unknowns (D_X, D_Y), each an
    (n_W x n_V) block flattened row-major."""
    iv, iw = np.eye(V.n), np.eye(W.n)
    block_x = _system([(iw, V.A), (W.A, iv)])
    block_y = _system([(iw, V.B @ V.B), (W.B, V.B), (W.B @ W.B, iv)])
    if group_kind == B3:
        return np.concatenate([block_x, -block_y], axis=-1)
    if group_kind == GAMMA:
        zero = np.zeros_like(block_x)
        return np.concatenate([np.concatenate([block_x, zero], axis=-1),
                               np.concatenate([zero, block_y], axis=-1)], axis=-2)
    raise ValueError(f"unknown group kind {group_kind!r}")


def _peak(M: np.ndarray, axis=(-2, -1)) -> np.ndarray:
    """Largest entry modulus of each matrix of a stack (or of each row,
    with axis=-1), 1 for a zero one, kept as an axis so it divides M."""
    peak = np.abs(M).max(axis=axis, keepdims=True)
    return np.where(peak > 0, peak, 1.0)


def _row_defect(X: np.ndarray, Y: np.ndarray) -> float:
    """Largest max|X_i - Y_i| / max(max|X_i|, max|Y_i|) over the rows i:
    the defect of X = Y, each row on its own scale; nan if one overflowed."""
    defect = np.abs(X - Y).max(axis=1)
    scale = np.maximum(np.abs(X).max(axis=1), np.abs(Y).max(axis=1))
    return float((defect / np.where(scale > 0, scale, 1.0)).max())


def _unit_scaled(V: PairStack, W: PairStack) -> tuple[PairStack, PairStack]:
    """The stacks with each element's A factors divided by
    sx = max|A_V| + max|A_W| and its B factors by
    sy = sqrt(b_V^2 + b_W b_V + b_W^2), b = max|B|, taken as a hypot that
    squares no peak.  That divides the cocycle system's D_X and D_Y columns
    by sx and sy^2 and the commutant's A and B rows by sx and sy, which
    keeps both kernels and bounds every group's entries by about 1,
    whatever the moduli of the pairs."""
    b_v, b_w = _peak(V.B), _peak(W.B)
    sx = _peak(V.A) + _peak(W.A)
    sy = np.hypot(b_v + b_w / 2, np.sqrt(0.75) * b_w)
    return PairStack(V.A / sx, V.B / sy), PairStack(W.A / sx, W.B / sy)


def cocycle_dims_numeric(pairs, group_kind: str = B3,
                         tol: ToleranceConfig = DEFAULT_TOL) -> list[int]:
    """Dimension of the cocycle space Z(V, W) for each of a list of
    equal-shape pairs (V, W): the kernel dimension of its cocycle system,
    unit-scaled by ``_unit_scaled`` so that each system's own rank
    threshold holds at any moduli.  All systems go through one stacked
    SVD.

    Raises ToleranceAmbiguity when a singular value of any system falls
    within a factor 10 of that system's rank threshold.
    """
    cocycles = cocycle_matrix(*_unit_scaled(*_stacks(pairs, group_kind)), group_kind)
    return (cocycles.shape[-1] - _checked(*_ranks(cocycles, tol))).tolist()


def cocycle_dim_numeric(V, W, group_kind: str = B3,
                        tol: ToleranceConfig = DEFAULT_TOL) -> int:
    """Dimension of the cocycle space Z(V, W); raises ToleranceAmbiguity
    when the rank threshold is not clean."""
    return cocycle_dims_numeric([(V, W)], group_kind, tol)[0]


def same_scalar(x: complex, y: complex, tol: ToleranceConfig = DEFAULT_TOL) -> bool:
    """Whether two nonzero scalars are equal at rel_tol, scale-free:
    |x - y| <= rel_tol max(|x|, |y|).  Raises ToleranceAmbiguity when
    |x - y| lies within a factor 10 of that threshold, the window in which
    ``_ranks`` flags a singular value."""
    gap, threshold = abs(x - y), tol.rel_tol * max(abs(x), abs(y))
    if threshold / 10.0 < gap < threshold * 10.0:
        raise ToleranceAmbiguity(
            "two scalars within a factor 10 of the equality threshold; "
            "re-randomize the instances"
        )
    return gap <= threshold


def _power_scalar(M: np.ndarray, power: int, tol: ToleranceConfig):
    """c when M^power = c I at rel_tol (by ``_row_defect``), else None."""
    P = M @ M if power == 2 else M @ M @ M
    c = np.trace(P) / len(P)
    return c if _row_defect(P, c * np.eye(len(P))) <= tol.rel_tol else None


def _eigenbases(A: np.ndarray, B: np.ndarray, s: complex, t: complex) -> list:
    """(rows, columns) for the eigenprojectors of A = s(P+ - P-) and of
    B = t(Q_0 + w Q_1 + w^2 Q_2), w = e^(2 pi i/3), in the order P+, P-,
    Q_0, Q_1, Q_2: the rows Vh[:m] and the columns U[:, :m] of the SVD of
    each projector, which span its row and column spaces.  P+- =
    (I +- A/s)/2 and Q_i = (I + M_i + M_i^2)/3 with M_i = B/(t w^i).  The
    nonzero singular values of an idempotent are at least 1, so those of
    size >= 1/2 count its rank m."""
    eye = np.eye(len(A))
    w = OMEGA ** -np.arange(3)[:, None, None]
    M = B / t
    projectors = np.concatenate([(eye + np.array([1, -1])[:, None, None] * (A / s)) / 2,
                                 (eye + w * M + w ** 2 * (M @ M)) / 3])
    u, sing, vh = np.linalg.svd(projectors)
    return [(rows[:m], cols[:, :m]) for rows, cols, m in zip(vh, u, (sing >= 0.5).sum(-1))]


def reduced_cocycle_dims_numeric(pairs, tol: ToleranceConfig = DEFAULT_TOL) -> list[int | None]:
    """Dimension of the braid cocycle space Z(V, W) for each of a list of
    pairs (V, W), self pairs V is W included, from a reduced system; None
    for a pair that needs the full ``cocycle_dims_numeric``: one whose A^2
    or, at equal A^2, whose B^3 is not a scalar at rel_tol, or whose B^3
    scalars differ.

    Each pair is unit-scaled by ``_unit_scaled`` first.  With A^2 = c I
    write A = s(P+ - P-), s^2 = c, P+- = (I +- A/s)/2.  In the splitting
    M = sum P_W^e M P_V^f, X -> X A_V + A_W X multiplies block (e, f) by
    e s_W + f s_V.

    * Distinct c (c_V != c_W, decided by ``same_scalar``): no factor
      vanishes, so D_X is fixed by D_Y and dim Z = n_V n_W, with no system
      to rank.
    * Equal c (take s_V = s_W): D_X is fixed on the (+,+) and (-,-)
      blocks, free on the mixed ones, K = m+_W m-_V + m-_W m+_V dimensions,
      where P^e (D_Y B_V^2 + B_W D_Y B_V + B_W^2 D_Y) P^f = 0 is asked.
      B^3 = c' I as well, so B = t(Q_0 + w Q_1 + w^2 Q_2), w = e^(2 pi i/3),
      and that map multiplies the B-block (i, j) of D_Y by
      t^2 (w^2i + w^(i+j) + w^2j), which is 0 for i != j.  Only the
      diagonal B-blocks Q_i^W D_Y Q_i^V = U_i^W E_i Vh_i^V reach the
      constraints, E_i of shape b_i^W x b_i^V, so with the bases of
      ``_eigenbases`` the rank of the constraints is that of the K x N
      system

          C: (E_i) -> L_e (sum_i U_i^W E_i Vh_i^V) R_f,  (e, f) = (+,-), (-,+),

      N = sum_i b_i^W b_i^V, about n_V n_W / 3, and dim Z = K + n_V n_W - rank C.

    The projectors come from A and B themselves, which need not be normal.
    The systems of one shape go through one stacked SVD, each against its
    own threshold.

    Raises ToleranceAmbiguity when a singular value of any system falls
    within a factor 10 of that system's rank threshold, or two scalars
    within a factor 10 of ``same_scalar``'s.
    """
    dims: list[int | None] = [None] * len(pairs)
    by_shape: dict[tuple[int, int], list] = {}
    for i, (V, W) in enumerate(pairs):
        v, w = _unit_scaled(PairStack(V.A[None], V.B[None]), PairStack(W.A[None], W.B[None]))
        sides = [(v.A[0], v.B[0])] if V is W else [(v.A[0], v.B[0]), (w.A[0], w.B[0])]
        a = [_power_scalar(A, 2, tol) for A, _ in sides]
        if None in a:
            continue
        if not same_scalar(a[0], a[-1], tol):
            dims[i] = V.n * W.n
            continue
        b = [_power_scalar(B, 3, tol) for _, B in sides]
        if None in b or not same_scalar(b[0], b[-1], tol):
            continue
        s, t = np.sqrt(complex(a[0])), complex(b[0]) ** (1 / 3)
        bases = [_eigenbases(A, B, s, t) for A, B in sides]
        (_, r_plus), (_, r_minus), *b_v = bases[0]
        (l_plus, _), (l_minus, _), *b_w = bases[-1]
        system = np.concatenate([
            np.concatenate([_system([(L @ u, vh @ R)]) for (_, u), (vh, _) in zip(b_w, b_v)],
                           axis=-1)
            for L, R in ((l_plus, r_minus), (l_minus, r_plus))])
        by_shape.setdefault(system.shape, []).append((i, system))
    for (k, _), members in by_shape.items():
        indices, systems = zip(*members)
        ranks = _checked(*_ranks(np.stack(systems), tol))
        for i, rank in zip(indices, ranks):
            dims[i] = k + pairs[i][0].n * pairs[i][1].n - int(rank)
    return dims


def _relation_scaled(V: PairStack) -> PairStack:
    """Each element as (A/t^3, B/t^2), t = max(max|A|^(1/3), max|B|^(1/2)):
    entries bounded by 1, and A^2 - B^3 divided by t^6, so the braid
    relation holds or fails on the scale of the element itself."""
    t = np.maximum(np.cbrt(_peak(V.A)), np.sqrt(_peak(V.B)))
    return PairStack(V.A / t ** 3, V.B / t ** 2)


def coboundary_defects_numeric(pairs, group_kind: str = B3,
                               tol: ToleranceConfig = DEFAULT_TOL) -> list[int]:
    """Rank of the cocycle system on the coboundaries, for each of a list
    of equal-shape pairs (V, W): of ``cocycle_matrix @ commutant_matrix``,
    whose columns are the cocycle conditions on the coboundaries
    F -> (F A_V - A_W F, F B_V - B_W F).  It is 0 exactly when every
    coboundary is a cocycle, which needs both pairs to satisfy the
    relation and the two systems to agree on signs and transposes: the
    premise of dim Ext = dim Z - dim B.  For the braid relation each side
    is first rescaled on its own (``_relation_scaled``), so a broken pair
    next to a much larger one keeps its defect at its own scale.  The
    product is divided by (max|A_V| + max|A_W|)^2 + (max|B_V| + max|B_W|)^3,
    which bounds the terms it cancels, so abs_floor tells zero relative
    to them."""
    V, W = _stacks(pairs, group_kind)
    if group_kind == B3:
        V, W = _relation_scaled(V), _relation_scaled(W)
    terms = (_peak(V.A) + _peak(W.A)) ** 2 + (_peak(V.B) + _peak(W.B)) ** 3
    product = cocycle_matrix(V, W, group_kind) @ commutant_matrix(V, W)
    ranks, _ = _ranks(product / terms, tol)
    return ranks.tolist()


def ext_dims_numeric(pairs, group_kind: str = B3,
                     tol: ToleranceConfig = DEFAULT_TOL) -> list[int]:
    """dim Ext^1(V, W) = dim Z - dim B from explicit matrices, for each
    of a list of equal-shape pairs (V, W), with dim Z from
    ``cocycle_dims_numeric`` and dim B = n_V n_W - dim Hom the rank of
    the unit-scaled commutant system.  All systems of one kind go through
    one stacked SVD each.

    Raises ToleranceAmbiguity when a singular value of any system falls
    within a factor 10 of that system's rank threshold.
    """
    z_dims = cocycle_dims_numeric(pairs, group_kind, tol)
    b_dims = _checked(*_ranks(commutant_matrix(*_unit_scaled(*_stacks(pairs, group_kind))), tol))
    return [z - int(b) for z, b in zip(z_dims, b_dims)]


def ext_dim_numeric(V, W, group_kind: str = B3,
                    tol: ToleranceConfig = DEFAULT_TOL) -> int:
    """dim Ext^1(V, W) from explicit matrices; raises ToleranceAmbiguity
    when a rank threshold is not clean."""
    return ext_dims_numeric([(V, W)], group_kind, tol)[0]


def _check_kinds(V, W, group_kind: str) -> None:
    if group_kind == GAMMA:
        for rep in (V, W):
            if rep.relation_kind != GAMMA:
                raise ValueError(
                    "quotient-case computation needs matrix pairs with "
                    f"A^2 = B^3 = 1, got relation kind {rep.relation_kind!r}"
                )
    elif group_kind != B3:
        raise ValueError(f"unknown group kind {group_kind!r}")
