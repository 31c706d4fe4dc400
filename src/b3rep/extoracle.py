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

The diagonal blocks of pairs have their own route, ``block_cocycle_dims``:
the cocycle dimensions of the ordered pairs of blocks of each of many
pairs, self pairs included.  Each block whose A^2 and B^3 are scalars is
analysed once; split by the eigenspaces of A and of B, a pair of such
blocks has no system at distinct scalars (dim Z = n_V n_W, counted) and
a K x N one with K, N <= n_V n_W (N about n_V n_W / 3) at equal ones, in
place of the n_V n_W x 2 n_V n_W system.  Only a block whose A^2 or B^3
is not scalar, such as dense input of mixed lambda^6, takes the full
system.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .constants import B3, GAMMA, OMEGA
from .errors import ToleranceAmbiguity


#: Absolute floor of the rank decisions: a matrix whose largest singular
#: value falls below it is the zero map, and a vector shorter than it is
#: zero.
ABS_FLOOR = 1e-12


@dataclass(frozen=True)
class ToleranceConfig:
    """Rank threshold: singular values above rel_tol * sigma_max count.
    rel_tol lies strictly between ``ABS_FLOOR`` and 1."""

    rel_tol: float = 1e-8

    def __post_init__(self):
        if not (ABS_FLOOR < self.rel_tol < 1.0):
            raise ValueError(
                f"need 0 < abs_floor < rel_tol < 1, got "
                f"abs_floor={ABS_FLOOR}, rel_tol={self.rel_tol}"
            )


DEFAULT_TOL = ToleranceConfig()


def _ranks(M: np.ndarray, tol: ToleranceConfig) -> tuple[np.ndarray, np.ndarray]:
    """Numerical rank of each matrix of a stack (..., m, n), and its
    ambiguity flag.  Each matrix has its own threshold, rel_tol times its
    largest singular value, and is the zero map when that value falls
    below ``ABS_FLOOR``.  Ambiguous means some singular value lies within a
    factor 10 of the threshold, so the rank would move under a modest
    change of tolerance.  An empty matrix has rank 0."""
    if 0 in M.shape[-2:]:
        zeros = np.zeros(M.shape[:-2], dtype=int)
        return zeros, zeros != 0
    sing = np.linalg.svd(M, compute_uv=False)
    top = sing[..., :1]
    ranks = (sing > tol.rel_tol * top).sum(-1)
    # the bounds scale rel_tol first, so that at rel_tol = 0.1 the upper one
    # is exactly sigma_max, which is not flagged, nor a value tied with it
    ambiguous = ((sing > tol.rel_tol / 10 * top) & (sing < tol.rel_tol * 10 * top)).any(-1)
    zero = sing[..., 0] < ABS_FLOOR
    return np.where(zero, 0, ranks), ambiguous & ~zero


_RANK_AMBIGUITY = ("singular value within a factor 10 of the rank threshold; "
                   "re-randomize the instances")


def _checked(values, ambiguous):
    """The values (ranks or dimensions); raises ToleranceAmbiguity when
    any rank decision behind them is flagged."""
    if np.any(ambiguous):
        raise ToleranceAmbiguity(_RANK_AMBIGUITY)
    return values


def numeric_rank(M: np.ndarray, tol: ToleranceConfig = DEFAULT_TOL) -> int:
    """Numerical rank by singular values."""
    rank, _ = _ranks(np.asarray(M, dtype=complex), tol)
    return int(rank)


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
    return tuple(PairStack(np.array([pair[side].A for pair in pairs]),
                           np.array([pair[side].B for pair in pairs]))
                 for side in (0, 1))


def commutant_matrix(V, W) -> np.ndarray:
    """System whose kernel is {F : F A_V = A_W F, F B_V = B_W F},
    F flattened row-major as an (n_W x n_V) unknown."""
    iv, iw = np.eye(V.n), np.eye(W.n)
    return np.concatenate([_system([(iw, V.A)], [(W.A, iv)]),
                           _system([(iw, V.B)], [(W.B, iv)])], axis=-2)


def _hom_dims(pairs, group_kind: str,
              tol: ToleranceConfig) -> tuple[np.ndarray, np.ndarray]:
    """``hom_dims_numeric`` with each system's ambiguity flag; the pairs
    are checked against ``group_kind``."""
    V, W = _stacks(pairs, group_kind)
    ranks, ambiguous = _ranks(commutant_matrix(*_unit_scaled(V, W)), tol)
    return V.n * W.n - ranks, ambiguous


def hom_dims_numeric(pairs, tol: ToleranceConfig = DEFAULT_TOL) -> list[int]:
    """Dimension of the intertwiner space Hom(V, W) for each of a list
    of equal-shape pairs (V, W), from the unit-scaled commutant system.
    The linear condition is the same for both relation kinds, so it
    takes pairs of either.

    Raises ToleranceAmbiguity when a singular value of any system falls
    within a factor 10 of that system's rank threshold.
    """
    return _checked(*_hom_dims(pairs, B3, tol)).tolist()


def hom_dim_numeric(V, W, tol: ToleranceConfig = DEFAULT_TOL) -> int:
    """Dimension of the intertwiner space Hom(V, W); raises
    ToleranceAmbiguity when a rank threshold is not clean."""
    return hom_dims_numeric([(V, W)], tol)[0]


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


def _row_defect(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Largest max|X_i - Y_i| / max(max|X_i|, max|Y_i|) over the rows i:
    the defect of X = Y, each row on its own scale, for each matrix of a
    stack (..., m, n); nan if a row overflowed."""
    defect = np.abs(X - Y).max(axis=-1)
    scale = np.maximum(np.abs(X).max(axis=-1), np.abs(Y).max(axis=-1))
    return (defect / np.where(scale > 0, scale, 1.0)).max(axis=-1)


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


def scalar_groups(c, t) -> list[list[int]]:
    """Indices of the nonzero values c_i t_i^6 (t_i > 0) in groups of equal
    values, in order of first appearance: each value joins the first group
    whose first member it equals.  x and y are equal when |x - y| <=
    10^-8 max(|x|, |y|) (``DEFAULT_TOL``), scale-free; c_i t_i^6 and
    c_j t_j^6 are compared as c_i (t_i / t_j)^6 and c_j for t_i <= t_j, so
    no sixth power of a large or small t is formed (t = 1 compares plain
    scalars).  Raises ToleranceAmbiguity when |x - y| lies within a factor
    10 of the threshold, as ``_ranks`` flags a singular value."""
    c, t = np.asarray(c).tolist(), np.asarray(t).tolist()
    groups: list[list[int]] = []
    for i, (ci, ti) in enumerate(zip(c, t)):
        for group in groups:
            cj, tj = c[group[0]], t[group[0]]
            x, y = (ci * (ti / tj) ** 6, cj) if ti <= tj else (ci, cj * (tj / ti) ** 6)
            gap, threshold = abs(x - y), DEFAULT_TOL.rel_tol * max(abs(x), abs(y))
            if threshold / 10.0 < gap < threshold * 10.0:
                raise ToleranceAmbiguity(
                    "two scalars within a factor 10 of the equality threshold; "
                    "re-randomize the instances"
                )
            if gap <= threshold:
                group.append(i)
                break
        else:
            groups.append([i])
    return groups


def _relation_scaled(V: PairStack) -> tuple[PairStack, np.ndarray]:
    """Each element as (A/t^3, B/t^2), t = max(max|A|^(1/3), max|B|^(1/2)),
    and t: entries bounded by 1, and A^2 - B^3 divided by t^6, so the
    braid relation holds or fails on the scale of the element itself."""
    t = np.maximum(np.cbrt(_peak(V.A)), np.sqrt(_peak(V.B)))
    return PairStack(V.A / t ** 3, V.B / t ** 2), t


#: The eigenprojectors P+, P-, Q_0, Q_1, Q_2 of a pair with A^2 = B^3 = I
#: as combinations of I, A, B and B^2: P+- = (I +- A)/2 and
#: Q_i = (I + w^-i B + w^-2i B^2)/3, w = e^(2 pi i/3).
_PROJECTORS = np.array([[1 / 2, 1 / 2, 0, 0], [1 / 2, -1 / 2, 0, 0],
                        *[[1 / 3, 0, OMEGA ** -i / 3, OMEGA ** (-2 * i) / 3] for i in range(3)]])


def _kron_factors(A: np.ndarray, B: np.ndarray):
    """For a stack of blocks (k, d, d) with A^2 = B^3 = I: G = (L_e U_i)
    and H = ((Vh_i R_f)^T) of ``block_cocycle_dims``, the labels e of their
    rows and i of their columns, and the ranks (m+, m-, b_0, b_1, b_2) of
    the eigenprojectors (``_PROJECTORS``) of each block, whose bases are
    zero-padded to the widest of the stack."""
    k, d = A.shape[:2]
    powers = np.stack([A, B, B @ B], axis=1).reshape(k, 3, d * d)
    u, sing, vh = np.linalg.svd((_PROJECTORS[:, 1:] @ powers).reshape(k, 5, d, d)
                                + _PROJECTORS[:, :1, None] * np.eye(d))
    ranks = (sing >= 0.5).sum(-1)
    keep = np.arange(d) < ranks[..., None]
    rows, cols = vh * keep[..., None], u * keep[..., None, :]
    # the projector and the position of each basis vector, padded
    j, pos = np.nonzero(np.arange(d) < ranks.max(0)[:, None])
    e, r, i, c = j[j < 2], pos[j < 2], j[j >= 2] - 2, pos[j >= 2]
    G = (rows[:, :2, None] @ cols[:, None, 2:])[:, e[:, None], i, r[:, None], c]
    H = (rows[:, None, 2:] @ cols[:, :2, None])[:, e[:, None], i, c, r[:, None]]
    return G, H, e, i, ranks


def _equal_pairs(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The index pairs (i, j) with a[i] == b[j], in the order of
    np.nonzero(a[:, None] == b), in memory linear in the pairs."""
    order = np.argsort(b, kind="stable")
    lo, hi = (np.searchsorted(b[order], a, side) for side in ("left", "right"))
    i = np.repeat(np.arange(len(a)), hi - lo)
    return i, order[np.arange(len(i)) - (np.cumsum(hi - lo) - hi)[i]]


def block_cocycle_dims(blocks, owners, tol: ToleranceConfig = DEFAULT_TOL):
    """Braid cocycle dimensions dim Z(V_i -> V_j) of a list of blocks
    (matrix pairs of any sizes), each labelled by its owner (0, 1, ...,
    nondecreasing) and paired only with the blocks of its owner, itself
    included: (i, j, z) of the pairs it computes, every other pair having
    n_V n_W, and why each owner's values are unclear ('' if clean): a
    singular value within a factor 10 of its system's rank threshold, or
    two scalars within a factor 10 of ``scalar_groups``'s.

    On a block with A^2 = B^3 = c I write A = s(P+ - P-), s^2 = c, and
    B = t(Q_0 + w Q_1 + w^2 Q_2), t^3 = c, w = e^(2 pi i/3).  In the
    splitting M = sum P_W^e M P_V^f, X -> X A_V + A_W X multiplies block
    (e, f) by e s_W + f s_V.  At distinct c no factor vanishes, D_X is
    fixed by D_Y, and dim Z = n_V n_W.  At equal c (s_V = s_W, t_V = t_W)
    D_X is free on the K = m+_W m-_V + m-_W m+_V mixed dimensions, where
    P^e (D_Y B_V^2 + B_W D_Y B_V + B_W^2 D_Y) P^f = 0 is asked.  That map
    kills the B-blocks Q_i^W D_Y Q_j^V with i != j, so with
    Q_i^W D_Y Q_i^V = U_i^W E_i Vh_i^V the constraints have the rank of the
    K x N system C: (E_i) -> L_e (sum_i U_i^W E_i Vh_i^V) R_f, e != f,
    N = sum_i b_i^W b_i^V (about n_V n_W / 3), and
    dim Z = K + n_V n_W - rank C.  The rows L_e, Vh_i and the columns R_f,
    U_i span the row and column spaces of the eigenprojectors: their
    leading singular vectors, counted by the singular values >= 1/2 (those
    of an idempotent are 0 or at least 1).

    Each block is relation-scaled (``_relation_scaled``) and analysed
    once, in one stack per size of all owners: its scalar check and its
    eigenprojector bases, from one stacked SVD.  Each owner's blocks are
    grouped by c (``scalar_groups``), and a block takes the roots s and t
    of its group's first member, carried to its own scale, so that the
    labels of the projectors agree.  The system of a pair is a set of
    entries of kron(G_W, H_V), G = (L_e U_i) and H = ((Vh_i R_f)^T), each
    projector's basis zero-padded to the widest of its size, which keeps
    the rank: one gather per group and sizes (n_W, n_V), and one
    ``_ranks`` call per shape of all owners, each system against its own
    threshold.  The projectors come from A and B themselves, which need
    not be normal.

    A block on which A^2 or B^3 is not c I (``_row_defect`` above
    ``DEFAULT_TOL``, as in ``scalar_groups``: ``tol`` sets rank thresholds
    only), c the scalar of A^2, is paired with every block of its owner
    on the full system (``cocycle_dims_numeric``).
    """
    k = len(blocks)
    owners = np.asarray(owners)
    reasons = [""] * int(np.max(owners, initial=-1) + 1)
    by_size: dict[int, list[int]] = {}
    for i, block in enumerate(blocks):
        by_size.setdefault(block.n, []).append(i)
    c, t, scale = np.empty(k, complex), np.empty(k, complex), np.empty(k)
    scalar = np.empty(k, dtype=bool)
    scaled = {}
    for d, members in by_size.items():
        V, tau = _relation_scaled(PairStack(np.stack([blocks[i].A for i in members]),
                                            np.stack([blocks[i].B for i in members])))
        powers = np.stack([V.A @ V.A, V.B @ V.B @ V.B], axis=1)
        ca, cb = np.trace(powers, axis1=-2, axis2=-1).T / d
        scalar[members] = ((_row_defect(powers, ca[:, None, None, None] * np.eye(d))
                            <= DEFAULT_TOL.rel_tol).all(-1) & (np.abs(ca) > ABS_FLOOR))
        c[members], t[members], scale[members], scaled[d] = ca, cb ** (1 / 3), tau.ravel(), V
    # the roots s of c and t of each group's first member, carried to the
    # scale of each member: one labelling of the eigenvalues for the group;
    # the blocks of an owner whose scalars are ambiguous get no group
    found = np.flatnonzero(scalar)
    by_owner = np.split(found, np.searchsorted(owners[found], np.arange(1, len(reasons))))
    group, first, labels = np.full(k, -1), np.arange(k), itertools.count()
    for o, own in enumerate(by_owner):
        try:
            for members in scalar_groups(c[own], scale[own]):
                group[own[members]], first[own[members]] = next(labels), own[members[0]]
        except ToleranceAmbiguity as exc:
            group[own], reasons[o] = -1, str(exc)
    rel = scale[first] / scale
    s, t = np.sqrt(c[first]) * rel ** 3, t[first] * rel ** 2
    # per size: the factors of every block with a group
    sides = {}
    for d, members in by_size.items():
        inside = group[members] >= 0
        members = np.array(members)[inside]
        if len(members):
            sides[d] = (members, *_kron_factors(scaled[d].A[inside] / s[members, None, None],
                                                scaled[d].B[inside] / t[members, None, None]))
    # (i, j, dim Z, ambiguous) of each stack of pairs
    computed = [(np.zeros(0, int),) * 3 + (np.zeros(0, bool),)]
    # the systems of every pair of one group and of sizes (n_W, n_V), in one gather
    by_shape: dict[tuple[int, int], list] = {}
    for n_v, (v_members, _, H, f, i_v, ranks_v) in sides.items():
        for n_w, (w_members, G, _, e, i_w, ranks_w) in sides.items():
            pv, pw = _equal_pairs(group[v_members], group[w_members])
            if not len(pv):
                continue
            gv, gw = v_members[pv], w_members[pw]
            # K free entries of D_X and the n_V n_W of D_Y, less the rank of C
            free = ranks_w[pw, 0] * ranks_v[pv, 1] + ranks_w[pw, 1] * ranks_v[pv, 0] + n_v * n_w
            # rows (a, b) of kron(G_W, H_V) with e_a != f_b, columns with
            # i_a = i_b; a system without either has rank 0
            row_w, row_v = np.nonzero(e[:, None] != f[None, :])
            col_w, col_v = np.nonzero(i_w[:, None] == i_v[None, :])
            system = (G[pw[:, None, None], row_w[:, None], col_w]
                      * H[pv[:, None, None], row_v[:, None], col_v])
            by_shape.setdefault(system.shape[1:], []).append((gv, gw, free, system))
    for members in by_shape.values():
        gv, gw, free, systems = (np.concatenate(part) if len(part) > 1 else part[0]
                                 for part in zip(*members))
        ranks, ambiguous = _ranks(systems, tol)
        computed.append((gv, gw, free - ranks, ambiguous))
    # blocks without scalar A^2 = B^3: the full system against every block
    # of their owner, one stack per owner and pair of sizes
    # (np.unique would import numpy.ma, 20 ms on a cold start)
    for o in dict.fromkeys(owners[~scalar].tolist()):
        part, by_sizes = np.flatnonzero(owners == o), {}
        for i, j in part[np.argwhere(~scalar[part, None] | ~scalar[part])].tolist():
            by_sizes.setdefault((blocks[i].n, blocks[j].n), []).append((i, j))
        try:
            for pairs in by_sizes.values():
                got = cocycle_dims_numeric([(blocks[i], blocks[j]) for i, j in pairs], B3, tol)
                computed.append((*np.array(pairs).T, got, np.zeros(len(got), bool)))
        except ToleranceAmbiguity as exc:
            reasons[o] = reasons[o] or str(exc)
    i, j, z, ambiguous = (np.concatenate(part) for part in zip(*computed))
    for o in set(owners[i[ambiguous]].tolist()):
        reasons[o] = reasons[o] or _RANK_AMBIGUITY
    return i, j, z, reasons


def _coboundary_defects(pairs, group_kind: str,
                        tol: ToleranceConfig) -> tuple[np.ndarray, np.ndarray]:
    """``coboundary_defects_numeric`` with each system's ambiguity flag."""
    V, W = _stacks(pairs, group_kind)
    if group_kind == B3:
        (V, _), (W, _) = _relation_scaled(V), _relation_scaled(W)
    terms = (_peak(V.A) + _peak(W.A)) ** 2 + (_peak(V.B) + _peak(W.B)) ** 3
    product = cocycle_matrix(V, W, group_kind) @ commutant_matrix(V, W)
    return _ranks(product / terms, tol)


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
    which bounds the terms it cancels, so ``ABS_FLOOR`` tells zero
    relative to them.  It does not raise on an ambiguous rank decision:
    it is the rank of a defect, and no formula uses it."""
    ranks, _ = _coboundary_defects(pairs, group_kind, tol)
    return ranks.tolist()


def _ext_dims(pairs, group_kind: str,
              tol: ToleranceConfig) -> tuple[np.ndarray, np.ndarray]:
    """dim Ext^1 of each of a list of equal-shape pairs, and its ambiguity
    flag: the pairs are stacked and unit-scaled once for both systems,
    the cocycle system (dim Z, of its 2 n_V n_W columns) and the
    commutant (dim B, its rank)."""
    V, W = _unit_scaled(*_stacks(pairs, group_kind))
    z_ranks, z_ambiguous = _ranks(cocycle_matrix(V, W, group_kind), tol)
    b_ranks, b_ambiguous = _ranks(commutant_matrix(V, W), tol)
    return 2 * V.n * W.n - z_ranks - b_ranks, z_ambiguous | b_ambiguous


def ext_dims_numeric(pairs, group_kind: str = B3,
                     tol: ToleranceConfig = DEFAULT_TOL) -> list[int]:
    """dim Ext^1(V, W) = dim Z - dim B from explicit matrices, for each
    of a list of equal-shape pairs (V, W), with dim Z the kernel
    dimension of the cocycle system (as ``cocycle_dims_numeric``) and
    dim B = n_V n_W - dim Hom the rank of the commutant system, both on
    the same unit-scaled stacks.  All systems of one kind go through one
    stacked SVD each.

    Raises ToleranceAmbiguity when a singular value of any system falls
    within a factor 10 of that system's rank threshold.
    """
    return _checked(*_ext_dims(pairs, group_kind, tol)).tolist()


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
