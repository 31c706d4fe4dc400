"""Explicit matrix models: characters, generic simples, rescaling, and
semisimple assembly.

Matrix pairs come in two relation kinds: ``Gamma`` pairs satisfy
A^2 = B^3 = 1, ``B3`` pairs only A^2 = B^3.  A generic simple of a given
dimension vector is built by conjugating the exact eigenvalue diagonals
by independent random unitaries (orthonormalized Gaussian matrices), so
conditioning stays near 1 and numerical ranks are unambiguous.  Every
draw of dimension >= 2 is certified simple by a two-sided spin test in
O(n^3) (``_spin_certified``): one eigenvector of A B and one of its
adjoint must each spin to all of C^n, on the span engine ``_span_dims``.
It is the package's only simplicity test; the tests hold it against the
Burnside word span, the same engine started at the identity.
Draws of one type come in stacks (``random_simples_gamma``), each seeded
on its own, and are certified by two stacked spins, right and left, so
a stack costs a few numpy calls per level instead of a few per draw.
``assemble`` (over many specs at once, ``_assemble``) and the suites draw
every instance they need in one stack per type (``_draw_simples``).

A ``SemisimpleSpec`` is the symbolic side of a semisimple module: an
ordered list of (dimension vector, exact scalar, multiplicity, instance
id) entries.  ``assemble`` realizes it as a block-diagonal pair, with
equal instance ids denoting the same underlying simple block.
"""

from __future__ import annotations

import functools
import hashlib
from dataclasses import dataclass, field

import numpy as np

from .constants import B3, GAMMA, OMEGA
from .errors import (
    GenerationFailed,
    InvalidSpec,
    IsomorphicDistinctEntries,
    NotSimpleDimension,
)
from .extoracle import ABS_FLOOR, DEFAULT_TOL, _peak, _row_defect
from .lattice import (GammaDimVector, HexDimVector, _is_json_int, hex_to_gamma,
                      is_simple_gamma, twist_gamma)
from .scalars import ExactScalar, mu6_exponent

_RETRY_LIMIT = 16


def derived_seed(*parts) -> int:
    """Stable 64-bit seed from a tuple of labels; the branching scheme
    behind all deterministic randomness in the package: the little-endian
    8-byte BLAKE2b digest of the parts' reprs, each followed by a 0x1f
    byte, hashed as one string."""
    text = "".join([repr(part) + "\x1f" for part in parts])
    return int.from_bytes(hashlib.blake2b(text.encode(), digest_size=8).digest(), "little")


@dataclass(eq=False)
class RepPair:
    """A pair of invertible complex matrices with a relation tag."""

    A: np.ndarray
    B: np.ndarray
    relation_kind: str = B3

    def __post_init__(self):
        A, B = _frozen(self.A), _frozen(self.B)
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise ValueError(f"A must be square, got shape {A.shape}")
        if B.shape != A.shape:
            raise ValueError(f"A and B must have equal shape, got {A.shape} vs {B.shape}")
        if self.relation_kind not in (GAMMA, B3):
            raise ValueError(f"unknown relation kind {self.relation_kind!r}")
        self.A = A
        self.B = B

    @property
    def n(self) -> int:
        return self.A.shape[0]


def _readonly(M: np.ndarray) -> np.ndarray:
    """M, a new array, made read-only, so that a RepPair adopts it (or its
    slices) without a copy."""
    M.setflags(write=False)
    return M


def _frozen(M) -> np.ndarray:
    """M as a read-only complex array, adopted without a copy if it is one (C-contiguous)."""
    if not (isinstance(M, np.ndarray) and not M.flags.writeable and M.flags.c_contiguous
            and M.dtype == complex):
        M = _readonly(np.array(M, dtype=complex))
    return M


@dataclass(frozen=True)
class RepValidation:
    """Outcome of a relation check, with the residual norms that led to it."""

    ok: bool
    residuals: dict

    def __bool__(self) -> bool:
        return self.ok


@np.errstate(over="ignore", invalid="ignore")
def validate_rep(V: RepPair, kind: str) -> RepValidation:
    """Check invertibility and the defining relation of the given kind,
    each row on its own scale; returns the verdict with the values that
    decided it, at the fixed 10^-8 of ``DEFAULT_TOL``.  A or B is
    invertible when its singular-value ratio, after each row is divided by
    its largest modulus, exceeds it.  The relation holds when
    ``_row_defect`` of (A^2, B^3) for B3, or of (A^2, I) and (B^3, I) for
    Gamma, is at most it.  The relation products are formed a block of
    rows at a time, an eighth of the rows or 2^12 entries if that is more,
    so A^2 and B^3 are never held whole and take less memory than the
    row-scaled copy of A or B that the singular values need."""
    if kind not in (GAMMA, B3):
        raise ValueError(f"unknown relation kind {kind!r}")
    residuals = {}
    for name, M in (("A", V.A), ("B", V.B)):
        sing = np.linalg.svd(M / _peak(M, axis=-1), compute_uv=False)
        residuals[f"min_singular_ratio_{name}"] = float(sing[-1] / sing[0]) if sing[0] > 0 else 0.0
    invertible = all(ratio > DEFAULT_TOL.rel_tol for ratio in residuals.values())
    names = ("relation_A2", "relation_B3") if kind == GAMMA else ("relation_A2_B3",)
    step = max(-(-V.n // 8), 2 ** 12 // V.n)
    starts = range(0, V.n, step)
    defects = np.empty((len(starts), len(names)))
    for block, start in enumerate(starts):
        rows = slice(start, start + step)
        a2, b3 = V.A[rows] @ V.A, V.B[rows] @ V.B @ V.B
        if kind == GAMMA:
            one = np.eye(len(a2), V.n, start)
            defects[block] = _row_defect(a2, one), _row_defect(b3, one)
        else:
            defects[block] = _row_defect(a2, b3)
    # ndarray.max, unlike max, keeps the nan of an overflowed block
    residuals.update(zip(names, defects.max(axis=0).tolist()))
    ok = invertible and all(residuals[name] <= DEFAULT_TOL.rel_tol for name in names)
    return RepValidation(ok, residuals)


def one_dim_rep(u: int) -> RepPair:
    """The 1 x 1 pair of hexagon vertex u."""
    if not 0 <= u <= 5:
        raise ValueError(f"hexagon index must be in 0..5, got {u}")
    return RepPair(*_diagonals(hex_to_gamma(HexDimVector.basis(u))), GAMMA)


def _diagonals(alpha: GammaDimVector) -> tuple[np.ndarray, np.ndarray]:
    """The exact eigenvalue diagonals of type alpha: A's +1, -1 and B's
    1, w, w^2, each as often as alpha counts it."""
    diag_a = np.diag(np.array([1.0] * alpha.a + [-1.0] * alpha.b, dtype=complex))
    diag_b = np.diag(np.array(
        [1.0] * alpha.x + [OMEGA] * alpha.y + [OMEGA ** 2] * alpha.z, dtype=complex))
    return diag_a, diag_b


def _unitaries(zmat: np.ndarray) -> np.ndarray:
    """Haar-like unitaries from a stack of complex Gaussian matrices
    (..., n, n): one stacked QR with the phase freedom fixed."""
    q, r = np.linalg.qr(zmat)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (d / np.abs(d))[..., None, :]


def _span_dims(A: np.ndarray, B: np.ndarray, X0: np.ndarray) -> np.ndarray:
    """Dimension of span{w X0 : w a word in A, B} (at most n m) for each
    pair of a stack, A and B of shape (k, n, n) and a nonzero X0 of shape
    (k, n, m), or (n, m) for every pair, or for one pair without the
    stack axis, grown one word length at a time by left multiplication.

    Every word of length l + 1 is A w or B w for a word w of length l.
    The words accepted up to length l span all w X0 of length <= l, so
    the left multiples of the words accepted at length l, with the
    shorter ones, span all w X0 of length <= l + 1.  The first basis
    vector is X0 / |X0|.  A level's candidates come from one product with
    A and B stacked, and are projected against the basis of shorter words
    in two BLAS passes.  They are then accepted in order against the
    vectors this level has accepted so far: a candidate counts when its
    norm is at least ``ABS_FLOOR`` and its residual above
    ``DEFAULT_TOL.rel_tol`` times its norm.  The accepted words are the
    next frontier; a span is complete when a level accepts none.

    In a stack every element keeps its own count.  Bases and frontiers
    are padded with zeros to the largest of the stack: a zero word makes
    zero candidates, which fall under ``ABS_FLOOR``, and a zero basis vector
    projects out nothing.  One pair, or a stack of one, takes the same
    steps without the stack axis, whose bookkeeping would cost it up to
    twice the time.
    """
    one = A.shape[:-2] == (1,)
    if one:
        A, B, X0 = A[0], B[0], X0.reshape(X0.shape[-2:])
    n, m = X0.shape[-2:]
    target = n * m
    lead = A.shape[:-2]
    generators = np.concatenate([A, B], axis=-2)[..., None, :, :]
    basis = np.zeros(lead + (target, target), dtype=complex)
    start = X0.reshape(X0.shape[:-2] + (target,))
    basis[..., 0, :] = start / np.sqrt((start.conj() * start).real.sum(-1, keepdims=True))
    count = np.ones(lead, dtype=np.intp)
    low = high = 1
    frontier = X0[..., None, :, :]
    while frontier.shape[-3] and low < target:
        # rows A w_0, B w_0, A w_1, B w_1, ... of each element's words w_i
        cand = (generators @ frontier).reshape(lead + (-1, target))
        old = basis[..., :high, :]
        old_t = old.swapaxes(-1, -2)
        resid = cand - (cand.conj() @ old_t).conj() @ old
        resid -= (resid.conj() @ old_t).conj() @ old
        norms = np.linalg.norm(cand, axis=-1)
        floor = DEFAULT_TOL.rel_tol * norms
        # projecting out this level's vectors can only shrink a residual,
        # so a candidate already under its threshold is rejected here
        live = (norms >= ABS_FLOOR) & (np.linalg.norm(resid, axis=-1) > floor)
        if lead:
            kept = _accept_in_order_stacked(basis, resid, live, floor, count)
            # a column that only other elements kept is a zero word here
            cols = np.flatnonzero(kept.any(axis=0))
            frontier = cand[:, cols] * kept[:, cols, None]
            low, high = int(count.min()), int(count.max())
        else:
            kept = _accept_in_order(basis, resid, live, floor, count)
            frontier = cand[kept]
            low = high = int(count)
        # each element's accepted words, in order, are the next frontier
        frontier = frontier.reshape(lead + (-1, n, m))
    return count[None] if one else count


def _accept_in_order(basis, resid, live, floor, count) -> np.ndarray:
    """The in-level step of ``_span_dims`` for one pair: take the
    live residuals in order, project out the vectors accepted before them
    in this level, and append to the basis (rows below ``count`` filled)
    those still above their floor.  Returns the mask of accepted
    candidates and advances ``count``, a 0-d array."""
    target = len(basis)
    start = top = int(count)
    kept = np.zeros(len(live), dtype=bool)
    for i in np.flatnonzero(live):
        w = resid[i]
        if top > start:
            new = basis[start:top]
            w = w - (new @ w.conj()).conj() @ new
            w = w - (new @ w.conj()).conj() @ new
        norm_w = np.linalg.norm(w)
        if norm_w <= floor[i]:
            continue
        basis[top] = w / norm_w
        top += 1
        kept[i] = True
        if top == target:
            break
    count[...] = top
    return kept


def _accept_in_order_stacked(basis, resid, live, floor, count) -> np.ndarray:
    """``_accept_in_order`` for every element of a stack at once: one
    step per candidate position, each element appending at its own
    count.  An element whose level started above the lowest count also
    projects out some of its older vectors, which the residuals are
    already orthogonal to."""
    target = basis.shape[1]
    kept = np.zeros_like(live)
    start = top = int(count.min())
    open_ = count < target
    for i in np.flatnonzero(live.any(axis=0)):
        act = live[:, i] & open_
        if not act.any():
            continue
        w = resid[:, i, None]
        if top > start:
            new = basis[:, start:top]
            w = w - (w.conj() @ new.swapaxes(1, 2)).conj() @ new
            w = w - (w.conj() @ new.swapaxes(1, 2)).conj() @ new
        norm_w = np.linalg.norm(w, axis=2)
        idx = np.flatnonzero(act & (norm_w[:, 0] > floor[:, i]))
        if idx.size:
            pos = count[idx]
            basis[idx, pos] = w[idx, 0] / norm_w[idx]
            count[idx] = pos + 1
            kept[idx, i] = True
            top = max(top, int(pos.max()) + 1)
            open_ = count < target
    return kept


def _spin_certified(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Whether each pair of a stack (k, n, n) is simple, by a two-sided
    spin test in O(n^3) (Parker's Meat-Axe; Holt & Rees, "Testing modules
    for irreducibility", 1994).

    Take W = A B and its eigenvalue mu farthest from the others, with
    right eigenvector v and left eigenvector u.  When mu is simple, its
    eigenspace is the line of v, so a proper submodule U either holds v
    or has mu as an eigenvalue on the quotient; then U's orthogonal
    complement, invariant under A^H and B^H, holds u.  So the pair is
    simple iff v spins to all of C^n under (A, B) and u under
    (A^H, B^H).  The right spins of the stack go through one
    ``_span_dims`` call and the left spins through another, so a lone
    pair takes the single-pair engine.  At the fixed ``DEFAULT_TOL``, mu
    counts as simple when its gap exceeds sqrt(1e-8) max|W|, which keeps
    the eigenvector error, about eps / gap, far below 1e-8.  A pair
    without such an eigenvalue, such as a doubled simple, is not simple.
    """
    k, n = A.shape[:2]
    W = A @ B
    evals, R = np.linalg.eig(W)
    dist = np.abs(evals[:, :, None] - evals[:, None, :])
    dist[:, np.arange(n), np.arange(n)] = np.inf
    gap = dist.min(axis=2)
    j = gap.argmax(axis=1)
    clear = gap.max(axis=1) > np.sqrt(DEFAULT_TOL.rel_tol) * np.abs(W).max(axis=(1, 2))
    rows = np.arange(k)
    v, u = R[rows, :, j], np.linalg.inv(R)[rows, j].conj()
    right = _span_dims(A, B, v[..., None])
    left = _span_dims(A.conj().swapaxes(1, 2), B.conj().swapaxes(1, 2), u[..., None])
    return clear & (right == n) & (left == n)


@dataclass(eq=False)
class SimpleInstance:
    """A generic simple module of a given type, reproducible from its
    seed, and certified by the spin test when its dimension is >= 2.
    ``attempts`` counts how many draws the certificate rejected plus one."""

    alpha: GammaDimVector
    seed: int
    rep: RepPair
    attempts: int = 1


def random_simples_gamma(alpha: GammaDimVector, seeds) -> list[SimpleInstance]:
    """Generic simple pairs of type alpha, one per seed: exact eigenvalue
    diagonals conjugated by seeded random unitaries, retried (bounded)
    until ``_spin_certified``, at the fixed ``DEFAULT_TOL``, certifies
    them simple, so an instance depends on its type and seed alone.

    Each draw has its own generator, seeded from (alpha, seed, attempt),
    so an instance does not depend on the other seeds of the call.  The
    draws of one attempt go through one stacked QR, one stacked
    conjugation and one stacked certificate (a right and a left spin);
    only the seeds it rejected are drawn again, at the next attempt.
    The stacks are read-only, so each instance's pair holds views of
    them, without a copy.  A 1 x 1 pair is simple as drawn, with nothing
    random in it: every instance of a one-dimensional type shares one
    read-only pair.
    """
    if not is_simple_gamma(alpha):
        raise NotSimpleDimension(f"{alpha} is not a simple dimension vector")
    n = alpha.n
    diag_a, diag_b = _diagonals(alpha)
    seeds = list(seeds)
    if n == 1:
        rep = RepPair(diag_a, diag_b, GAMMA)
        return [SimpleInstance(alpha, seed, rep) for seed in seeds]
    found: dict[int, SimpleInstance] = {}
    pending = list(range(len(seeds)))
    for attempt in range(_RETRY_LIMIT):
        if not pending:
            break
        # per draw: real and imaginary parts of p's Gaussian, then q's
        gauss = np.stack([
            np.random.default_rng(
                derived_seed("simple", alpha.as_tuple(), seeds[i], attempt)
            ).standard_normal((4, n, n))
            for i in pending
        ])
        p, q = _unitaries(gauss[:, 0::2] + 1j * gauss[:, 1::2]).swapaxes(0, 1)
        A = _readonly(p @ diag_a @ p.conj().swapaxes(-1, -2))
        B = _readonly(q @ diag_b @ q.conj().swapaxes(-1, -2))
        simple = _spin_certified(A, B).tolist()
        for i, a, b, ok in zip(pending, A, B, simple):
            if ok:
                found[i] = SimpleInstance(alpha, seeds[i], RepPair(a, b, GAMMA), attempt + 1)
        pending = [i for i, ok in zip(pending, simple) if not ok]
    if pending:
        raise GenerationFailed(
            f"no simple instance of type {alpha} after {_RETRY_LIMIT} attempts; "
            "suspect the simplicity criterion"
        )
    return [found[i] for i in range(len(seeds))]


def random_simple_gamma(alpha: GammaDimVector, seed: int) -> SimpleInstance:
    """Generic simple pair of type alpha: the ``random_simples_gamma``
    of one seed."""
    inst, = random_simples_gamma(alpha, [seed])
    return inst


def _draw_simples(types, seeds) -> list[SimpleInstance]:
    """An instance of types[i] drawn from seeds[i] for each i, in order:
    one stacked ``random_simples_gamma`` per type."""
    by_type: dict[GammaDimVector, list[int]] = {}
    for i, alpha in enumerate(types):
        by_type.setdefault(alpha, []).append(i)
    drawn = [None] * len(types)
    for alpha, idxs in by_type.items():
        for i, inst in zip(idxs, random_simples_gamma(alpha, [seeds[i] for i in idxs])):
            drawn[i] = inst
    return drawn


@functools.lru_cache(maxsize=256)
def _scale_factors(lam: ExactScalar) -> tuple[complex, complex, bool]:
    """(lam^3, lam^2) as complex numbers, from exact powers, and whether
    lam is a sixth root of unity."""
    return complex(lam ** 3), complex(lam ** 2), lam.in_mu6()


def scale_rep(V: RepPair, lam: ExactScalar) -> RepPair:
    """Rescaling action (A, B) -> (lam^3 A, lam^2 B).  Preserves
    A^2 = B^3; the result keeps the Gamma tag only when lam is a sixth
    root of unity.  The products are new read-only arrays, which the
    result holds without a copy."""
    c3, c2, in_mu6 = _scale_factors(lam)
    kind = GAMMA if (V.relation_kind == GAMMA and in_mu6) else B3
    return RepPair(_readonly(c3 * V.A), _readonly(c2 * V.B), kind)


@dataclass(frozen=True)
class SpecEntry:
    """One isotypic summand: ``mult`` copies of the simple obtained by
    rescaling a type-``alpha`` module by ``lam``.  Entries with equal
    instance ids (and equal alpha) share the same underlying simple."""

    alpha: GammaDimVector
    lam: ExactScalar
    mult: int = 1
    instance_id: str = "s0"

    def __post_init__(self):
        if self.mult < 1:
            raise InvalidSpec(f"multiplicity must be >= 1, got {self.mult}")
        if not is_simple_gamma(self.alpha):
            raise InvalidSpec(f"{self.alpha} is not a simple dimension vector")

    @property
    def dim(self) -> int:
        return self.alpha.n

    def to_json(self) -> dict:
        return {
            "alpha": self.alpha.to_json(),
            "lambda": self.lam.to_json(),
            "mult": self.mult,
            "instance": self.instance_id,
        }

    @classmethod
    def from_json(cls, data: dict, default_id: str = "s0") -> "SpecEntry":
        """Parse one entry.  Every shape or type error, and every value
        the fields reject, raises InvalidSpec."""
        if not isinstance(data, dict):
            raise InvalidSpec(f"an entry must be a JSON object, got {data!r}")
        for key in ("alpha", "lambda"):
            if key not in data:
                raise InvalidSpec(f"entry has no {key!r}")
        lam = data["lambda"]
        if not (isinstance(lam, dict)
                and all(_is_scalar_part(lam.get(key)) for key in ("r", "q"))):
            raise InvalidSpec(
                f"'lambda' must be an object with numbers or number strings "
                f"'r' and 'q', got {lam!r}"
            )
        mult = data.get("mult", 1)
        if not _is_json_int(mult):
            raise InvalidSpec(f"'mult' must be an integer, got {mult!r}")
        instance_id = data.get("instance", default_id)
        if not isinstance(instance_id, str):
            raise InvalidSpec(f"'instance' must be a string, got {instance_id!r}")
        try:
            alpha = GammaDimVector.from_json(data["alpha"])
        except ValueError as exc:
            raise InvalidSpec(f"invalid 'alpha': {exc}") from exc
        try:
            scalar = ExactScalar.from_json(lam)
        except (ArithmeticError, ValueError) as exc:
            raise InvalidSpec(f"invalid 'lambda' {lam!r}: {exc}") from exc
        return cls(alpha, scalar, mult, instance_id)


def _is_scalar_part(value) -> bool:
    return isinstance(value, (str, int, float)) and not isinstance(value, bool)


def entries_isomorphic(e1: SpecEntry, e2: SpecEntry) -> bool:
    """Whether two entries denote isomorphic modules.

    Same instance id, same type and exactly equal scalar is isomorphism
    by construction.  One-dimensional modules are determined by their
    type alone, so there the test is twist matching: some k with
    lam1 / lam2 = zeta6^k and twist(alpha1, k) = alpha2.
    """
    if (e1.instance_id == e2.instance_id and e1.alpha == e2.alpha
            and e1.lam == e2.lam):
        return True
    if e1.dim == 1 and e2.dim == 1:
        k = mu6_exponent(e1.lam, e2.lam)
        if k is None:
            return False
        return twist_gamma(e1.alpha, k) == e2.alpha
    return False


@dataclass(frozen=True)
class SemisimpleSpec:
    """Symbolic semisimple module: an ordered tuple of pairwise
    non-isomorphic entries, and the entry indices of each class of equal
    lambda^6, keyed exactly by (modulus, 6 * angle mod 1), in order of
    first appearance.  Entries are isomorphic, or extend each other, only
    inside a class, so every pairwise test reads the classes."""

    entries: tuple[SpecEntry, ...]
    lambda6_classes: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        entries = tuple(self.entries)
        if not entries:
            raise InvalidSpec("spec needs at least one entry")
        classes: dict[tuple, list[int]] = {}
        for i, e in enumerate(entries):
            classes.setdefault((e.lam.r, 6 * e.lam.q % 1), []).append(i)
        clash = min(((i, j) for cls in classes.values()
                     for n, i in enumerate(cls) for j in cls[n + 1:]
                     if entries_isomorphic(entries[i], entries[j])), default=None)
        if clash:
            raise IsomorphicDistinctEntries(
                f"entries {clash[0] + 1} and {clash[1] + 1} are isomorphic; "
                "merge them into one entry's multiplicity"
            )
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "lambda6_classes", tuple(map(tuple, classes.values())))

    @property
    def n(self) -> int:
        return sum(e.mult * e.dim for e in self.entries)

    @property
    def k(self) -> int:
        return len(self.entries)

    def to_json(self) -> dict:
        return {"entries": [e.to_json() for e in self.entries]}

    @classmethod
    def from_json(cls, data: dict) -> "SemisimpleSpec":
        raw = data.get("entries") if isinstance(data, dict) else None
        if not isinstance(raw, list) or not raw:
            raise InvalidSpec("spec JSON must be an object with a nonempty 'entries' list")
        entries = []
        for i, item in enumerate(raw):
            try:
                entries.append(SpecEntry.from_json(item, default_id=f"s{i}"))
            except InvalidSpec as exc:
                raise InvalidSpec(f"entry {i + 1}: {exc}") from exc
        return cls(tuple(entries))


def _block_diag(mats: list[np.ndarray]) -> np.ndarray:
    total = sum(m.shape[0] for m in mats)
    out = np.zeros((total, total), dtype=complex)
    pos = 0
    for m in mats:
        k = m.shape[0]
        out[pos:pos + k, pos:pos + k] = m
        pos += k
    return _readonly(out)


def assemble(spec: SemisimpleSpec, seed: int = 0) -> RepPair:
    """Block-diagonal realization of a spec: for each entry, ``mult``
    identical copies of the rescaled simple block, in entry order.
    Equal instance ids (and types) reuse the same underlying block, drawn
    from ``derived_seed("assemble", seed, instance_id)`` and certified at
    ``DEFAULT_TOL``.  The stack of one of ``_assemble``."""
    return _assemble([spec], [seed])[0]


def _assemble(specs, seeds) -> list[RepPair]:
    """``assemble`` of each spec at its seed, all instances drawn in one
    ``_draw_simples``: a draw depends on its type and seed alone, so each
    pair is its lone assembly, bit for bit."""
    keys = [list(dict.fromkeys((e.alpha, e.instance_id) for e in spec.entries)) for spec in specs]
    drawn = iter(_draw_simples(
        [alpha for point in keys for alpha, _ in point],
        [derived_seed("assemble", seed, instance_id)
         for point, seed in zip(keys, seeds) for _, instance_id in point]))
    reps = []
    for spec, point in zip(specs, keys):
        # zip takes from drawn only while the point has keys left
        instances = dict(zip(point, drawn))
        scaled = [(scale_rep(instances[e.alpha, e.instance_id].rep, e.lam), e.mult)
                  for e in spec.entries]
        reps.append(RepPair(_block_diag([v.A for v, mult in scaled for _ in range(mult)]),
                            _block_diag([v.B for v, mult in scaled for _ in range(mult)]), B3))
    return reps
