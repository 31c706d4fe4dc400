"""Explicit matrix models: characters, generic simples, rescaling, and
semisimple assembly.

Matrix pairs come in two relation kinds: ``Gamma`` pairs satisfy
A^2 = B^3 = 1, ``B3`` pairs only A^2 = B^3.  A generic simple of a given
dimension vector is built by conjugating the exact eigenvalue diagonals
by independent random unitaries (orthonormalized Gaussian matrices), so
conditioning stays near 1 and numerical ranks are unambiguous;
simplicity is then certified by the Burnside span test, which grows the
word span of {A, B} one word length at a time, by left multiplication
only, and asks for the full matrix algebra.  Draws of one type come in
stacks (``random_simples_gamma``), each seeded on its own, so a stack
costs a few numpy calls per level instead of a few per draw.

A ``SemisimpleSpec`` is the symbolic side of a semisimple module: an
ordered list of (dimension vector, exact scalar, multiplicity, instance
id) entries.  ``assemble`` realizes it as a block-diagonal pair, with
equal instance ids denoting the same underlying simple block.
"""

from __future__ import annotations

import functools
import hashlib
from dataclasses import dataclass

import numpy as np

from .constants import B3, GAMMA, OMEGA
from .errors import GenerationFailed, InvalidSpec, IsomorphicDistinctEntries, NotSimpleDimension
from .extoracle import DEFAULT_TOL, ToleranceConfig
from .lattice import GammaDimVector, _is_json_int, is_simple_gamma, twist_gamma
from .scalars import ExactScalar, mu6_exponent

#: (rho, tau) scalar pairs of the six characters, in hexagon vertex order.
ONE_DIM_CHARACTERS = (
    (1.0 + 0j, 1.0 + 0j),
    (-1.0 + 0j, OMEGA),
    (1.0 + 0j, OMEGA ** 2),
    (-1.0 + 0j, 1.0 + 0j),
    (1.0 + 0j, OMEGA),
    (-1.0 + 0j, OMEGA ** 2),
)

_RETRY_LIMIT = 16


def derived_seed(*parts) -> int:
    """Stable 64-bit seed from a tuple of labels; the branching scheme
    behind all deterministic randomness in the package."""
    h = hashlib.blake2b(digest_size=8)
    for part in parts:
        h.update(repr(part).encode())
        h.update(b"\x1f")
    return int.from_bytes(h.digest(), "little")


@dataclass(eq=False)
class RepPair:
    """A pair of invertible complex matrices with a relation tag."""

    A: np.ndarray
    B: np.ndarray
    relation_kind: str = B3

    def __post_init__(self):
        A = np.array(self.A, dtype=complex)
        B = np.array(self.B, dtype=complex)
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise ValueError(f"A must be square, got shape {A.shape}")
        if B.shape != A.shape:
            raise ValueError(f"A and B must have equal shape, got {A.shape} vs {B.shape}")
        if self.relation_kind not in (GAMMA, B3):
            raise ValueError(f"unknown relation kind {self.relation_kind!r}")
        A.setflags(write=False)
        B.setflags(write=False)
        self.A = A
        self.B = B

    @property
    def n(self) -> int:
        return self.A.shape[0]

    def to_json(self) -> dict:
        def encode(M):
            return [[[float(v.real), float(v.imag)] for v in row] for row in M]
        return {
            "n": self.n,
            "relation": self.relation_kind,
            "A": encode(self.A),
            "B": encode(self.B),
        }

    @classmethod
    def from_json(cls, data: dict) -> "RepPair":
        def decode(rows):
            return np.array(
                [[complex(re, im) for re, im in row] for row in rows], dtype=complex
            )
        return cls(decode(data["A"]), decode(data["B"]), data["relation"])


@dataclass(frozen=True)
class RepValidation:
    """Outcome of a relation check, with the residual norms that led to it."""

    ok: bool
    kind: str
    residuals: dict

    def __bool__(self) -> bool:
        return self.ok


@np.errstate(over="ignore", invalid="ignore")
def validate_rep(V: RepPair, kind: str, tol: ToleranceConfig = DEFAULT_TOL) -> RepValidation:
    """Check invertibility and the defining relation of the given kind
    at tolerance; returns the verdict together with residual norms.  A
    residual or scale that overflowed certifies nothing, so it fails."""
    residuals = {}
    invertible = True
    for name, M in (("A", V.A), ("B", V.B)):
        sing = np.linalg.svd(M, compute_uv=False)
        ratio = float(sing[-1] / sing[0]) if sing[0] > 0 else 0.0
        residuals[f"min_singular_ratio_{name}"] = ratio
        if ratio <= tol.rel_tol:
            invertible = False
    a2 = V.A @ V.A
    b3 = V.B @ V.B @ V.B
    eye = np.eye(V.n)
    if kind == GAMMA:
        res_a = float(np.linalg.norm(a2 - eye))
        res_b = float(np.linalg.norm(b3 - eye))
        residuals["relation_A2"] = res_a
        residuals["relation_B3"] = res_b
        ok = invertible and res_a <= tol.rel_tol * V.n and res_b <= tol.rel_tol * V.n
    elif kind == B3:
        res = float(np.linalg.norm(a2 - b3))
        scale = max(float(np.linalg.norm(a2)), float(np.linalg.norm(b3)))
        residuals["relation_A2_B3"] = res
        # false for a nan residual, and for an infinite scale
        ok = invertible and res <= tol.rel_tol * scale < np.inf
    else:
        raise ValueError(f"unknown relation kind {kind!r}")
    return RepValidation(ok, kind, residuals)


def one_dim_rep(u: int) -> RepPair:
    """The 1 x 1 pair of hexagon vertex u."""
    if not 0 <= u <= 5:
        raise ValueError(f"hexagon index must be in 0..5, got {u}")
    rho, tau = ONE_DIM_CHARACTERS[u]
    return RepPair(np.array([[rho]]), np.array([[tau]]), GAMMA)


def _unitaries(zmat: np.ndarray) -> np.ndarray:
    """Haar-like unitaries from a stack of complex Gaussian matrices
    (..., n, n): one stacked QR with the phase freedom fixed."""
    q, r = np.linalg.qr(zmat)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (d / np.abs(d))[..., None, :]


def _random_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-like unitary, deterministic given the generator state."""
    return _unitaries(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))


def word_span_dims(A: np.ndarray, B: np.ndarray,
                   tol: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """Dimension of the linear span of all words in {A, B} (at most n^2)
    for each pair of a stack, A and B of shape (k, n, n), or for one pair
    of shape (n, n), grown one word length at a time by left
    multiplication.

    Every word of length l + 1 is A w or B w for a word w of length l.
    The words accepted up to length l span all words of length <= l, so
    the left multiples of the words accepted at length l, with the
    shorter ones, span all words of length <= l + 1.  A level's
    candidates come from one product with A and B stacked, and are
    projected against the basis of shorter words in two BLAS passes.
    They are then accepted in order against the vectors this level has
    accepted so far: a candidate counts when its norm is at least
    abs_floor and its residual above rel_tol times its norm.  The
    accepted words are the next frontier; a span is complete when a
    level accepts none.

    In a stack every element keeps its own count.  Bases and frontiers
    are padded with zeros to the largest of the stack: a zero word makes
    zero candidates, which fall under abs_floor, and a zero basis vector
    projects out nothing.  One pair, or a stack of one, takes the same
    steps without the stack axis, whose bookkeeping would cost it up to
    twice the time.
    """
    one = A.shape[:-2] == (1,)
    if one:
        A, B = A[0], B[0]
    n = A.shape[-1]
    target = n * n
    lead = A.shape[:-2]
    generators = np.concatenate([A, B], axis=-2)[..., None, :, :]
    basis = np.zeros(lead + (target, target), dtype=complex)
    basis[..., 0, :] = np.eye(n).reshape(-1) / np.sqrt(n)
    count = np.ones(lead, dtype=np.intp)
    low = high = 1
    frontier = np.eye(n, dtype=complex)[None]
    while frontier.shape[-3] and low < target:
        # rows A w_0, B w_0, A w_1, B w_1, ... of each element's words w_i
        cand = (generators @ frontier).reshape(lead + (-1, target))
        old = basis[..., :high, :]
        old_t = old.swapaxes(-1, -2)
        resid = cand - (cand.conj() @ old_t).conj() @ old
        resid -= (resid.conj() @ old_t).conj() @ old
        norms = np.linalg.norm(cand, axis=-1)
        floor = tol.rel_tol * norms
        # projecting out this level's vectors can only shrink a residual,
        # so a candidate already under its threshold is rejected here
        live = (norms >= tol.abs_floor) & (np.linalg.norm(resid, axis=-1) > floor)
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
        frontier = frontier.reshape(lead + (-1, n, n))
    return count[None] if one else count


def _accept_in_order(basis, resid, live, floor, count) -> np.ndarray:
    """The in-level step of ``word_span_dims`` for one pair: take the
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


def word_span_dim(V: RepPair, tol: ToleranceConfig = DEFAULT_TOL) -> int:
    """Dimension of the linear span of all words in {A, B}: the
    ``word_span_dims`` of one pair."""
    return int(word_span_dims(V.A, V.B, tol))


def burnside_simple(V: RepPair, tol: ToleranceConfig = DEFAULT_TOL) -> bool:
    """Burnside test: the module is simple iff words in A, B span the
    full n x n matrix algebra."""
    return word_span_dim(V, tol) == V.n * V.n


@dataclass(eq=False)
class SimpleInstance:
    """A generic simple module of a given type, certified by the
    Burnside test and reproducible from its seed.  ``attempts`` counts
    how many draws the Burnside test rejected plus one."""

    alpha: GammaDimVector
    seed: int
    rep: RepPair
    instance_id: str
    attempts: int = 1


def random_simples_gamma(alpha: GammaDimVector, seeds,
                         tol: ToleranceConfig = DEFAULT_TOL) -> list[SimpleInstance]:
    """Generic simple pairs of type alpha, one per seed: exact eigenvalue
    diagonals conjugated by seeded random unitaries, retried (bounded)
    until the Burnside test passes.

    Each draw has its own generator, seeded from (alpha, seed, attempt),
    so an instance does not depend on the other seeds of the call.  The
    draws of one attempt go through one stacked QR, one stacked
    conjugation and one stacked span test; only the seeds the test
    rejected are drawn again, at the next attempt.
    """
    if not is_simple_gamma(alpha):
        raise NotSimpleDimension(f"{alpha} is not a simple dimension vector")
    n = alpha.n
    diag_a = np.diag(np.array([1.0] * alpha.a + [-1.0] * alpha.b, dtype=complex))
    diag_b = np.diag(np.array(
        [1.0] * alpha.x + [OMEGA] * alpha.y + [OMEGA ** 2] * alpha.z, dtype=complex))
    seeds = list(seeds)
    found: dict[int, SimpleInstance] = {}
    pending = list(range(len(seeds)))
    for attempt in range(_RETRY_LIMIT):
        if not pending:
            break
        if n == 1:
            A = diag_a[None].repeat(len(pending), axis=0)
            B = diag_b[None].repeat(len(pending), axis=0)
        else:
            # per draw: real and imaginary parts of p's Gaussian, then q's
            gauss = np.stack([
                np.random.default_rng(
                    derived_seed("simple", alpha.as_tuple(), seeds[i], attempt)
                ).standard_normal((4, n, n))
                for i in pending
            ])
            p, q = _unitaries(gauss[:, 0::2] + 1j * gauss[:, 1::2]).swapaxes(0, 1)
            A = p @ diag_a @ p.conj().swapaxes(-1, -2)
            B = q @ diag_b @ q.conj().swapaxes(-1, -2)
        simple = word_span_dims(A, B, tol) == n * n
        for i, a, b, ok in zip(pending, A, B, simple):
            if ok:
                found[i] = SimpleInstance(alpha, seeds[i], RepPair(a, b, GAMMA),
                                          f"{alpha}@{seeds[i]}", attempts=attempt + 1)
        pending = [i for i, ok in zip(pending, simple) if not ok]
    if pending:
        raise GenerationFailed(
            f"no simple instance of type {alpha} after {_RETRY_LIMIT} attempts; "
            "suspect the simplicity criterion"
        )
    return [found[i] for i in range(len(seeds))]


def random_simple_gamma(alpha: GammaDimVector, seed: int,
                        instance_id: str | None = None,
                        tol: ToleranceConfig = DEFAULT_TOL) -> SimpleInstance:
    """Generic simple pair of type alpha: the ``random_simples_gamma``
    of one seed, under the given instance id (default ``alpha@seed``)."""
    inst, = random_simples_gamma(alpha, [seed], tol)
    if instance_id is not None:
        inst.instance_id = instance_id
    return inst


@functools.lru_cache(maxsize=256)
def _scale_factors(lam: ExactScalar) -> tuple[complex, complex]:
    """(lam^3, lam^2) as complex numbers, from exact powers."""
    return complex(lam ** 3), complex(lam ** 2)


def scale_rep(V: RepPair, lam: ExactScalar) -> RepPair:
    """Rescaling action (A, B) -> (lam^3 A, lam^2 B).  Preserves
    A^2 = B^3; the result keeps the Gamma tag only when lam is a sixth
    root of unity."""
    c3, c2 = _scale_factors(lam)
    kind = GAMMA if (V.relation_kind == GAMMA and lam.in_mu6()) else B3
    return RepPair(c3 * V.A, c2 * V.B, kind)


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
    non-isomorphic entries."""

    entries: tuple[SpecEntry, ...]

    def __post_init__(self):
        entries = tuple(self.entries)
        if not entries:
            raise InvalidSpec("spec needs at least one entry")
        for i in range(len(entries)):
            for j in range(i + 1, len(entries)):
                if entries_isomorphic(entries[i], entries[j]):
                    raise IsomorphicDistinctEntries(
                        f"entries {i + 1} and {j + 1} are isomorphic; "
                        "merge them into one entry's multiplicity"
                    )
        object.__setattr__(self, "entries", entries)

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
    return out


def assemble(spec: SemisimpleSpec, seed: int = 0,
             tol: ToleranceConfig = DEFAULT_TOL) -> RepPair:
    """Block-diagonal realization of a spec: for each entry, ``mult``
    identical copies of the rescaled simple block, in entry order.
    Equal instance ids reuse the same underlying block."""
    cache: dict[tuple[str, GammaDimVector], SimpleInstance] = {}
    blocks_a, blocks_b = [], []
    for entry in spec.entries:
        key = (entry.instance_id, entry.alpha)
        if key not in cache:
            cache[key] = random_simple_gamma(
                entry.alpha,
                derived_seed("assemble", seed, entry.instance_id),
                instance_id=entry.instance_id,
                tol=tol,
            )
        scaled = scale_rep(cache[key].rep, entry.lam)
        for _ in range(entry.mult):
            blocks_a.append(scaled.A)
            blocks_b.append(scaled.B)
    return RepPair(_block_diag(blocks_a), _block_diag(blocks_b), B3)
