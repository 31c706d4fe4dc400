"""Explicit matrix models: characters, generic simples, rescaling, and
semisimple assembly.

Matrix pairs come in two relation kinds: ``Gamma`` pairs satisfy
A^2 = B^3 = 1, ``B3`` pairs only A^2 = B^3.  A generic simple of a given
dimension vector is built by conjugating the exact eigenvalue diagonals
by independent random unitaries (orthonormalized Gaussian matrices), so
conditioning stays near 1 and numerical ranks are unambiguous;
simplicity is then certified by the Burnside span test, which grows the
word span of {A, B} one word length at a time, by left multiplication
only, and asks for the full matrix algebra.

A ``SemisimpleSpec`` is the symbolic side of a semisimple module: an
ordered list of (dimension vector, exact scalar, multiplicity, instance
id) entries.  ``assemble`` realizes it as a block-diagonal pair, with
equal instance ids denoting the same underlying simple block.
"""

from __future__ import annotations

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


def validate_rep(V: RepPair, kind: str, tol: ToleranceConfig = DEFAULT_TOL) -> RepValidation:
    """Check invertibility and the defining relation of the given kind
    at tolerance; returns the verdict together with residual norms."""
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
        ok = invertible and res <= tol.rel_tol * scale
    else:
        raise ValueError(f"unknown relation kind {kind!r}")
    return RepValidation(ok, kind, residuals)


def one_dim_rep(u: int) -> RepPair:
    """The 1 x 1 pair of hexagon vertex u."""
    if not 0 <= u <= 5:
        raise ValueError(f"hexagon index must be in 0..5, got {u}")
    rho, tau = ONE_DIM_CHARACTERS[u]
    return RepPair(np.array([[rho]]), np.array([[tau]]), GAMMA)


def _random_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-like unitary: QR of a complex Gaussian matrix with the phase
    freedom fixed, deterministic given the generator state."""
    zmat = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(zmat)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def word_span_dim(V: RepPair, tol: ToleranceConfig = DEFAULT_TOL) -> int:
    """Dimension of the linear span of all words in {A, B} (at most n^2),
    grown one word length at a time by left multiplication.

    Every word of length k + 1 is A w or B w for a word w of length k.
    The words accepted up to length k span all words of length <= k, so
    the left multiples of the words accepted at length k, with the
    shorter ones, span all words of length <= k + 1.  A level's
    candidates come from one product with A and B stacked, and are
    projected against the basis of shorter words in two BLAS passes.
    They are then accepted in order against the vectors this level has
    accepted so far: a candidate counts when its norm is at least
    abs_floor and its residual above rel_tol times its norm.  The
    accepted words are the next frontier; the span is complete when a
    level accepts none.
    """
    n = V.n
    target = n * n
    generators = np.concatenate([V.A, V.B])
    basis = np.empty((target, target), dtype=complex)
    basis[0] = np.eye(n).reshape(-1) / np.sqrt(n)
    count = 1
    frontier = np.eye(n, dtype=complex)[None]
    while len(frontier) and count < target:
        # rows A w_0, B w_0, A w_1, B w_1, ... of the frontier words w_i
        cand = (generators @ frontier).reshape(-1, target)
        old = basis[:count]
        resid = cand - (cand.conj() @ old.T).conj() @ old
        resid -= (resid.conj() @ old.T).conj() @ old
        norms = np.linalg.norm(cand, axis=1)
        floor = tol.rel_tol * norms
        # projecting out this level's vectors can only shrink a residual,
        # so a candidate already under its threshold is rejected here
        live = (norms >= tol.abs_floor) & (np.linalg.norm(resid, axis=1) > floor)
        start = count
        kept = []
        for i in np.flatnonzero(live):
            w = resid[i]
            if count > start:
                new = basis[start:count]
                w = w - (new @ w.conj()).conj() @ new
                w = w - (new @ w.conj()).conj() @ new
            norm_w = np.linalg.norm(w)
            if norm_w <= floor[i]:
                continue
            basis[count] = w / norm_w
            count += 1
            kept.append(i)
            if count == target:
                break
        frontier = cand[kept].reshape(-1, n, n)
    return count


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


def random_simple_gamma(alpha: GammaDimVector, seed: int,
                        instance_id: str | None = None,
                        tol: ToleranceConfig = DEFAULT_TOL) -> SimpleInstance:
    """Generic simple pair of type alpha: exact eigenvalue diagonals
    conjugated by seeded random unitaries, retried (bounded) until the
    Burnside test passes."""
    if not is_simple_gamma(alpha):
        raise NotSimpleDimension(f"{alpha} is not a simple dimension vector")
    if instance_id is None:
        instance_id = f"{alpha}@{seed}"
    n = alpha.n
    diag_a = np.diag(np.array([1.0] * alpha.a + [-1.0] * alpha.b, dtype=complex))
    diag_b = np.diag(np.array(
        [1.0] * alpha.x + [OMEGA] * alpha.y + [OMEGA ** 2] * alpha.z, dtype=complex))
    for attempt in range(_RETRY_LIMIT):
        if n == 1:
            rep = RepPair(diag_a, diag_b, GAMMA)
        else:
            rng = np.random.default_rng(derived_seed("simple", alpha.as_tuple(), seed, attempt))
            p = _random_unitary(n, rng)
            q = _random_unitary(n, rng)
            rep = RepPair(p @ diag_a @ p.conj().T, q @ diag_b @ q.conj().T, GAMMA)
        if burnside_simple(rep, tol):
            return SimpleInstance(alpha, seed, rep, instance_id, attempts=attempt + 1)
    raise GenerationFailed(
        f"no simple instance of type {alpha} after {_RETRY_LIMIT} attempts; "
        "suspect the simplicity criterion"
    )


def scale_rep(V: RepPair, lam: ExactScalar) -> RepPair:
    """Rescaling action (A, B) -> (lam^3 A, lam^2 B).  Preserves
    A^2 = B^3; the result keeps the Gamma tag only when lam is a sixth
    root of unity."""
    c3 = complex(lam ** 3)
    c2 = complex(lam ** 2)
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
