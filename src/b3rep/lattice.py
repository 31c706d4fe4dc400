"""Dimension-vector combinatorics for representations of Z2 * Z3.

A representation of the free product Z2 * Z3 is a pair of matrices
(A, B) with A^2 = B^3 = 1.  Both matrices are diagonalizable, so up to
the eigenvalue data a representation is recorded by multiplicities, and
two integer lattices appear:

* ``GammaDimVector`` (a, b; x, y, z): the multiplicities of the
  eigenvalues +1, -1 of A and 1, w, w^2 of B (w a primitive cube root of
  unity).  This is a dimension vector for the bipartite quiver with two
  left-hand vertices (a, b), three right-hand vertices (x, y, z) and one
  arrow from each left vertex to each right vertex; the constraint
  a + b = x + y + z = n is built in.

* ``HexDimVector`` (h0, ..., h5): multiplicities of the six
  one-dimensional simple modules inside a semisimple representation.
  The six characters, in the vertex order used throughout the package,
  send the generators to

      0: (1, 1)    1: (-1, w)    2: (1, w^2)
      3: (-1, 1)   4: (1, w)     5: (-1, w^2).

  These are the vertices of a hexagonal quiver with one arrow in each
  direction between cyclically adjacent vertices; its symmetric Euler
  matrix is ``EULER_MATRIX_HEX``.

Rescaling a pair by t, (A, B) -> (t^3 A, t^2 B), is trivial on nothing
when t is a primitive sixth root of unity: it rotates the hexagon one
step, 0 -> 1 -> ... -> 5 -> 0.  On (a, b; x, y, z) this swaps (a, b) and
cycles (x, y, z) -> (z, x, y); ``twist_gamma`` implements that order-6
action and ``orbit_class`` picks the lexicographically smallest member
of an orbit as its canonical label.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

from .errors import NotSimpleDimension

#: Euler matrix of the hexagonal double quiver: 1 on the diagonal, -1 at
#: cyclically adjacent index pairs.  Symmetric.
EULER_MATRIX_HEX = (
    (1, -1, 0, 0, 0, -1),
    (-1, 1, -1, 0, 0, 0),
    (0, -1, 1, -1, 0, 0),
    (0, 0, -1, 1, -1, 0),
    (0, 0, 0, -1, 1, -1),
    (-1, 0, 0, 0, -1, 1),
)


def _is_json_int(value) -> bool:
    """Whether a decoded JSON value is an integer.  Booleans and floats,
    integral ones such as 2.0 included, are not: a count written as a
    float is rejected rather than truncated."""
    return isinstance(value, int) and not isinstance(value, bool)


@dataclass(frozen=True, order=True)
class GammaDimVector:
    """Eigenvalue multiplicities (a, b; x, y, z) with a + b = x + y + z.

    Ordering is lexicographic on the tuple (a, b, x, y, z); that order
    fixes canonical orbit representatives and enumeration output.
    """

    a: int
    b: int
    x: int
    y: int
    z: int

    def __post_init__(self):
        for v in (self.a, self.b, self.x, self.y, self.z):
            if not isinstance(v, int) or v < 0:
                raise ValueError(f"multiplicities must be nonnegative integers: {self}")
        if self.a + self.b != self.x + self.y + self.z:
            raise ValueError(
                f"a + b = {self.a + self.b} must equal x + y + z = "
                f"{self.x + self.y + self.z}: {self}"
            )
        # vectors key dicts and seed labels, so the hash is kept
        object.__setattr__(self, "_hash", hash(self.as_tuple()))

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        """The dataclass text, built on first use and kept."""
        text = self.__dict__.get("_repr")
        if text is None:
            text = (f"GammaDimVector(a={self.a!r}, b={self.b!r}, "
                    f"x={self.x!r}, y={self.y!r}, z={self.z!r})")
            object.__setattr__(self, "_repr", text)
        return text

    @property
    def n(self) -> int:
        return self.a + self.b

    def as_tuple(self) -> tuple[int, int, int, int, int]:
        return (self.a, self.b, self.x, self.y, self.z)

    def __add__(self, other: "GammaDimVector") -> "GammaDimVector":
        return GammaDimVector(
            self.a + other.a, self.b + other.b,
            self.x + other.x, self.y + other.y, self.z + other.z,
        )

    def __mul__(self, m: int) -> "GammaDimVector":
        return GammaDimVector(m * self.a, m * self.b, m * self.x, m * self.y, m * self.z)

    __rmul__ = __mul__

    def to_json(self) -> list[int]:
        return list(self.as_tuple())

    @classmethod
    def from_json(cls, data) -> "GammaDimVector":
        if not (isinstance(data, (list, tuple)) and len(data) == 5
                and all(_is_json_int(v) for v in data)):
            raise ValueError(f"expected [a, b, x, y, z] of integers, got {data!r}")
        return cls(*data)

    def __str__(self) -> str:
        return f"({self.a},{self.b};{self.x},{self.y},{self.z})"


@dataclass(frozen=True, order=True)
class HexDimVector:
    """Multiplicities (h0, ..., h5) of the six characters, indexed mod 6."""

    h0: int
    h1: int
    h2: int
    h3: int
    h4: int
    h5: int

    def __post_init__(self):
        for v in self.as_tuple():
            if not isinstance(v, int) or v < 0:
                raise ValueError(f"multiplicities must be nonnegative integers: {self}")

    def as_tuple(self) -> tuple[int, ...]:
        return (self.h0, self.h1, self.h2, self.h3, self.h4, self.h5)

    @property
    def total(self) -> int:
        return sum(self.as_tuple())

    @classmethod
    def basis(cls, i: int) -> "HexDimVector":
        vals = [0] * 6
        vals[i % 6] = 1
        return cls(*vals)


def hex_to_gamma(h: HexDimVector) -> GammaDimVector:
    """Eigenvalue multiplicities of a semisimple module with character
    multiplicities h: a = h0+h2+h4, b = h1+h3+h5, x = h0+h3, y = h1+h4,
    z = h2+h5."""
    return GammaDimVector(
        h.h0 + h.h2 + h.h4,
        h.h1 + h.h3 + h.h5,
        h.h0 + h.h3,
        h.h1 + h.h4,
        h.h2 + h.h5,
    )


def euler_hex(h1: HexDimVector, h2: HexDimVector) -> int:
    """Euler form h1^T M h2 of the hexagonal quiver."""
    t1, t2 = h1.as_tuple(), h2.as_tuple()
    return sum(
        t1[i] * EULER_MATRIX_HEX[i][j] * t2[j]
        for i in range(6) for j in range(6)
        if EULER_MATRIX_HEX[i][j]
    )


def euler_gamma(alpha: GammaDimVector, beta: GammaDimVector) -> int:
    """Euler form of the bipartite quiver:
    (a a' + b b' + x x' + y y' + z z') - n n'.

    Compatible with the hexagon form: euler_gamma(hex_to_gamma(h),
    hex_to_gamma(h')) = euler_hex(h, h') for all h, h'.
    """
    dot = (alpha.a * beta.a + alpha.b * beta.b
           + alpha.x * beta.x + alpha.y * beta.y + alpha.z * beta.z)
    return dot - alpha.n * beta.n


def twist_gamma(alpha: GammaDimVector, k: int) -> GammaDimVector:
    """k-fold rescaling twist: one step swaps (a, b) and sends
    (x, y, z) -> (z, x, y).  An order-6 action preserving n and
    simplicity."""
    a, b, x, y, z = alpha.as_tuple()
    for _ in range(k % 6):
        a, b, x, y, z = b, a, z, x, y
    return GammaDimVector(a, b, x, y, z)


def orbit_gamma(alpha: GammaDimVector) -> tuple[GammaDimVector, ...]:
    """The six twists of alpha, in twist order (possibly with repeats)."""
    return tuple(twist_gamma(alpha, k) for k in range(6))


@functools.lru_cache(maxsize=4096)
def orbit_class(alpha: GammaDimVector) -> GammaDimVector:
    """Canonical representative: lexicographic minimum over the twist
    orbit.  Idempotent and constant on orbits.  Cached."""
    return min(orbit_gamma(alpha))


# Dimension vectors with a vanishing B-eigenvalue multiplicity admit a
# simple representation only in these two twist orbits.
_EXCEPTIONAL_SIMPLE = frozenset(
    itertools.chain(
        orbit_gamma(GammaDimVector(1, 0, 1, 0, 0)),
        orbit_gamma(GammaDimVector(1, 1, 1, 1, 0)),
    )
)


def is_simple_gamma(alpha: GammaDimVector) -> bool:
    """Whether simple representations of type alpha exist.

    For min(x, y, z) > 0 the criterion is max(x, y, z) <= min(a, b).
    When some B-multiplicity vanishes, the only simple types are the
    twist orbits of (1,0;1,0,0) and (1,1;1,1,0).
    """
    if alpha.n == 0:
        return False
    if min(alpha.x, alpha.y, alpha.z) > 0:
        return max(alpha.x, alpha.y, alpha.z) <= min(alpha.a, alpha.b)
    return alpha in _EXCEPTIONAL_SIMPLE


def _support_is_arc(t: tuple[int, ...]) -> bool:
    """Whether the support of t is a single arc of the 6-cycle (or the
    whole cycle).  Counts descents from support to non-support."""
    drops = sum(1 for i in range(6) if t[i] > 0 and t[(i + 1) % 6] == 0)
    return drops <= 1


def is_simple_hex(h: HexDimVector) -> bool:
    """Whether simple representations with character multiplicities h
    exist.

    True for the six coordinate vectors (the characters themselves).
    Otherwise the support must be a connected arc of the hexagon, every
    entry must satisfy h_i <= h_{i-1} + h_{i+1}, and a support of
    exactly two adjacent vertices forces multiplicities (1, 1): a pair
    of adjacent vertices with both arrows forms an oriented 2-cycle, so
    larger multiplicities there only give direct sums.  Disconnected
    support always decomposes, hence is never simple.
    """
    t = h.as_tuple()
    if sum(t) == 0:
        return False
    if sum(t) == 1:
        return True  # coordinate vector
    if not _support_is_arc(t):
        return False
    if any(t[i] > t[(i - 1) % 6] + t[(i + 1) % 6] for i in range(6)):
        return False
    support = [v for v in t if v > 0]
    if len(support) == 2:
        return support == [1, 1]
    return True


def ext_gamma_self(alpha: GammaDimVector) -> int:
    """Self-extension dimension of a simple of type alpha:
    1 - euler_gamma(alpha, alpha) = n^2 + 1 - (a^2+b^2+x^2+y^2+z^2).

    Zero exactly for the one-dimensional types.
    """
    if not is_simple_gamma(alpha):
        raise NotSimpleDimension(f"{alpha} is not a simple dimension vector")
    return 1 - euler_gamma(alpha, alpha)


def ext_gamma_pair(alpha: GammaDimVector, beta: GammaDimVector) -> int:
    """Extension dimension between non-isomorphic simples of types alpha
    and beta: -euler_gamma(alpha, beta).  Symmetric in its arguments.

    The caller asserts the two modules are non-isomorphic; for equal
    one-dimensional types that is impossible and the self formula
    applies instead.
    """
    if not is_simple_gamma(alpha):
        raise NotSimpleDimension(f"{alpha} is not a simple dimension vector")
    if not is_simple_gamma(beta):
        raise NotSimpleDimension(f"{beta} is not a simple dimension vector")
    return -euler_gamma(alpha, beta)


def enumerate_simple_gamma(n: int) -> list[GammaDimVector]:
    """All simple dimension vectors with a + b = n, lexicographically
    sorted: a new list of the cached ``_simple_gamma``."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return list(_simple_gamma(n))


@functools.lru_cache(maxsize=64)
def _simple_gamma(n: int) -> tuple[GammaDimVector, ...]:
    return tuple(sorted(
        v for a in range(n + 1) for x in range(n + 1) for y in range(n + 1 - x)
        if is_simple_gamma(v := GammaDimVector(a, n - a, x, y, n - x - y))))


def simple_orbit_classes(n: int) -> list[GammaDimVector]:
    """Canonical representatives of the twist orbits of simple vectors
    with a + b = n, lexicographically sorted."""
    return sorted({orbit_class(v) for v in enumerate_simple_gamma(n)})


def enumerate_hex(total: int) -> list[HexDimVector]:
    """All hexagon dimension vectors with the given total, ordered
    lexicographically."""
    if total < 0:
        raise ValueError(f"total must be >= 0, got {total}")
    out = []
    for h0 in range(total + 1):
        for h1 in range(total + 1 - h0):
            for h2 in range(total + 1 - h0 - h1):
                for h3 in range(total + 1 - h0 - h1 - h2):
                    for h4 in range(total + 1 - h0 - h1 - h2 - h3):
                        h5 = total - h0 - h1 - h2 - h3 - h4
                        out.append(HexDimVector(h0, h1, h2, h3, h4, h5))
    return out
