"""Exact polar scalars r * exp(2*pi*i*q) with rational r and q.

Rescaling a matrix pair by t in C* moves representations between
isomorphism classes, and whether two scalars differ by a sixth root of
unity decides whether the corresponding modules can interact at all.
That membership test must never go through floating point: a scalar is
stored as a positive rational modulus ``r`` together with a rational
``q`` in [0, 1) measuring the angle in full turns, so ``lam / mu`` lies
in the sixth roots of unity exactly when the moduli agree and six times
the angle difference is an integer.  Matrices receive the floating-point
image via ``complex()``.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction


@dataclass(frozen=True)
class ExactScalar:
    """The nonzero complex number r * exp(2*pi*i*q).

    ``r`` is the modulus (a positive rational), ``q`` the angle as a
    fraction of a full turn, normalized into [0, 1) and kept in lowest
    terms by ``Fraction``.
    """

    r: Fraction
    q: Fraction

    def __post_init__(self):
        r = Fraction(self.r)
        q = Fraction(self.q)
        if r <= 0:
            raise ValueError(f"modulus must be positive, got {r}")
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "q", q % 1)

    @classmethod
    def one(cls) -> "ExactScalar":
        return cls(Fraction(1), Fraction(0))

    @classmethod
    def from_rational(cls, value) -> "ExactScalar":
        """Positive rational number as a scalar with angle zero."""
        return cls(Fraction(value), Fraction(0))

    @classmethod
    def zeta6(cls, k: int = 1) -> "ExactScalar":
        """The sixth root of unity exp(2*pi*i*k/6)."""
        return cls(Fraction(1), Fraction(k, 6))

    def __mul__(self, other: "ExactScalar") -> "ExactScalar":
        return ExactScalar(self.r * other.r, self.q + other.q)

    def __truediv__(self, other: "ExactScalar") -> "ExactScalar":
        return ExactScalar(self.r / other.r, self.q - other.q)

    def __pow__(self, k: int) -> "ExactScalar":
        return ExactScalar(self.r ** k, self.q * k)

    def __complex__(self) -> complex:
        return cmath.rect(float(self.r), 2.0 * math.pi * float(self.q))

    def __hash__(self) -> int:
        # the dataclass hash, kept on first use: rescaling caches look
        # scalars up by it, and a Fraction hash is slow
        h = self.__dict__.get("_hash")
        if h is None:
            h = hash((self.r, self.q))
            object.__setattr__(self, "_hash", h)
        return h

    def in_mu6(self) -> bool:
        """Whether the scalar is a sixth root of unity."""
        return self.r == 1 and (6 * self.q).denominator == 1

    def mu6_exponent(self) -> int | None:
        """k with self = exp(2*pi*i*k/6), or None if not a sixth root."""
        if not self.in_mu6():
            return None
        return int(6 * self.q) % 6

    def to_json(self) -> dict:
        return {"r": str(self.r), "q": str(self.q)}

    @classmethod
    def from_json(cls, data: dict) -> "ExactScalar":
        return cls(Fraction(data["r"]), Fraction(data["q"]))

    def __str__(self) -> str:
        if self.q == 0:
            return str(self.r)
        return f"{self.r}*e(2pi*i*{self.q})"


def mu6_exponent(lam: ExactScalar, mu: ExactScalar) -> int | None:
    """k in Z6 with lam / mu = exp(2*pi*i*k/6), or None.  A ratio in mu6
    needs equal moduli, which are compared first: most pairs of a spec
    differ there.  Then, with angles n1/d1 and n2/d2 in lowest terms,
    six times their difference is the integer 6 (n1 d2 - n2 d1) / (d1 d2)
    or not one at all; k is that integer mod 6, found on the integer
    numerators and denominators, with no Fraction or quotient scalar
    formed."""
    if lam.r != mu.r:
        return None
    p, q = lam.q, mu.q
    k, rest = divmod(6 * (p.numerator * q.denominator - q.numerator * p.denominator),
                     p.denominator * q.denominator)
    return None if rest else k % 6
