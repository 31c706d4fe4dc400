"""Exact polar scalar arithmetic and sixth-root membership."""

import cmath
import math
from fractions import Fraction

import pytest

from b3rep import ExactScalar, mu6_exponent


def test_angle_normalized_into_unit_interval():
    assert ExactScalar(Fraction(1), Fraction(7, 6)).q == Fraction(1, 6)
    assert ExactScalar(Fraction(1), Fraction(-1, 6)).q == Fraction(5, 6)
    assert ExactScalar(Fraction(2), Fraction(3)).q == 0


def test_fractions_kept_in_lowest_terms():
    s = ExactScalar(Fraction(2, 4), Fraction(3, 6))
    assert s.r == Fraction(1, 2) and s.q == Fraction(1, 2)


def test_modulus_must_be_positive():
    with pytest.raises(ValueError):
        ExactScalar(Fraction(0), Fraction(0))
    with pytest.raises(ValueError):
        ExactScalar(Fraction(-1), Fraction(0))


def test_group_operations_are_exact():
    z = ExactScalar.zeta6(1)
    assert (z ** 6) == ExactScalar.one()
    assert (z * z) == ExactScalar.zeta6(2)
    assert (z / z) == ExactScalar.one()
    lam = ExactScalar(Fraction(3, 2), Fraction(1, 7))
    assert (lam * lam / lam) == lam
    assert lam ** -1 == ExactScalar.one() / lam
    # powers compose exactly
    assert (lam ** 2) ** 3 == lam ** 6


def test_complex_images():
    assert complex(ExactScalar.one()) == 1.0
    assert cmath.isclose(complex(ExactScalar.zeta6(1)),
                         cmath.exp(1j * math.pi / 3), abs_tol=1e-15)
    assert cmath.isclose(complex(ExactScalar.zeta6(3)), -1.0, abs_tol=1e-15)
    lam = ExactScalar(Fraction(3, 2), Fraction(1, 7))
    assert cmath.isclose(complex(lam), 1.5 * cmath.exp(2j * math.pi / 7),
                         abs_tol=1e-15)


def test_mu6_membership_is_decided_exactly():
    for k in range(6):
        assert ExactScalar.zeta6(k).in_mu6()
        assert ExactScalar.zeta6(k).mu6_exponent() == k
    assert not ExactScalar.from_rational(2).in_mu6()
    assert not ExactScalar(Fraction(1), Fraction(1, 7)).in_mu6()
    # modulus matters even with a good angle
    assert not ExactScalar(Fraction(2), Fraction(1, 6)).in_mu6()


def test_ratio_in_mu6_and_exponent():
    lam = ExactScalar(Fraction(3, 2), Fraction(1, 7))
    assert mu6_exponent(lam, lam) == 0
    assert mu6_exponent(lam * ExactScalar.zeta6(4), lam) == 4
    assert mu6_exponent(ExactScalar.zeta6(2), ExactScalar.zeta6(5)) == 3
    assert mu6_exponent(ExactScalar.from_rational(2), ExactScalar.one()) is None


def test_mu6_exponent_of_different_moduli_forms_no_quotient(monkeypatch):
    # a ratio in mu6 needs equal moduli, so the exact quotient, which
    # dominated analyze on many summands at distinct moduli, is skipped
    def no_quotient(self, other):
        raise AssertionError("an exact quotient was formed")

    monkeypatch.setattr(ExactScalar, "__truediv__", no_quotient)
    lam = ExactScalar(Fraction(3, 2), Fraction(1, 6))
    for mu in (ExactScalar.one(), ExactScalar(Fraction(3, 2) + Fraction(1, 10 ** 20), 0),
               ExactScalar(Fraction(2, 3), Fraction(1, 6))):
        assert mu6_exponent(lam, mu) is None and mu6_exponent(mu, lam) is None


def test_json_round_trip():
    lam = ExactScalar(Fraction(3, 2), Fraction(5, 6))
    data = lam.to_json()
    assert data == {"r": "3/2", "q": "5/6"}
    assert ExactScalar.from_json(data) == lam
    assert ExactScalar.from_json({"r": "1", "q": "0"}) == ExactScalar.one()


def test_mu6_exponent_equals_the_exact_quotient_on_a_grid():
    # angles k/d in [0, 1), so half the ordered pairs have a negative angle
    # difference; moduli equal and not
    angles = sorted({Fraction(k, d) for d in (1, 6, 7, 12, 42) for k in range(d)})
    scalars = [ExactScalar(r, q) for r in (Fraction(1), Fraction(3, 2), Fraction(2))
               for q in angles]
    found = set()
    for lam in scalars:
        for mu in scalars:
            expected = None if lam.r != mu.r else (lam / mu).mu6_exponent()
            assert mu6_exponent(lam, mu) == expected, (lam, mu)
            found.add(expected)
    assert found == {None, 0, 1, 2, 3, 4, 5}
    assert mu6_exponent(ExactScalar.zeta6(1), ExactScalar.zeta6(5)) == 2
    assert mu6_exponent(ExactScalar(2, Fraction(1, 7)), ExactScalar(2, Fraction(9, 14))) == 3

