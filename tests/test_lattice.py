"""Dimension-vector combinatorics: Euler forms, simplicity, twisting."""

import itertools

import pytest

from b3rep import (
    EULER_MATRIX_HEX,
    GammaDimVector,
    HexDimVector,
    NotSimpleDimension,
    enumerate_hex,
    enumerate_simple_gamma,
    euler_gamma,
    euler_hex,
    ext_gamma_pair,
    ext_gamma_self,
    hex_to_gamma,
    is_simple_gamma,
    is_simple_hex,
    orbit_class,
    orbit_gamma,
    simple_orbit_classes,
    twist_gamma,
)

V1 = GammaDimVector(1, 0, 1, 0, 0)


def g(a, b, x, y, z):
    return GammaDimVector(a, b, x, y, z)


def h(*vals):
    return HexDimVector(*vals)


# ---------------------------------------------------------------------------
# constructors and invariants
# ---------------------------------------------------------------------------

def test_gamma_vector_requires_balanced_totals():
    with pytest.raises(ValueError):
        GammaDimVector(1, 0, 1, 1, 0)
    with pytest.raises(ValueError):
        GammaDimVector(1, -1, 0, 0, 0)


def test_gamma_vector_arithmetic():
    assert g(1, 0, 1, 0, 0) + g(0, 1, 0, 1, 0) == g(1, 1, 1, 1, 0)
    assert 2 * g(2, 1, 1, 1, 1) == g(4, 2, 2, 2, 2)


def test_json_round_trips():
    v = g(2, 1, 1, 1, 1)
    assert GammaDimVector.from_json(v.to_json()) == v


@pytest.mark.parametrize("data", [
    [1.7, 0, 1, 0, 0], [1.0, 0, 1, 0, 0], [1, False, 1, 0, 0], ["1", 0, 1, 0, 0],
    [1, 0, 1, 0], 5, None,
])
def test_gamma_from_json_rejects_anything_but_five_integers(data):
    with pytest.raises(ValueError):
        GammaDimVector.from_json(data)


# ---------------------------------------------------------------------------
# multiplicity transfer hexagon -> bipartite
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("hex_vec,expected", [
    (h(1, 0, 0, 0, 0, 0), g(1, 0, 1, 0, 0)),
    (h(1, 1, 1, 1, 1, 1), g(3, 3, 2, 2, 2)),
    (h(1, 1, 0, 0, 0, 0), g(1, 1, 1, 1, 0)),
])
def test_hex_to_gamma(hex_vec, expected):
    assert hex_to_gamma(hex_vec) == expected


def test_hex_to_gamma_always_balanced():
    for vec in enumerate_hex(5):
        hex_to_gamma(vec)  # constructor re-checks the invariant


# ---------------------------------------------------------------------------
# Euler forms
# ---------------------------------------------------------------------------

def test_hexagon_euler_matrix_entries():
    expected = (
        (1, -1, 0, 0, 0, -1),
        (-1, 1, -1, 0, 0, 0),
        (0, -1, 1, -1, 0, 0),
        (0, 0, -1, 1, -1, 0),
        (0, 0, 0, -1, 1, -1),
        (-1, 0, 0, 0, -1, 1),
    )
    assert EULER_MATRIX_HEX == expected


def test_euler_hex_values():
    e0, e1 = HexDimVector.basis(0), HexDimVector.basis(1)
    assert euler_hex(e1, e1) == 1
    assert euler_hex(e0, e1) == -1
    ones = h(1, 1, 1, 1, 1, 1)
    assert euler_hex(ones, ones) == -6


def test_euler_hex_symmetric_and_bilinear():
    vecs = enumerate_hex(2)
    for h1, h2 in itertools.product(vecs[:20], vecs[-20:]):
        assert euler_hex(h1, h2) == euler_hex(h2, h1)
    a, b, c = h(1, 2, 0, 1, 0, 0), h(0, 0, 3, 0, 1, 0), h(2, 0, 0, 0, 0, 1)
    lhs = euler_hex(HexDimVector(*(u + v for u, v in zip(a.as_tuple(), b.as_tuple()))), c)
    assert lhs == euler_hex(a, c) + euler_hex(b, c)


def test_euler_gamma_values():
    assert euler_gamma(V1, V1) == 1
    assert euler_gamma(V1, g(0, 1, 0, 1, 0)) == -1
    assert euler_gamma(g(1, 1, 1, 1, 0), g(1, 1, 1, 1, 0)) == 0


def test_euler_forms_agree_through_multiplicity_map():
    # exhaustive at low total, the full-scale version runs in the lemma suite
    vecs = [v for total in range(5) for v in enumerate_hex(total)]
    for h1 in vecs[::7]:
        for h2 in vecs[::5]:
            assert euler_hex(h1, h2) == euler_gamma(hex_to_gamma(h1), hex_to_gamma(h2))


# ---------------------------------------------------------------------------
# twisting
# ---------------------------------------------------------------------------

def test_twist_basic():
    assert twist_gamma(V1, 1) == g(0, 1, 0, 1, 0)
    assert twist_gamma(V1, 0) == V1
    v = g(2, 1, 1, 1, 1)
    assert twist_gamma(twist_gamma(v, 3), 3) == v
    assert twist_gamma(v, 7) == twist_gamma(v, 1)


def test_twist_walks_the_hexagon():
    # the orbit of the first character visits all six vertex types in order
    expected = [
        g(1, 0, 1, 0, 0),
        g(0, 1, 0, 1, 0),
        g(1, 0, 0, 0, 1),
        g(0, 1, 1, 0, 0),
        g(1, 0, 0, 1, 0),
        g(0, 1, 0, 0, 1),
    ]
    assert list(orbit_gamma(V1)) == expected


def test_twist_preserves_n_and_simplicity():
    for n in range(1, 6):
        for v in enumerate_simple_gamma(n):
            for k in range(6):
                w = twist_gamma(v, k)
                assert w.n == v.n
                assert is_simple_gamma(w)


def test_orbit_class():
    assert orbit_class(g(0, 1, 0, 1, 0)) == g(0, 1, 0, 0, 1)
    assert orbit_class(V1) == orbit_class(g(0, 1, 0, 1, 0))
    v = g(2, 1, 1, 1, 1)
    rep = orbit_class(v)
    assert orbit_class(rep) == rep
    assert rep == min(orbit_gamma(v))


# ---------------------------------------------------------------------------
# simplicity criteria
# ---------------------------------------------------------------------------

def test_is_simple_gamma_examples():
    assert is_simple_gamma(V1)
    assert is_simple_gamma(g(2, 1, 1, 1, 1))
    assert not is_simple_gamma(g(2, 0, 1, 1, 0))
    assert not is_simple_gamma(g(0, 0, 0, 0, 0))
    # all-positive criterion is sharp
    assert not is_simple_gamma(g(3, 1, 2, 1, 1))
    assert is_simple_gamma(g(2, 2, 2, 1, 1))
    # vanishing-coordinate case beyond the two exceptional orbits
    assert not is_simple_gamma(g(2, 2, 2, 2, 0))
    assert is_simple_gamma(g(1, 1, 0, 1, 1))


def test_is_simple_hex_examples():
    assert is_simple_hex(h(1, 0, 0, 0, 0, 0))
    assert is_simple_hex(h(0, 0, 0, 1, 0, 0))
    assert is_simple_hex(h(1, 1, 1, 1, 1, 1))
    assert is_simple_hex(h(2, 1, 0, 0, 0, 1))
    assert not is_simple_hex(h(0, 0, 0, 0, 0, 0))
    assert not is_simple_hex(h(2, 0, 0, 0, 0, 0))
    # two adjacent vertices form an oriented 2-cycle: multiplicities (1,1) only
    assert is_simple_hex(h(0, 0, 0, 1, 1, 0))
    assert not is_simple_hex(h(2, 2, 0, 0, 0, 0))
    # disconnected support never carries a simple
    assert not is_simple_hex(h(1, 1, 0, 1, 1, 0))
    assert not is_simple_hex(h(1, 0, 1, 0, 0, 0))


def test_hex_and_gamma_criteria_are_consistent():
    # a type admits a simple iff some multiplicity vector above it does
    for n in range(1, 7):
        by_alpha = {}
        for vec in enumerate_hex(n):
            by_alpha.setdefault(hex_to_gamma(vec), []).append(vec)
        for alpha, hexes in by_alpha.items():
            assert is_simple_gamma(alpha) == any(is_simple_hex(v) for v in hexes), alpha


# ---------------------------------------------------------------------------
# extension-count formulas
# ---------------------------------------------------------------------------

def test_ext_gamma_self_values():
    assert ext_gamma_self(V1) == 0
    assert ext_gamma_self(g(1, 1, 1, 1, 0)) == 1
    assert ext_gamma_self(g(2, 2, 2, 1, 1)) == 3
    with pytest.raises(NotSimpleDimension):
        ext_gamma_self(g(2, 0, 1, 1, 0))


def test_ext_gamma_self_zero_only_in_dimension_one():
    for n in range(1, 8):
        for v in enumerate_simple_gamma(n):
            assert (ext_gamma_self(v) == 0) == (n == 1)


def test_ext_gamma_pair_values():
    assert ext_gamma_pair(V1, g(0, 1, 0, 1, 0)) == 1
    assert ext_gamma_pair(V1, g(0, 1, 1, 0, 0)) == 0
    assert ext_gamma_pair(g(1, 1, 1, 1, 0), g(0, 1, 0, 0, 1)) == 1
    with pytest.raises(NotSimpleDimension):
        ext_gamma_pair(V1, g(2, 0, 1, 1, 0))


def test_ext_gamma_pair_symmetric_and_twist_invariant():
    simples = [v for n in range(1, 4) for v in enumerate_simple_gamma(n)]
    for a, b in itertools.product(simples, simples):
        assert ext_gamma_pair(a, b) == ext_gamma_pair(b, a)
        if not (a == b and a.n == 1):
            # two simples of the same one-dimensional type are always
            # isomorphic, so the non-isomorphic pair count is undefined there
            assert ext_gamma_pair(a, b) >= 0
        for k in range(6):
            assert ext_gamma_pair(twist_gamma(a, k), twist_gamma(b, k)) == ext_gamma_pair(a, b)
            assert ext_gamma_self(twist_gamma(a, k)) == ext_gamma_self(a)


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------

def test_enumerate_dimension_one():
    vecs = enumerate_simple_gamma(1)
    assert len(vecs) == 6
    assert set(vecs) == set(orbit_gamma(V1))
    assert simple_orbit_classes(1) == [g(0, 1, 0, 0, 1)]


def test_enumerate_dimension_two():
    assert enumerate_simple_gamma(2) == [
        g(1, 1, 0, 1, 1), g(1, 1, 1, 0, 1), g(1, 1, 1, 1, 0),
    ]
    assert len(simple_orbit_classes(2)) == 1


def test_enumerate_dimension_three():
    assert enumerate_simple_gamma(3) == [g(1, 2, 1, 1, 1), g(2, 1, 1, 1, 1)]
    assert simple_orbit_classes(3) == [g(1, 2, 1, 1, 1)]


def test_enumerate_dimension_four():
    vecs = enumerate_simple_gamma(4)
    assert vecs == [g(2, 2, 1, 1, 2), g(2, 2, 1, 2, 1), g(2, 2, 2, 1, 1)]
    assert vecs == sorted(vecs)


def test_enumeration_is_lex_sorted_everywhere():
    for n in range(1, 8):
        vecs = enumerate_simple_gamma(n)
        assert vecs == sorted(vecs)
        assert all(v.n == n for v in vecs)
