"""Numeric rank machinery and the Hom / Ext oracles on known cases."""

from fractions import Fraction

import numpy as np
import pytest

from b3rep import (
    B3,
    GAMMA,
    ExactScalar,
    GammaDimVector,
    RepPair,
    SemisimpleSpec,
    SpecEntry,
    ToleranceAmbiguity,
    ToleranceConfig,
    assemble,
    coboundary_defects_numeric,
    cocycle_dim_numeric,
    cocycle_dims_numeric,
    enumerate_simple_gamma,
    ext_dim_numeric,
    ext_gamma_pair,
    ext_gamma_self,
    hom_dim_numeric,
    numeric_kernel_dim,
    numeric_rank,
    one_dim_rep,
    random_simple_gamma,
    scale_rep,
)
from b3rep.extoracle import (
    PairStack,
    _ranks,
    cocycle_matrix,
    commutant_matrix,
    ext_dims_numeric,
    hom_dims_numeric,
)

ONE = ExactScalar.one()


# ---------------------------------------------------------------------------
# rank / kernel plumbing
# ---------------------------------------------------------------------------

def test_tolerance_config_invariants():
    with pytest.raises(ValueError):
        ToleranceConfig(rel_tol=1e-12, abs_floor=1e-8)
    with pytest.raises(ValueError):
        ToleranceConfig(rel_tol=2.0)
    ToleranceConfig(rel_tol=1e-6, abs_floor=1e-14)


def test_kernel_dim_basics():
    assert numeric_kernel_dim(np.eye(3)) == 0
    assert numeric_kernel_dim(np.ones((2, 2))) == 1
    assert numeric_kernel_dim(np.zeros((0, 5))) == 5
    assert numeric_kernel_dim(np.zeros((4, 4))) == 4
    assert numeric_rank(np.diag([1.0, 1e-3, 1e-15])) == 2


def rank_decisions(*diagonals):
    """(rank, ambiguous) of each diagonal matrix with the given diagonal,
    zero-padded to one shape and ranked as one stack."""
    width = max(len(d) for d in diagonals)
    M = np.stack([np.diag(np.pad(np.asarray(d, dtype=float), (0, width - len(d))))
                  for d in diagonals])
    ranks, ambiguous = _ranks(M, ToleranceConfig())  # rel_tol 1e-8, abs_floor 1e-12
    return list(zip(ranks.tolist(), ambiguous.tolist()))


def test_rank_rule_per_matrix():
    # clean gap: 1e-12 is far below the threshold 1e-8
    assert rank_decisions([1.0, 1e-3, 1e-12]) == [(2, False)]
    # within a factor 10 of the threshold, on either side, is ambiguous
    assert rank_decisions([1.0, 5e-8], [1.0, 2e-9], [1.0, 2e-7], [1.0, 5e-10]) == \
        [(2, True), (1, True), (2, False), (1, False)]
    # each matrix against its own largest singular value: 1e-6 counts even
    # next to a matrix whose largest is 1e4
    assert rank_decisions([1e4], [1e-6]) == [(1, False), (1, False)]
    # below abs_floor a matrix is the zero map, and never ambiguous
    assert rank_decisions([1e-13, 1e-14], [1.0]) == [(0, False), (1, False)]
    # empty matrices have rank 0, stacked or single
    ranks, ambiguous = _ranks(np.zeros((3, 0, 4)), ToleranceConfig())
    assert ranks.tolist() == [0, 0, 0] and not ambiguous.any()
    assert numeric_rank(np.zeros((0, 5))) == 0
    # the one-matrix rank is the same rule
    assert numeric_rank(np.diag([3.0, 1.0, 1e-13])) == 2


def test_near_threshold_singular_value_is_ambiguous():
    # a clean system at default tolerance turns ambiguous when the
    # threshold is pushed into the spectrum
    v = one_dim_rep(0)
    assert ext_dim_numeric(v, v, B3) == 1
    loose = ToleranceConfig(rel_tol=0.9, abs_floor=1e-13)
    with pytest.raises(ToleranceAmbiguity):
        ext_dim_numeric(v, v, B3, loose)
    # the cocycle dimension alone checks its threshold too
    assert cocycle_dim_numeric(v, v, B3) == 1
    with pytest.raises(ToleranceAmbiguity):
        cocycle_dim_numeric(v, v, B3, loose)


# ---------------------------------------------------------------------------
# the linear systems against np.kron spellings
# ---------------------------------------------------------------------------

def reference_commutant(V, W):
    iv, iw = np.eye(V.n), np.eye(W.n)
    return np.vstack([np.kron(iw, V.A.T) - np.kron(W.A, iv),
                      np.kron(iw, V.B.T) - np.kron(W.B, iv)])


def reference_cocycle(V, W, group_kind):
    iv, iw = np.eye(V.n), np.eye(W.n)
    block_x = np.kron(iw, V.A.T) + np.kron(W.A, iv)
    block_y = (np.kron(iw, (V.B @ V.B).T) + np.kron(W.B, V.B.T)
               + np.kron(W.B @ W.B, iv))
    if group_kind == B3:
        return np.hstack([block_x, -block_y])
    zero = np.zeros_like(block_x)
    return np.block([[block_x, zero], [zero, block_y]])


def same_bits(M, ref):
    return M.dtype == ref.dtype and M.shape == ref.shape and M.tobytes() == ref.tobytes()


def test_systems_equal_kron_references_bit_for_bit():
    # n_V != n_W and a rescaled domain, so a transposed or swapped term
    # changes the shape or the values
    reps = [random_simple_gamma(alpha, seed=5).rep
            for alpha in (GammaDimVector(1, 1, 1, 1, 0), GammaDimVector(2, 1, 1, 1, 1),
                          GammaDimVector(2, 2, 2, 1, 1))]
    lam = ExactScalar(Fraction(3, 2), Fraction(1, 7))
    for V in reps:
        for W in reps:
            for dom in (V, scale_rep(V, lam)):
                assert same_bits(commutant_matrix(dom, W), reference_commutant(dom, W))
                for kind in (B3, GAMMA):
                    assert same_bits(cocycle_matrix(dom, W, kind),
                                     reference_cocycle(dom, W, kind))


# ---------------------------------------------------------------------------
# stacks of equal-shape pairs
# ---------------------------------------------------------------------------

def simples_of_dimension(n, count, seed):
    types = enumerate_simple_gamma(n)
    return [random_simple_gamma(types[i % len(types)], seed + i).rep for i in range(count)]


def stack(reps):
    return PairStack(np.stack([r.A for r in reps]), np.stack([r.B for r in reps]))


@pytest.mark.parametrize("n_v, n_w", [(1, 1), (2, 2), (3, 3), (1, 3), (3, 2)])
def test_stacked_oracles_equal_per_pair_results(n_v, n_w):
    # the stacked systems equal the per-pair np.kron spellings bit for
    # bit, and the stacked dimensions the per-pair ranks of those
    quotient = list(zip(simples_of_dimension(n_v, 6, 0), simples_of_dimension(n_w, 6, 50)))
    if n_v == n_w:
        quotient += [(v, v) for v, _ in quotient[:3]]
    lam = ExactScalar(Fraction(3, 2), Fraction(1, 7))
    braid = [(scale_rep(v, lam), scale_rep(w, mu)) for v, w in quotient
             for mu in (lam, ExactScalar.zeta6(1), ONE)]
    for pairs, kind in ((quotient, GAMMA), (braid, B3)):
        V, W = stack([v for v, _ in pairs]), stack([w for _, w in pairs])
        commutants, cocycles = commutant_matrix(V, W), cocycle_matrix(V, W, kind)
        for i, (v, w) in enumerate(pairs):
            assert same_bits(commutants[i], reference_commutant(v, w))
            assert same_bits(cocycles[i], reference_cocycle(v, w, kind))
        ranks = [numeric_rank(reference_commutant(v, w)) for v, w in pairs]
        ext = [numeric_kernel_dim(reference_cocycle(v, w, kind)) - rank
               for (v, w), rank in zip(pairs, ranks)]
        assert ext_dims_numeric(pairs, kind) == ext
        assert ext == [ext_dim_numeric(v, w, kind) for v, w in pairs]
        assert cocycle_dims_numeric(pairs, kind) == \
            [numeric_kernel_dim(reference_cocycle(v, w, kind)) for v, w in pairs]
        assert coboundary_defects_numeric(pairs, kind) == [0] * len(pairs)
        assert hom_dims_numeric(pairs, kind) == [n_v * n_w - rank for rank in ranks]
        assert hom_dims_numeric(pairs, kind) == [hom_dim_numeric(v, w, kind) for v, w in pairs]
    assert len(set(ext)) > 1 or n_v * n_w == 1


def test_stacked_ranks_take_each_matrix_threshold():
    # under one shared threshold the small copy would lose its 1e-3 value
    M = np.diag([1.0, 1e-3, 0.0])
    ranks, ambiguous = _ranks(np.stack([M, 1e-7 * M, 0 * M]), ToleranceConfig())
    assert ranks.tolist() == [2, 2, 0] and not ambiguous.any()


def test_one_ambiguous_element_makes_the_stacked_ext_raise():
    # eigenvalues 1 and 1 + 1e-8 next to 8: a commutant singular value
    # about 5e-9 of the largest, within a factor 10 of rel_tol
    def diagonal(moduli):
        return RepPair(np.diag([complex(r ** 3) for r in moduli]),
                       np.diag([complex(r ** 2) for r in moduli]), B3)

    clean = diagonal([Fraction(1), Fraction(2), Fraction(3)])
    near = diagonal([Fraction(1), 1 + Fraction(1, 10 ** 8), Fraction(2)])
    assert ext_dims_numeric([(clean, clean)] * 2, B3) == [3, 3]
    with pytest.raises(ToleranceAmbiguity):
        ext_dims_numeric([(clean, clean), (near, near), (clean, clean)], B3)
    # Hom and the coboundary defect do not check: each element gets its
    # own answer, and the near pair's two small values fall under its
    # threshold
    assert hom_dims_numeric([(clean, clean), (near, near)], B3) == [3, 5]
    assert coboundary_defects_numeric([(clean, clean), (near, near)], B3) == [0, 0]


# ---------------------------------------------------------------------------
# Hom
# ---------------------------------------------------------------------------

def test_hom_between_characters():
    v0, v1 = one_dim_rep(0), one_dim_rep(1)
    assert hom_dim_numeric(v0, v0, GAMMA) == 1
    assert hom_dim_numeric(v0, v1, GAMMA) == 0


def test_hom_of_isotypic_double():
    spec = SemisimpleSpec((SpecEntry(GammaDimVector(1, 1, 1, 1, 0), ONE, 2, "s"),))
    rep = assemble(spec, seed=1)
    assert hom_dim_numeric(rep, rep, B3) == 4


def test_hom_requires_matching_kind_tags():
    v0 = one_dim_rep(0)
    scaled = scale_rep(v0, ExactScalar.from_rational(2))
    with pytest.raises(ValueError):
        hom_dim_numeric(v0, scaled, GAMMA)
    assert hom_dim_numeric(v0, scaled, B3) == 0


# ---------------------------------------------------------------------------
# Ext over the quotient: the hexagon read off numerically
# ---------------------------------------------------------------------------

def test_characters_reproduce_the_hexagon():
    reps = [one_dim_rep(u) for u in range(6)]
    for i in range(6):
        for j in range(6):
            expected = 1 if (i - j) % 6 in (1, 5) else 0
            assert ext_dim_numeric(reps[i], reps[j], GAMMA) == expected, (i, j)


def test_quotient_self_extensions_match_formula():
    for alpha in (GammaDimVector(1, 1, 1, 1, 0), GammaDimVector(2, 1, 1, 1, 1),
                  GammaDimVector(2, 2, 2, 1, 1)):
        inst = random_simple_gamma(alpha, seed=17)
        assert ext_dim_numeric(inst.rep, inst.rep, GAMMA) == ext_gamma_self(alpha)


def test_quotient_self_extensions_dimension_four():
    for alpha in enumerate_simple_gamma(4):
        expected = ext_gamma_self(alpha)
        for seed in range(20):
            inst = random_simple_gamma(alpha, seed=seed)
            assert ext_dim_numeric(inst.rep, inst.rep, GAMMA) == expected, (alpha, seed)


def test_quotient_pairs_match_formula():
    a = GammaDimVector(1, 1, 1, 1, 0)
    b = GammaDimVector(0, 1, 0, 0, 1)
    s = random_simple_gamma(a, seed=21)
    t = random_simple_gamma(b, seed=22)
    assert ext_dim_numeric(s.rep, t.rep, GAMMA) == ext_gamma_pair(a, b) == 1


# ---------------------------------------------------------------------------
# Ext over the braid relation: the three regimes
# ---------------------------------------------------------------------------

def test_braid_self_extension_gains_one_dimension():
    v0 = one_dim_rep(0)
    assert ext_dim_numeric(v0, v0, B3) == 1
    inst = random_simple_gamma(GammaDimVector(1, 1, 1, 1, 0), seed=3)
    assert ext_dim_numeric(inst.rep, inst.rep, B3) == ext_gamma_self(inst.alpha) + 1
    lam = ExactScalar(2, 0)
    scaled = scale_rep(inst.rep, lam)
    assert ext_dim_numeric(scaled, scaled, B3) == ext_gamma_self(inst.alpha) + 1


def test_braid_incommensurable_scalars_kill_extensions():
    v0 = one_dim_rep(0)
    assert ext_dim_numeric(v0, scale_rep(v0, ExactScalar.from_rational(2)), B3) == 0
    inst = random_simple_gamma(GammaDimVector(1, 1, 1, 1, 0), seed=4)
    w = scale_rep(inst.rep, ExactScalar.from_rational(3))
    assert ext_dim_numeric(inst.rep, w, B3) == 0
    assert ext_dim_numeric(w, inst.rep, B3) == 0


def test_braid_sixth_root_twist_reduces_to_quotient_case():
    v0 = one_dim_rep(0)
    for k in range(6):
        w = scale_rep(v0, ExactScalar.zeta6(k))
        expected = 1 if k in (1, 5) else (1 if k == 0 else 0)
        assert ext_dim_numeric(v0, w, B3) == expected, k


def test_every_coboundary_is_a_cocycle():
    a = GammaDimVector(1, 1, 1, 1, 0)
    s = random_simple_gamma(a, seed=31)
    t = random_simple_gamma(a, seed=32)
    quotient = [(s.rep, t.rep), (s.rep, s.rep), (one_dim_rep(0), s.rep)]
    assert coboundary_defects_numeric(quotient[:2], GAMMA) == [0, 0]
    assert coboundary_defects_numeric(quotient[2:], GAMMA) == [0]
    lam = ExactScalar(Fraction(3, 2), Fraction(1, 7))
    braid = [(scale_rep(v, lam), scale_rep(w, lam)) for v, w in quotient[:2]]
    assert coboundary_defects_numeric(braid, B3) == [0, 0]
    # B doubled: A^2 = 1 but B^3 = 8, so the coboundary F -> (F A - A F,
    # F B' - B F) of F = I is no cocycle; the defect is F -> -7 F, of full rank
    doubled = RepPair(s.rep.A, 2 * s.rep.B, B3)
    assert coboundary_defects_numeric([(doubled, s.rep)], B3) == [4]


def test_cocycle_space_of_braid_relation_contains_boundaries():
    s = random_simple_gamma(GammaDimVector(2, 1, 1, 1, 1), seed=8)
    z = cocycle_dim_numeric(s.rep, s.rep, B3)
    hom = hom_dim_numeric(s.rep, s.rep, B3)
    b = s.rep.n ** 2 - hom
    assert z - b == ext_gamma_self(s.alpha) + 1
