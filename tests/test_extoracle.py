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
    numeric_rank,
    one_dim_rep,
    random_simple_gamma,
    scale_rep,
)
from b3rep import extoracle
from b3rep.extoracle import (
    ABS_FLOOR,
    PairStack,
    _ranks,
    block_cocycle_dims,
    cocycle_matrix,
    commutant_matrix,
    ext_dims_numeric,
    hom_dims_numeric,
)
from b3rep.factory import _unitaries, random_simples_gamma

ONE = ExactScalar.one()


def random_unitary(n, rng):
    """Haar-like unitary, deterministic given the generator state."""
    return _unitaries(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))


# ---------------------------------------------------------------------------
# rank / kernel plumbing
# ---------------------------------------------------------------------------

def test_tolerance_config_invariants():
    # rel_tol lies strictly between the absolute floor and 1
    with pytest.raises(ValueError, match=r"need 0 < abs_floor < rel_tol < 1, got "
                                         r"abs_floor=1e-12, rel_tol=1e-13"):
        ToleranceConfig(rel_tol=1e-13)
    with pytest.raises(ValueError):
        ToleranceConfig(rel_tol=ABS_FLOOR)
    with pytest.raises(ValueError):
        ToleranceConfig(rel_tol=2.0)
    ToleranceConfig(rel_tol=1e-6)


def test_kernel_dim_basics():
    assert numeric_rank(np.eye(3)) == 3
    assert numeric_rank(np.ones((2, 2))) == 1
    assert numeric_rank(np.zeros((0, 5))) == 0
    assert numeric_rank(np.zeros((4, 4))) == 0
    assert numeric_rank(np.diag([1.0, 1e-3, 1e-15])) == 2


def rank_decisions(*diagonals):
    """(rank, ambiguous) of each diagonal matrix with the given diagonal,
    zero-padded to one shape and ranked as one stack."""
    width = max(len(d) for d in diagonals)
    M = np.stack([np.diag(np.pad(np.asarray(d, dtype=float), (0, width - len(d))))
                  for d in diagonals])
    ranks, ambiguous = _ranks(M, ToleranceConfig())  # rel_tol 1e-8, ABS_FLOOR 1e-12
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
    # below ABS_FLOOR a matrix is the zero map, and never ambiguous
    assert rank_decisions([1e-13, 1e-14], [1.0]) == [(0, False), (1, False)]
    # empty matrices have rank 0, stacked or single
    ranks, ambiguous = _ranks(np.zeros((3, 0, 4)), ToleranceConfig())
    assert ranks.tolist() == [0, 0, 0] and not ambiguous.any()
    assert numeric_rank(np.zeros((0, 5))) == 0
    # the one-matrix rank is the same rule
    assert numeric_rank(np.diag([3.0, 1.0, 1e-13])) == 2


@pytest.mark.parametrize("M", [np.diag([1.4127555772777218, 0.0]),
                               1.4127555772777218 * np.eye(2)])
def test_the_largest_singular_value_is_clean_at_the_coarsest_tol(M):
    # at rel_tol 0.1 the upper end of the ambiguity band is sigma_max
    # itself; computed as (0.1 sigma_max) * 10 it rounded above sigma_max
    # for about a quarter of all values, which flagged sigma_max and every
    # singular value tied with it
    ranks, ambiguous = _ranks(M.astype(complex), ToleranceConfig(0.1))
    assert (int(ranks), bool(ambiguous)) == (np.count_nonzero(np.diag(M)), False)


def test_near_threshold_singular_value_is_ambiguous():
    # a clean system at default tolerance turns ambiguous when the
    # threshold is pushed into the spectrum
    v = one_dim_rep(0)
    assert ext_dim_numeric(v, v, B3) == 1
    loose = ToleranceConfig(rel_tol=0.9)
    with pytest.raises(ToleranceAmbiguity):
        ext_dim_numeric(v, v, B3, loose)
    # the cocycle dimension alone checks its threshold too
    assert cocycle_dim_numeric(v, v, B3) == 1
    with pytest.raises(ToleranceAmbiguity):
        cocycle_dim_numeric(v, v, B3, loose)
    # and so does Hom, on a pair of distinct characters
    w = one_dim_rep(1)
    assert hom_dim_numeric(v, w) == 0
    with pytest.raises(ToleranceAmbiguity):
        hom_dim_numeric(v, w, loose)


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
        cocycle_dims = [2 * v.n * w.n - numeric_rank(reference_cocycle(v, w, kind))
                        for v, w in pairs]
        ext = [cocycle - rank for cocycle, rank in zip(cocycle_dims, ranks)]
        assert ext_dims_numeric(pairs, kind) == ext
        assert ext == [ext_dim_numeric(v, w, kind) for v, w in pairs]
        assert cocycle_dims_numeric(pairs, kind) == cocycle_dims
        assert coboundary_defects_numeric(pairs, kind) == [0] * len(pairs)
        assert hom_dims_numeric(pairs) == [n_v * n_w - rank for rank in ranks]
        assert hom_dims_numeric(pairs) == [hom_dim_numeric(v, w) for v, w in pairs]
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
    # Hom ranks the same commutant, and raises on the near pair too
    with pytest.raises(ToleranceAmbiguity):
        hom_dims_numeric([(clean, clean), (near, near)])
    assert hom_dims_numeric([(clean, clean)] * 2) == [3, 3]
    # the coboundary defect does not check: each element gets its own
    # answer, and the near pair's two small values fall under its threshold
    assert coboundary_defects_numeric([(clean, clean), (near, near)], B3) == [0, 0]


# ---------------------------------------------------------------------------
# Hom
# ---------------------------------------------------------------------------

def test_hom_between_characters():
    v0, v1 = one_dim_rep(0), one_dim_rep(1)
    assert hom_dim_numeric(v0, v0) == 1
    assert hom_dim_numeric(v0, v1) == 0


def test_hom_of_isotypic_double():
    spec = SemisimpleSpec((SpecEntry(GammaDimVector(1, 1, 1, 1, 0), ONE, 2, "s"),))
    rep = assemble(spec, seed=1)
    assert hom_dim_numeric(rep, rep) == 4


def test_hom_requires_matching_kind_tags():
    v0 = one_dim_rep(0)
    scaled = scale_rep(v0, ExactScalar.from_rational(2))
    # Hom is one linear condition for both relation kinds, so it takes a
    # Gamma-tagged pair against a B3-tagged one
    assert scaled.relation_kind == B3
    assert hom_dim_numeric(v0, scaled) == 0


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


@pytest.mark.parametrize("modulus", [10 ** 6, 10 ** 30, Fraction(1, 10 ** 30)])
def test_braid_self_extension_at_distant_moduli(modulus):
    # the commutant's A rows scale as |lambda|^3 and its B rows as
    # |lambda|^2; under one threshold without unit scaling the B rows were
    # lost (ambiguous at 10^6, Hom 5 and Ext 7 at 10^30)
    inst = random_simple_gamma(GammaDimVector(2, 1, 1, 1, 1), seed=1)
    v = scale_rep(inst.rep, ExactScalar.from_rational(modulus))
    assert hom_dim_numeric(v, v) == 1
    assert ext_dim_numeric(v, v, B3) == ext_gamma_self(inst.alpha) + 1


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


@pytest.mark.parametrize("modulus", [1, 10, 10 ** 3, 10 ** 6])
def test_coboundary_defect_of_a_small_broken_pair_next_to_a_large_one(modulus):
    # one scale for the product, set by the larger pair, put the broken
    # pair's defect under abs_floor: 0 from modulus 10^3 on
    s = random_simple_gamma(GammaDimVector(1, 1, 1, 1, 0), seed=3)
    doubled = RepPair(s.rep.A, 2 * s.rep.B, B3)
    large = scale_rep(s.rep, ExactScalar.from_rational(modulus))
    assert coboundary_defects_numeric([(doubled, large), (large, doubled)], B3) == [4, 4]
    assert coboundary_defects_numeric([(s.rep, large), (large, s.rep)], B3) == [0, 0]


# ---------------------------------------------------------------------------
# the reduced cocycle systems of a list of blocks
# ---------------------------------------------------------------------------

REDUCED_SCALARS = (ONE, ExactScalar.zeta6(1), ExactScalar(Fraction(3, 2), Fraction(1, 7)),
                   ExactScalar.from_rational(10 ** 30),
                   ExactScalar.from_rational(Fraction(1, 10 ** 30)))


def block_dims(blocks, tol=ToleranceConfig()):
    """The k x k matrix of dim Z(V_i -> V_j) of the blocks, all of one
    owner, from ``block_cocycle_dims``; raises ToleranceAmbiguity with the
    owner's reason when it is unclear."""
    i, j, z, (reason,) = block_cocycle_dims(blocks, np.zeros(len(blocks), dtype=int), tol)
    if reason:
        raise ToleranceAmbiguity(reason)
    sizes = np.array([b.n for b in blocks])
    dims = np.multiply.outer(sizes, sizes)
    dims[i, j] = z
    return dims


def self_pairs(reps):
    return [(v, v) for v in reps]


def self_dims(reps):
    """dim Z(V, V) of each block, each analysed on its own."""
    return [int(block_dims([v])[0, 0]) for v in reps]


@pytest.mark.parametrize("d", range(1, 9))
def test_reduced_self_cocycles_match_the_full_system(d):
    reps = [scale_rep(inst.rep, lam)
            for alpha in enumerate_simple_gamma(d)
            for inst in random_simples_gamma(alpha, range(3))
            for lam in REDUCED_SCALARS]
    assert self_dims(reps) == cocycle_dims_numeric(self_pairs(reps))


def test_reduced_self_cocycles_of_dense_semisimple_blocks():
    # summands with equal lambda^6, mixed by a unitary: A^2 is scalar but
    # the eigenspaces of A sit in special position against those of B
    lam, minus_lam = (ExactScalar(Fraction(3, 2), q) for q in (Fraction(1, 7), Fraction(9, 14)))
    dim1, dim2, dim3, dim4 = (GammaDimVector(1, 0, 1, 0, 0), GammaDimVector(1, 1, 1, 1, 0),
                              GammaDimVector(2, 1, 1, 1, 1), GammaDimVector(2, 2, 2, 1, 1))
    specs = [((dim2, lam, 2, "s"),),
             ((dim2, ONE, 1, "s"), (dim2, ExactScalar.zeta6(1), 1, "t")),
             ((dim3, ONE, 1, "s"), (dim1, ExactScalar.zeta6(2), 1, "t")),
             ((dim4, lam, 1, "s"), (dim2, minus_lam, 1, "t"))]
    reps = []
    for seed, entries in enumerate(specs):
        rep = assemble(SemisimpleSpec(tuple(SpecEntry(*e) for e in entries)), seed=seed)
        u = random_unitary(rep.n, np.random.default_rng(seed))
        reps.append(RepPair(u @ rep.A @ u.conj().T, u @ rep.B @ u.conj().T, B3))
    assert np.diagonal(block_dims(reps)).tolist() == \
        [cocycle_dim_numeric(v, v) for v in reps]


def test_reduced_self_cocycles_need_no_normal_A():
    # a non-unitary similarity makes the eigenprojectors oblique
    inst = random_simple_gamma(GammaDimVector(3, 3, 2, 2, 2), seed=4)
    rng = np.random.default_rng(4)
    G = np.eye(6) + 0.5 * (rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6)))
    G_inv = np.linalg.inv(G)
    v = RepPair(G @ inst.rep.A @ G_inv, G @ inst.rep.B @ G_inv, B3)
    assert self_dims([v]) == cocycle_dims_numeric([(v, v)]) \
        == [cocycle_dim_numeric(inst.rep, inst.rep)]
    # a real pair whose A^2 = -I has a negative real scalar
    rotation = np.kron(np.eye(2), [[0.0, -1.0], [1.0, 0.0]])
    real = RepPair(rotation, -np.eye(4), B3)
    assert self_dims([real]) == cocycle_dims_numeric([(real, real)])


@pytest.fixture
def full_shapes(monkeypatch):
    """(n_V, n_W) of each pair that block_cocycle_dims ranks on the full
    cocycle system."""
    shapes = []
    full = extoracle.cocycle_dims_numeric

    def spy(pairs, kind, tol):
        shapes.extend((v.n, w.n) for v, w in pairs)
        return full(pairs, kind, tol)

    monkeypatch.setattr(extoracle, "cocycle_dims_numeric", spy)
    return shapes


def test_reduced_self_cocycles_refuse_a_non_scalar_square(full_shapes):
    # A^2 = diag(1, 1, 64, 64): two moduli in one block, whose pairs with
    # every block, itself included, take the full system
    inst = random_simple_gamma(GammaDimVector(1, 1, 1, 1, 0), seed=2)
    scaled = scale_rep(inst.rep, ExactScalar.from_rational(2))
    A, B = np.zeros((4, 4), complex), np.zeros((4, 4), complex)
    A[:2, :2], A[2:, 2:] = inst.rep.A, scaled.A
    B[:2, :2], B[2:, 2:] = inst.rep.B, scaled.B
    v = RepPair(A, B, B3)
    blocks = [inst.rep, v]
    expected = [[cocycle_dim_numeric(x, y) for y in blocks] for x in blocks]
    full_shapes.clear()
    assert block_dims(blocks).tolist() == expected
    assert sorted(full_shapes) == [(2, 4), (4, 2), (4, 4)]


def test_reduced_self_cocycles_raise_on_an_ambiguous_threshold():
    inst = random_simple_gamma(GammaDimVector(3, 2, 2, 2, 1), seed=0)
    assert self_dims([inst.rep]) == [cocycle_dim_numeric(inst.rep, inst.rep)]
    loose = ToleranceConfig(rel_tol=0.9)
    with pytest.raises(ToleranceAmbiguity):
        block_dims([inst.rep], loose)


CROSS_SCALARS = (ONE, ExactScalar.zeta6(1), ExactScalar.zeta6(2), ExactScalar.zeta6(3),
                 ExactScalar(1, Fraction(1, 7)), ExactScalar(Fraction(3, 2), Fraction(1, 7)),
                 ExactScalar(Fraction(3, 2), Fraction(9, 14)),
                 ExactScalar.from_rational(10 ** 30),
                 ExactScalar.from_rational(Fraction(1, 10 ** 30)))


@pytest.mark.parametrize("seed", range(4))
def test_reduced_cross_cocycles_match_the_full_system(seed):
    # random pairs of simples of dimension <= 8 at random scalars: equal
    # c where the scalars differ by a sixth root of unity, distinct else
    rng = np.random.default_rng(seed)
    simples = [alpha for d in range(1, 9) for alpha in enumerate_simple_gamma(d)]
    pairs = []
    for _ in range(60):
        v, w = (scale_rep(random_simple_gamma(simples[rng.integers(len(simples))],
                                              int(rng.integers(10 ** 6))).rep,
                          CROSS_SCALARS[rng.integers(len(CROSS_SCALARS))])
                for _ in range(2))
        pairs.append((v, w))
    expected = [cocycle_dim_numeric(v, w) for v, w in pairs]
    assert [block_dims([v, w])[0, 1] for v, w in pairs] == expected
    equal_c = [i for i, (v, w) in enumerate(pairs)
               if np.isclose(np.trace(v.A @ v.A) / v.n, np.trace(w.A @ w.A) / w.n)]
    assert 10 < len(equal_c) < 50
    assert any(expected[i] > v.n * w.n for i in equal_c for v, w in [pairs[i]])


@pytest.mark.parametrize("seed", range(2))
def test_reduced_cross_cocycles_share_the_roots_of_their_group(seed):
    # lambda^6 = -1: the computed scalars of a block and of its complex
    # conjugate lie on either side of the branch cut, so their own
    # principal roots s and t differ in sign and by a cube root of unity;
    # each block takes its group's roots, or the labels of its
    # eigenprojectors would not match those of the other blocks
    rng = np.random.default_rng(seed)
    simples = [alpha for d in range(2, 6) for alpha in enumerate_simple_gamma(d)]
    reps = [scale_rep(random_simple_gamma(simples[rng.integers(len(simples))],
                                          int(rng.integers(10 ** 6))).rep,
                      ExactScalar(1, Fraction(1, 12) + Fraction(int(rng.integers(6)), 6)))
            for _ in range(3)]
    reps += [RepPair(v.A.conj(), v.B.conj(), B3) for v in reps]
    assert block_dims(reps).tolist() == \
        [[cocycle_dim_numeric(v, w) for w in reps] for v in reps]


def test_reduced_cross_cocycles_at_distinct_scalars_rank_nothing(monkeypatch):
    # c_V != c_W: D_X is fixed by D_Y, so dim Z = n_V n_W with no system;
    # only the self pair of each block is ranked
    v = random_simple_gamma(GammaDimVector(3, 3, 2, 2, 2), seed=1).rep
    w = scale_rep(random_simple_gamma(GammaDimVector(2, 2, 2, 1, 1), seed=2).rep,
                  ExactScalar(1, Fraction(1, 7)))
    far = scale_rep(v, ExactScalar.from_rational(10 ** 30))
    pairs = [(v, w), (w, v), (v, far), (far, w)]
    expected = [cocycle_dim_numeric(*pair) for pair in pairs]
    assert expected == [24, 24, 36, 24]
    ranked = []
    ranks = extoracle._ranks

    def spy(M, tol):
        ranked.append(len(M))
        return ranks(M, tol)

    monkeypatch.setattr(extoracle, "_ranks", spy)
    dims = block_dims([v, w, far])
    assert [dims[0, 1], dims[1, 0], dims[0, 2], dims[2, 1]] == expected
    assert sum(ranked) == 3


def test_reduced_cocycles_of_dense_conjugates():
    # a simple against its unitary and oblique conjugates (isomorphic, so
    # one more cocycle than coboundaries), and against a twist of them
    inst = random_simple_gamma(GammaDimVector(4, 3, 3, 2, 2), seed=6)
    rng = np.random.default_rng(6)
    u = random_unitary(7, rng)
    g = np.eye(7) + 0.5 * rng.standard_normal((7, 7)) / np.sqrt(7)
    reps = [inst.rep] + [RepPair(h @ inst.rep.A @ np.linalg.inv(h),
                                 h @ inst.rep.B @ np.linalg.inv(h), B3) for h in (u, g)]
    reps += [scale_rep(rep, ExactScalar.zeta6(1)) for rep in reps]
    assert block_dims(reps).tolist() == \
        [[cocycle_dim_numeric(v, w) for w in reps] for v in reps]


def test_reduced_cocycles_of_non_split_extensions():
    # 0 -> W -> E -> V -> 0 for adjacent characters: A^2 = B^3 = I on E,
    # which is not semisimple, so Z(E, X) and Z(X, E) differ for some X;
    # a system that mixed up the row and column bases would swap them
    extensions = []
    for i in range(6):
        for v, w in ((i, (i + 1) % 6), ((i + 1) % 6, i)):
            V, W = one_dim_rep(v), one_dim_rep(w)
            M = cocycle_matrix(V, W, GAMMA)
            dx, dy = np.linalg.svd(M)[2].conj()[np.linalg.matrix_rank(M):][0]
            extensions.append(RepPair(np.array([[W.A[0, 0], dx], [0, V.A[0, 0]]]),
                                      np.array([[W.B[0, 0], dy], [0, V.B[0, 0]]]), B3))
    chars = [RepPair(one_dim_rep(u).A, one_dim_rep(u).B, B3) for u in range(6)]
    blocks = chars + extensions
    pairs = [pair for e in range(6, len(blocks)) for x in range(len(blocks))
             for pair in ((e, x), (x, e))]
    expected = [cocycle_dim_numeric(blocks[v], blocks[w]) for v, w in pairs]
    assert expected[0::2] != expected[1::2]
    dims = block_dims(blocks)
    assert [dims[v, w] for v, w in pairs] == expected


def test_reduced_cross_cocycles_raise_near_equal_scalars():
    # c_W = c_V (1 + 3 rel_tol): within a factor 10 of the equality
    # threshold, so neither branch is safe
    v = random_simple_gamma(GammaDimVector(3, 3, 2, 2, 2), seed=3).rep
    r = 1 + Fraction(1, 2 * 10 ** 8)      # r^6 = 1 + 3e-8 to first order
    w = scale_rep(v, ExactScalar.from_rational(r))
    with pytest.raises(ToleranceAmbiguity):
        block_dims([v, w])
    far = scale_rep(v, ExactScalar.from_rational(1 + Fraction(1, 10 ** 7)))
    near = scale_rep(v, ExactScalar.from_rational(1 + Fraction(1, 10 ** 11)))
    dims = block_dims([v, far, near])
    assert [dims[0, 1], dims[0, 2]] == [36, cocycle_dim_numeric(v, near)] \
        == [36, cocycle_dim_numeric(v, v)]


def test_blocks_pair_only_inside_their_owner():
    # four blocks of one lambda^6, two owners: each owner gets the values
    # and the reason it gets alone, and no pair of two owners is computed
    v, w = (random_simple_gamma(GammaDimVector(2, 1, 1, 1, 1), seed=s).rep for s in (1, 2))
    r = 1 + Fraction(1, 2 * 10 ** 8)
    blocks = [v, w, v, scale_rep(w, ExactScalar.from_rational(r))]
    owners = np.array([0, 0, 1, 1])
    i, j, z, reasons = block_cocycle_dims(blocks, owners)
    assert (owners[i] == owners[j]).all()
    first = {(a, b): x for a, b, x in zip(i.tolist(), j.tolist(), z.tolist()) if a < 2}
    lone_i, lone_j, lone_z, _ = block_cocycle_dims(blocks[:2], [0, 0])
    assert first == dict(zip(zip(lone_i.tolist(), lone_j.tolist()), lone_z.tolist()))
    assert sorted(first) == [(0, 0), (0, 1), (1, 0), (1, 1)]
    assert reasons == ["", block_cocycle_dims(blocks[2:], [0, 0])[3][0]]
    assert reasons[1].startswith("two scalars within a factor 10")
    assert block_dims(blocks[:2]).tolist() == \
        [[cocycle_dim_numeric(x, y) for y in blocks[:2]] for x in blocks[:2]]


def test_a_coarse_rank_tolerance_keeps_the_scalar_grouping():
    # lambda^6 of the two blocks differ by 6e-4: distinct at the fixed
    # DEFAULT_TOL, whatever rank tolerance the caller asks for, so a
    # coarse tol cannot merge their groups and count cross cocycles
    v = random_simple_gamma(GammaDimVector(2, 1, 1, 1, 1), seed=0).rep
    blocks = [v, scale_rep(v, ExactScalar.from_rational(Fraction(10001, 10000)))]
    expected = block_dims(blocks)
    assert expected[0, 1] == expected[1, 0] == 3 * 3
    assert block_dims(blocks, ToleranceConfig(1e-2)).tolist() == expected.tolist()


def test_cocycle_space_of_braid_relation_contains_boundaries():
    s = random_simple_gamma(GammaDimVector(2, 1, 1, 1, 1), seed=8)
    z = cocycle_dim_numeric(s.rep, s.rep, B3)
    hom = hom_dim_numeric(s.rep, s.rep)
    b = s.rep.n ** 2 - hom
    assert z - b == ext_gamma_self(s.alpha) + 1
