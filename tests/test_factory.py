"""Matrix models: characters, generic simples, rescaling, assembly."""

import itertools
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from b3rep import (
    B3,
    DEFAULT_TOL,
    GAMMA,
    ExactScalar,
    GammaDimVector,
    GenerationFailed,
    InvalidSpec,
    IsomorphicDistinctEntries,
    NotSimpleDimension,
    OMEGA,
    RepPair,
    SemisimpleSpec,
    SpecEntry,
    assemble,
    derived_seed,
    entries_isomorphic,
    enumerate_simple_gamma,
    hom_dim_numeric,
    is_simple_gamma,
    one_dim_rep,
    random_simple_gamma,
    scale_rep,
    validate_rep,
)
from b3rep.extoracle import ABS_FLOOR, cocycle_matrix
from b3rep.factory import (
    _draw_simples,
    _span_dims,
    _spin_certified,
    _unitaries,
    random_simples_gamma,
)

ONE = ExactScalar.one()
ZETA = ExactScalar.zeta6(1)

ALPHA2 = GammaDimVector(1, 1, 1, 1, 0)
ALPHA3 = GammaDimVector(2, 1, 1, 1, 1)


def eigenvalue_multiset(M):
    return sorted(np.round(np.linalg.eigvals(M), 8), key=lambda c: (c.real, c.imag))


def dimension_vectors(n):
    """Every eigenvalue-multiplicity type of total dimension n, simple or not."""
    for a in range(n + 1):
        for x in range(n + 1):
            for y in range(n + 1 - x):
                yield GammaDimVector(a, n - a, x, y, n - x - y)


def balanced(d):
    """The simple type of dimension d with the most even multiplicities."""
    xyz = [d // 3 + (1 if i < d % 3 else 0) for i in range(3)]
    return GammaDimVector((d + 1) // 2, d // 2, *xyz)


def generic_pair(alpha, rng):
    """Exact eigenvalue diagonals of type alpha conjugated by random unitaries."""
    diag_a = np.diag(np.array([1.0] * alpha.a + [-1.0] * alpha.b, dtype=complex))
    diag_b = np.diag(np.array([1.0] * alpha.x + [OMEGA] * alpha.y
                              + [OMEGA ** 2] * alpha.z, dtype=complex))

    def unitary():
        z = rng.standard_normal((alpha.n, alpha.n)) \
            + 1j * rng.standard_normal((alpha.n, alpha.n))
        q, r = np.linalg.qr(z)
        return q * (np.diagonal(r) / np.abs(np.diagonal(r)))

    p, q = unitary(), unitary()
    return RepPair(p @ diag_a @ p.conj().T, q @ diag_b @ q.conj().T, GAMMA)


def word_span_dims(A, B):
    """Dimension of the span of all words in {A, B} for each pair of a
    stack (k, n, n), or for one pair (n, n): the span engine started at
    the identity, the Burnside oracle the spin certificate is held to."""
    return _span_dims(A, B, np.eye(A.shape[-1], dtype=complex))


def word_span_dim(V):
    return int(word_span_dims(V.A, V.B))


def burnside_simple(V):
    """Burnside: the pair is simple iff its words span all n x n matrices."""
    return word_span_dim(V) == V.n * V.n


def reference_word_span_dim(V, tol=DEFAULT_TOL):
    """The span test one candidate at a time, over left and right
    multiples of every accepted word, each Gram-Schmidt step against the
    whole basis: the reference for the level-batched word_span_dim."""
    n = V.n
    target = n * n
    basis = np.zeros((target, target), dtype=complex)
    count = 0

    def try_add(M) -> bool:
        nonlocal count
        v = M.reshape(-1)
        norm_v = np.linalg.norm(v)
        if norm_v < ABS_FLOOR:
            return False
        w = v - basis[:count].T @ (basis[:count].conj() @ v)
        w = w - basis[:count].T @ (basis[:count].conj() @ w)
        norm_w = np.linalg.norm(w)
        if norm_w <= tol.rel_tol * norm_v:
            return False
        basis[count] = w / norm_w
        count += 1
        return True

    frontier = [np.eye(n, dtype=complex)]
    try_add(frontier[0])
    while frontier and count < target:
        grown = []
        for word in frontier:
            for cand in (V.A @ word, V.B @ word, word @ V.A, word @ V.B):
                if try_add(cand):
                    grown.append(cand)
        frontier = grown
    return count


# ---------------------------------------------------------------------------
# characters
# ---------------------------------------------------------------------------

def test_one_dim_character_table():
    expected = [(1, 1), (-1, OMEGA), (1, OMEGA ** 2), (-1, 1), (1, OMEGA), (-1, OMEGA ** 2)]
    for u, (rho, tau) in enumerate(expected):
        rep = one_dim_rep(u)
        assert rep.relation_kind == GAMMA
        assert rep.A[0, 0] == rho
        assert rep.B[0, 0] == tau


def test_one_dim_relations_hold_tightly():
    for u in range(6):
        rep = one_dim_rep(u)
        assert abs(rep.A[0, 0] ** 2 - 1) < 1e-14
        assert abs(rep.B[0, 0] ** 3 - 1) < 1e-14


def test_one_dim_index_range():
    with pytest.raises(ValueError):
        one_dim_rep(6)
    with pytest.raises(ValueError):
        one_dim_rep(-1)


# ---------------------------------------------------------------------------
# generic simples
# ---------------------------------------------------------------------------

def test_dimension_one_has_no_freedom():
    inst = random_simple_gamma(GammaDimVector(1, 0, 1, 0, 0), seed=123)
    assert np.array_equal(inst.rep.A, np.array([[1.0 + 0j]]))
    assert np.array_equal(inst.rep.B, np.array([[1.0 + 0j]]))


def test_one_dimensional_draws_take_no_certificate(monkeypatch):
    # a 1 x 1 pair is simple: the draw is its eigenvalues, at the first
    # attempt, with no call of the certificate
    import b3rep.factory as factory_mod

    def no_certificate(A, B):
        raise AssertionError("a one-dimensional draw was certified")

    monkeypatch.setattr(factory_mod, "_spin_certified", no_certificate)
    for alpha in enumerate_simple_gamma(1):
        for inst in [*random_simples_gamma(alpha, range(4)), random_simple_gamma(alpha, 9)]:
            assert inst.attempts == 1
            assert inst.rep.A.shape == (1, 1) and validate_rep(inst.rep, GAMMA)
    characters = SemisimpleSpec(tuple(SpecEntry(alpha, ONE, 1, f"c{i}")
                                      for i, alpha in enumerate(enumerate_simple_gamma(1))))
    assert assemble(characters, seed=3).n == 6


def test_seeded_instance_of_dimension_two():
    inst = random_simple_gamma(ALPHA2, seed=42)
    assert eigenvalue_multiset(inst.rep.A) == eigenvalue_multiset(np.diag([1.0, -1.0]))
    assert eigenvalue_multiset(inst.rep.B) == eigenvalue_multiset(np.diag([1.0 + 0j, OMEGA]))
    assert word_span_dim(inst.rep) == 4
    assert validate_rep(inst.rep, GAMMA)


def test_dimension_three_simple():
    inst = random_simple_gamma(ALPHA3, seed=0)
    assert burnside_simple(inst.rep)
    assert validate_rep(inst.rep, GAMMA)


def test_generation_is_deterministic():
    a = random_simple_gamma(ALPHA2, seed=9)
    b = random_simple_gamma(ALPHA2, seed=9)
    assert np.array_equal(a.rep.A, b.rep.A) and np.array_equal(a.rep.B, b.rep.B)
    c = random_simple_gamma(ALPHA2, seed=10)
    assert not np.allclose(a.rep.A, c.rep.A)


def test_rejects_non_simple_type():
    with pytest.raises(NotSimpleDimension):
        random_simple_gamma(GammaDimVector(2, 0, 1, 1, 0), seed=0)


def test_first_try_success_rate():
    # genericity of simplicity: the Burnside test should almost never reject
    for n in range(2, 7):
        for alpha in enumerate_simple_gamma(n):
            first_try = sum(
                random_simple_gamma(alpha, seed=s).attempts == 1 for s in range(100)
            )
            assert first_try >= 95, (alpha, first_try)


def test_generation_failure_is_loud(monkeypatch):
    # every draw of dimension >= 2 goes through the stacked certificate;
    # one that never certifies a draw exhausts the retries
    import b3rep.factory as factory_mod
    monkeypatch.setattr(factory_mod, "_spin_certified",
                        lambda A, B: np.zeros(len(A), dtype=bool))
    with pytest.raises(GenerationFailed):
        random_simple_gamma(ALPHA2, seed=0)
    with pytest.raises(GenerationFailed):
        factory_mod.random_simples_gamma(ALPHA3, [0, 1, 2])


def test_simplicity_criterion_matches_burnside_sampling():
    # every eigenvalue-multiplicity type with n <= 5: the criterion says
    # simple exactly when some generically built pair passes Burnside
    rng = np.random.default_rng(2024)
    for n in range(1, 6):
        for alpha in dimension_vectors(n):
            simple_somewhere = any(
                burnside_simple(generic_pair(alpha, rng)) for _ in range(3)
            )
            assert simple_somewhere == is_simple_gamma(alpha), alpha


# ---------------------------------------------------------------------------
# Burnside word span (the tests' oracle)
# ---------------------------------------------------------------------------

def test_burnside_on_characters_and_sums():
    for u in range(6):
        assert burnside_simple(one_dim_rep(u))
    diag = RepPair(np.diag([1.0, -1.0]), np.diag([1.0 + 0j, OMEGA]), GAMMA)
    assert not burnside_simple(diag)
    assert word_span_dim(diag) == 2


def test_burnside_spots_a_proper_invariant_subspace():
    inst = random_simple_gamma(ALPHA2, seed=5)
    padded = RepPair(
        np.block([[inst.rep.A, np.zeros((2, 1))], [np.zeros((1, 2)), np.eye(1)]]),
        np.block([[inst.rep.B, np.zeros((2, 1))], [np.zeros((1, 2)), np.eye(1)]]),
        GAMMA,
    )
    assert not burnside_simple(padded)


def test_word_span_dim_matches_the_per_candidate_reference():
    # generic pairs of every type with n <= 6, simple or not
    rng = np.random.default_rng(31)
    for n in range(1, 7):
        for alpha in dimension_vectors(n):
            rep = generic_pair(alpha, rng)
            assert word_span_dim(rep) == reference_word_span_dim(rep), alpha


def test_word_span_dims_of_a_mixed_stack_match_the_reference():
    # one n, simple and non-simple types in one stack, so the counts part
    # ways mid-stack and the finished elements ride along padded
    rng = np.random.default_rng(47)
    for n in range(2, 6):
        reps = [generic_pair(alpha, rng) for alpha in dimension_vectors(n)
                for _ in range(2)]
        expected = [reference_word_span_dim(rep) for rep in reps]
        assert len(set(expected)) > 2
        got = word_span_dims(np.stack([r.A for r in reps]), np.stack([r.B for r in reps]))
        assert got.tolist() == expected, n
        # a stack of one and a single pair take the same steps
        assert [int(word_span_dims(r.A[None], r.B[None])[0]) for r in reps] == expected


def same_draws(xs, ys):
    return all(x.rep.A.tobytes() == y.rep.A.tobytes() and x.rep.B.tobytes() == y.rep.B.tobytes()
               and (x.alpha, x.seed, x.attempts) == (y.alpha, y.seed, y.attempts)
               for x, y in zip(xs, ys, strict=True))


def test_random_simples_gamma_equals_one_seed_draws():
    seeds = [0, 7, 7, 123, 2 ** 63]
    for alpha in (GammaDimVector(1, 0, 1, 0, 0), ALPHA2, ALPHA3, GammaDimVector(2, 2, 2, 1, 1)):
        assert same_draws(random_simples_gamma(alpha, seeds),
                          [random_simple_gamma(alpha, seed) for seed in seeds])


def test_draws_do_not_depend_on_the_request_order():
    # types of dimensions 1 to 4, one type twice in a stack and seeds shared
    # across types: every instance has its own generator, so each request
    # draws the same pair wherever it stands in the list
    one, two, three, four = (enumerate_simple_gamma(n) for n in range(1, 5))
    types = [one[0], two[0], three[0], four[0], two[0], four[1]]
    requests = list(zip(types, [7, 8, 9, 10, 9, 8]))
    first = _draw_simples(*zip(*requests))
    for order in itertools.permutations(range(len(requests))):
        drawn = _draw_simples(*zip(*(requests[i] for i in order)))
        for i, inst in zip(order, drawn):
            assert np.array_equal(inst.rep.A, first[i].rep.A), order
            assert np.array_equal(inst.rep.B, first[i].rep.B), order


def test_one_dimensional_draws_of_a_type_share_one_pair():
    drawn = random_simples_gamma(GammaDimVector(1, 0, 1, 0, 0), range(5))
    assert [inst.seed for inst in drawn] == list(range(5))
    assert all(inst.rep is drawn[0].rep for inst in drawn)
    assert drawn[0].rep.A.tolist() == [[1]] and drawn[0].rep.B.tolist() == [[1]]


def test_drawn_scaled_and_stacked_arrays_are_read_only():
    arrays = []
    for alpha in (GammaDimVector(0, 1, 0, 0, 1), ALPHA2, ALPHA3):
        drawn = random_simples_gamma(alpha, range(3))
        if alpha.n > 1:
            # each pair holds views of the draw stacks, without a copy
            stacks = {id(m.base) for inst in drawn for m in (inst.rep.A, inst.rep.B)}
            assert len(stacks) == 2
            arrays += [drawn[0].rep.A.base, drawn[0].rep.B.base]
        for inst in drawn:
            scaled = scale_rep(inst.rep, ExactScalar(Fraction(3, 2), Fraction(1, 7)))
            arrays += [inst.rep.A, inst.rep.B, scaled.A, scaled.B]
    spec = SemisimpleSpec((SpecEntry(ALPHA3, ZETA, 2, "p"), SpecEntry(ALPHA2, ONE, 1, "q")))
    rep = assemble(spec, seed=1)
    arrays += [rep.A, rep.B]
    for M in arrays:
        assert not M.flags.writeable
        with pytest.raises(ValueError):
            M[...] = 0


def test_random_simples_gamma_redraws_only_the_rejected_seed(monkeypatch):
    # the first draw of seed 3 is rejected once; it alone is drawn again,
    # exactly as a one-seed draw under the same rejection
    import b3rep.factory as factory_mod
    victim = random_simple_gamma(ALPHA3, 3).rep.A.tobytes()
    real = factory_mod._spin_certified
    stacks = []

    def reject_victim(A, B):
        simple = np.array(real(A, B))
        stacks.append(A.shape[:-2])
        for i, a in enumerate(A):
            if a.tobytes() == victim:
                simple[i] = False
        return simple

    monkeypatch.setattr(factory_mod, "_spin_certified", reject_victim)
    seeds = list(range(6))
    drawn = random_simples_gamma(ALPHA3, seeds)
    assert stacks == [(6,), (1,)]
    assert [inst.attempts for inst in drawn] == [1, 1, 1, 2, 1, 1]
    assert drawn[3].rep.A.tobytes() != victim
    assert same_draws(drawn, [random_simple_gamma(ALPHA3, seed) for seed in seeds])


@pytest.mark.parametrize("d1, d2", [(2, 3), (5, 5), (9, 1), (13, 4), (16, 12)])
def test_word_span_of_two_simples_is_their_algebra(d1, d2):
    # non-isomorphic simples S1, S2: the words span End(S1) + End(S2)
    spec = SemisimpleSpec((SpecEntry(balanced(d1), ONE, 1, "p"),
                           SpecEntry(balanced(d2), ZETA, 1, "q")))
    assert word_span_dim(assemble(spec, seed=d1)) == d1 * d1 + d2 * d2


@pytest.mark.parametrize("d", [1, 2, 7, 12, 16])
def test_word_span_of_a_doubled_simple_is_one_copy(d):
    # S + S: every word acts by the same matrix on both copies
    spec = SemisimpleSpec((SpecEntry(balanced(d), ONE, 2, "s"),))
    assert word_span_dim(assemble(spec, seed=d)) == d * d


def test_attempts_on_a_fixed_grid():
    # recorded with the per-candidate span test: every draw on this grid
    # passed Burnside at the first attempt
    grid = [(alpha, seed) for n in range(1, 5) for alpha in enumerate_simple_gamma(n)
            for seed in range(4)]
    grid += [(balanced(d), seed) for d in (8, 13, 16, 19) for seed in (0, 1)]
    assert [random_simple_gamma(alpha, seed).attempts for alpha, seed in grid] \
        == [1] * len(grid)


# ---------------------------------------------------------------------------
# spin certificate
# ---------------------------------------------------------------------------

def certified(reps):
    """The certificate of a stack of pairs, after checking that each pair
    alone, on the single-pair span engine, gets the same verdict."""
    stacked = _spin_certified(np.stack([r.A for r in reps]), np.stack([r.B for r in reps]))
    alone = [bool(_spin_certified(r.A[None], r.B[None])[0]) for r in reps]
    assert stacked.tolist() == alone
    return stacked


def random_unitary(n, rng):
    """Haar-like unitary, deterministic given the generator state."""
    return _unitaries(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))


def conjugates(rep, rng):
    """rep, a unitary conjugate and an oblique conjugate of it."""
    n = rep.n
    u = random_unitary(n, rng)
    p = np.eye(n) + 0.5 * rng.standard_normal((n, n)) / np.sqrt(n)
    return [rep] + [RepPair(g @ rep.A @ np.linalg.inv(g), g @ rep.B @ np.linalg.inv(g), B3)
                    for g in (u, p)]


def test_span_dims_of_a_vector_is_its_submodule():
    # S1 + S2: a vector of one summand spins to that summand, a vector
    # with a part in each to the whole sum
    d1, d2 = 3, 4
    spec = SemisimpleSpec((SpecEntry(balanced(d1), ONE, 1, "p"),
                           SpecEntry(balanced(d2), ZETA, 1, "q")))
    rep = assemble(spec, seed=1)
    x = np.random.default_rng(5).standard_normal(d1 + d2) + 0j
    starts = np.stack([np.r_[x[:d1], np.zeros(d2)], np.r_[np.zeros(d1), x[d1:]], x])
    dims = _span_dims(np.stack([rep.A] * 3), np.stack([rep.B] * 3), starts[..., None])
    assert dims.tolist() == [d1, d2, d1 + d2]


def test_spin_certificate_matches_burnside_on_generic_pairs():
    # every eigenvalue-multiplicity type with n <= 7, simple or not
    not_simple = 0
    for n in range(1, 8):
        for alpha in dimension_vectors(n):
            reps = [generic_pair(alpha, np.random.default_rng(seed)) for seed in range(5)]
            expected = [burnside_simple(rep) for rep in reps]
            assert certified(reps).tolist() == expected, alpha
            not_simple += expected.count(False)
    assert not_simple > 3000


def test_spin_certificate_matches_burnside_on_simple_types():
    # 20 generic pairs of every simple type with d <= 10, against the
    # Burnside test run on the stack
    for d in range(1, 11):
        for alpha in enumerate_simple_gamma(d):
            rng = np.random.default_rng([d, alpha.a, alpha.x, alpha.y])
            reps = [generic_pair(alpha, rng) for _ in range(20)]
            spans = word_span_dims(np.stack([r.A for r in reps]), np.stack([r.B for r in reps]))
            assert certified(reps).tolist() == (spans == d * d).tolist(), alpha


@pytest.mark.parametrize("d1, d2", [(1, 1), (1, 4), (2, 3), (5, 5), (6, 2)])
def test_spin_certificate_refuses_sums(d1, d2):
    rng = np.random.default_rng(d1 * 10 + d2)
    split = SemisimpleSpec((SpecEntry(balanced(d1), ONE, 1, "p"),
                            SpecEntry(balanced(d2), ZETA, 1, "q")))
    reps = conjugates(assemble(split, seed=d1), rng)
    if d1 == d2:
        doubled = SemisimpleSpec((SpecEntry(balanced(d1), ONE, 2, "s"),))
        reps += conjugates(assemble(doubled, seed=d1), rng)
    assert not any(burnside_simple(rep) for rep in reps)
    assert not certified(reps).any()


def test_spin_certificate_refuses_non_split_extensions():
    # 0 -> W -> E -> V -> 0 for adjacent characters V, W, in both orders:
    # E is upper triangular with a cocycle (D_X, D_Y) that is no coboundary
    rng = np.random.default_rng(11)
    reps = []
    for i in range(6):
        for v, w in ((i, (i + 1) % 6), ((i + 1) % 6, i)):
            V, W = one_dim_rep(v), one_dim_rep(w)
            M = cocycle_matrix(V, W, GAMMA)
            kernel = np.linalg.svd(M)[2].conj()[np.linalg.matrix_rank(M):]
            dx, dy = kernel[0]
            E = RepPair(np.array([[W.A[0, 0], dx], [0, V.A[0, 0]]]),
                        np.array([[W.B[0, 0], dy], [0, V.B[0, 0]]]), GAMMA)
            assert validate_rep(E, GAMMA)
            # the algebra of a non-split extension is the upper triangle
            assert word_span_dim(E) == 3
            reps += conjugates(E, rng)
    assert not certified(reps).any()


def test_spin_certificate_refuses_through_the_gap_rule():
    # S + S, and S + S rescaled by a fifth root of unity: the second is a
    # sum of non-isomorphic simples whose A B agree, so both spins of an
    # eigenvector fill C^n and only the gap rule refuses it
    rng = np.random.default_rng(3)
    alpha = balanced(5)
    fifth = ExactScalar(Fraction(1), Fraction(1, 5))
    for spec in (SemisimpleSpec((SpecEntry(alpha, ONE, 2, "s"),)),
                 SemisimpleSpec((SpecEntry(alpha, ONE, 1, "s"), SpecEntry(alpha, fifth, 1, "s")))):
        reps = conjugates(assemble(spec, seed=2), rng)
        assert not any(burnside_simple(rep) for rep in reps)
        assert not certified(reps).any()
        for rep in reps:
            W = rep.A @ rep.B
            evals = np.linalg.eigvals(W)
            gaps = np.abs(evals[:, None] - evals[None, :]) + np.diag([np.inf] * rep.n)
            assert gaps.min(axis=1).max() <= np.sqrt(DEFAULT_TOL.rel_tol) * np.abs(W).max()
    # on the unitary conjugate of the second sum both spins are full
    rep = reps[1]
    R = np.linalg.eig(rep.A @ rep.B)[1]
    v, u = R[:, 0], np.linalg.inv(R)[0].conj()
    spins = _span_dims(np.stack([rep.A, rep.A.conj().T]), np.stack([rep.B, rep.B.conj().T]),
                       np.stack([v, u])[..., None])
    assert spins.tolist() == [rep.n, rep.n]


# ---------------------------------------------------------------------------
# rescaling action
# ---------------------------------------------------------------------------

def test_scale_identity_and_hexagon_rotation():
    v0 = one_dim_rep(0)
    same = scale_rep(v0, ONE)
    assert np.array_equal(same.A, v0.A) and np.array_equal(same.B, v0.B)
    assert same.relation_kind == GAMMA
    for u in range(6):
        rotated = scale_rep(one_dim_rep(u), ZETA)
        target = one_dim_rep((u + 1) % 6)
        assert np.allclose(rotated.A, target.A, atol=1e-14)
        assert np.allclose(rotated.B, target.B, atol=1e-14)
        assert rotated.relation_kind == GAMMA


def test_scale_preserves_braid_relation():
    inst = random_simple_gamma(ALPHA3, seed=1)
    lam = ExactScalar.from_rational(2)
    scaled = scale_rep(inst.rep, lam)
    assert scaled.relation_kind == B3
    assert validate_rep(scaled, B3)
    assert not validate_rep(scaled, GAMMA)


def test_scale_is_a_group_action():
    inst = random_simple_gamma(ALPHA2, seed=11)
    lam = ExactScalar(Fraction(3, 2), Fraction(1, 7))
    mu = ExactScalar(Fraction(2), Fraction(2, 3))
    once = scale_rep(scale_rep(inst.rep, lam), mu)
    joint = scale_rep(inst.rep, lam * mu)
    assert np.allclose(once.A, joint.A, atol=1e-12)
    assert np.allclose(once.B, joint.B, atol=1e-12)


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

def test_validate_detects_perturbation():
    inst = random_simple_gamma(ALPHA2, seed=2)
    good = validate_rep(inst.rep, GAMMA)
    assert good and good.residuals["relation_A2"] < 1e-12
    noisy = RepPair(inst.rep.A + 1e-3, inst.rep.B, GAMMA)
    assert not validate_rep(noisy, GAMMA)


def test_validate_scaled_character():
    doubled = scale_rep(one_dim_rep(0), ExactScalar.from_rational(2))
    assert not validate_rep(doubled, GAMMA)
    assert validate_rep(doubled, B3)


def test_validate_fails_when_a_norm_overflows():
    def at(exponent):
        entry = SpecEntry(GammaDimVector(2, 1, 1, 1, 1),
                          ExactScalar.from_rational(10 ** exponent), 1, "q")
        return assemble(SemisimpleSpec((entry,)), seed=0)

    # (2,1;1,1,1) at modulus 10^60: A^2 and B^3 have entries near 1e360,
    # past the float range, and an overflowed row certifies nothing
    valid = validate_rep(at(60), B3)
    assert not valid and not np.isfinite(valid.residuals["relation_A2_B3"])
    # at 10^30 (entries near 1e180) and at 1 the pair checks cleanly; with
    # B doubled the relation fails by a factor 8 on every row
    for rep in (at(30), at(0)):
        assert validate_rep(rep, B3)
        doubled = validate_rep(RepPair(rep.A, 2 * rep.B, B3), B3)
        assert not doubled and doubled.residuals["relation_A2_B3"] == pytest.approx(7 / 8)


def beside_the_unit(modulus, seed):
    """(1,1;1,1,0) at 1 next to (2,1;1,1,1) at the given modulus."""
    spec = SemisimpleSpec((SpecEntry(ALPHA2, ONE, 1, "p"),
                           SpecEntry(ALPHA3, ExactScalar.from_rational(modulus), 1, "q")))
    return assemble(spec, seed=seed)


@pytest.mark.parametrize("modulus", [10 ** 3, 10 ** 30, Fraction(1, 10 ** 30)])
@pytest.mark.parametrize("seed", range(3))
def test_validate_passes_at_distant_moduli(modulus, seed):
    # over the whole pair, A's singular-value ratio was 1e-9 at 10^3 and
    # 1e-90 at 10^-30; each row on its own scale is clean
    valid = validate_rep(beside_the_unit(modulus, seed), B3)
    assert valid and valid.residuals["relation_A2_B3"] < 1e-14


@pytest.mark.parametrize("modulus", [4, 200, 10 ** 3, 10 ** 30, Fraction(1, 10 ** 30)])
@pytest.mark.parametrize("seed", range(3))
def test_validate_fails_on_one_broken_block_at_any_moduli(modulus, seed):
    # a whole-pair threshold is set by the larger block: with the unit
    # block's B off by 1e-6 the check passed at 4 and at 200
    rep = beside_the_unit(modulus, seed)
    doubled, nudged, zero_row = rep.B.copy(), rep.B.copy(), rep.A.copy()
    doubled[2:, 2:] *= 2
    nudged[:2, :2] *= 1 + 1e-6
    zero_row[3] = 0
    for A, B in ((rep.A, doubled), (rep.A, nudged), (zero_row, rep.B)):
        assert not validate_rep(RepPair(A, B, B3), B3)


# ---------------------------------------------------------------------------
# spec entries and isomorphism
# ---------------------------------------------------------------------------

def test_entry_validation():
    with pytest.raises(InvalidSpec):
        SpecEntry(GammaDimVector(2, 0, 1, 1, 0), ONE)
    with pytest.raises(InvalidSpec):
        SpecEntry(ALPHA2, ONE, mult=0)


def test_one_dim_isomorphism_follows_the_twist():
    a0 = GammaDimVector(1, 0, 1, 0, 0)
    a1 = GammaDimVector(0, 1, 0, 1, 0)
    e0 = SpecEntry(a0, ONE, 1, "p")
    # zeta6 * (vertex-1 module) = vertex-2 module, so the partner of the
    # vertex-0 entry carries zeta6^-1, not zeta6
    assert entries_isomorphic(e0, SpecEntry(a1, ExactScalar.zeta6(5), 1, "q"))
    assert not entries_isomorphic(e0, SpecEntry(a1, ZETA, 1, "q"))
    assert not entries_isomorphic(e0, SpecEntry(a1, ONE, 1, "q"))
    # ids are irrelevant in dimension one
    assert entries_isomorphic(e0, SpecEntry(a0, ONE, 3, "other"))


def test_higher_dim_isomorphism_is_declared_data():
    e1 = SpecEntry(ALPHA2, ONE, 1, "s")
    assert entries_isomorphic(e1, SpecEntry(ALPHA2, ONE, 2, "s"))
    assert not entries_isomorphic(e1, SpecEntry(ALPHA2, ONE, 1, "t"))
    assert not entries_isomorphic(e1, SpecEntry(ALPHA2, ZETA, 1, "s"))


def test_spec_rejects_isomorphic_duplicates():
    with pytest.raises(IsomorphicDistinctEntries):
        SemisimpleSpec((SpecEntry(ALPHA2, ONE, 1, "s"), SpecEntry(ALPHA2, ONE, 1, "s")))
    a0 = GammaDimVector(1, 0, 1, 0, 0)
    a1 = GammaDimVector(0, 1, 0, 1, 0)
    with pytest.raises(IsomorphicDistinctEntries):
        SemisimpleSpec((
            SpecEntry(a0, ONE, 1, "p"),
            SpecEntry(a1, ExactScalar.zeta6(5), 1, "q"),
        ))


def test_spec_names_the_first_isomorphic_pair_across_classes():
    # two isomorphic pairs in two classes of lambda^6: entries 4 and 5 in
    # the class that appears first, entries 2 and 3 in the other
    a0 = GammaDimVector(1, 0, 1, 0, 0)
    two = ExactScalar.from_rational(2)
    entries = (SpecEntry(ALPHA2, ONE, 1, "x"), SpecEntry(a0, two, 1, "p"),
               SpecEntry(a0, two, 1, "q"), SpecEntry(ALPHA3, ZETA, 1, "t"),
               SpecEntry(ALPHA3, ZETA, 2, "t"))
    with pytest.raises(IsomorphicDistinctEntries, match="entries 2 and 3 are"):
        SemisimpleSpec(entries)
    with pytest.raises(IsomorphicDistinctEntries, match="entries 3 and 4 are"):
        SemisimpleSpec(entries[:2] + entries[3:])
    spec = SemisimpleSpec(entries[:2] + entries[3:4])
    assert spec.lambda6_classes == ((0, 2), (1,))
    # the classes are derived data: not part of equality or the repr
    assert spec == SemisimpleSpec.from_json(spec.to_json())
    assert "lambda6_classes" not in repr(spec)


def test_spec_json_round_trip():
    spec = SemisimpleSpec((
        SpecEntry(ALPHA2, ExactScalar(Fraction(3, 2), Fraction(0)), 2, "s1"),
        SpecEntry(GammaDimVector(1, 0, 1, 0, 0), ZETA, 1, "s2"),
    ))
    data = spec.to_json()
    assert data["entries"][0]["lambda"] == {"r": "3/2", "q": "0"}
    assert SemisimpleSpec.from_json(data) == spec
    with pytest.raises(InvalidSpec):
        SemisimpleSpec.from_json({"entries": []})


# ---------------------------------------------------------------------------
# assembly
# ---------------------------------------------------------------------------

def test_assemble_two_characters():
    spec = SemisimpleSpec((
        SpecEntry(GammaDimVector(1, 0, 1, 0, 0), ONE, 1, "p"),
        SpecEntry(GammaDimVector(0, 1, 0, 1, 0), ONE, 1, "q"),
    ))
    rep = assemble(spec, seed=0)
    assert rep.relation_kind == B3
    assert np.allclose(rep.A, np.diag([1.0, -1.0]), atol=1e-14)
    assert np.allclose(rep.B, np.diag([1.0 + 0j, OMEGA]), atol=1e-14)
    # a proper direct sum is never Burnside-simple
    assert not burnside_simple(rep)


def test_assemble_multiplicity_two_blocks_are_identical():
    spec = SemisimpleSpec((SpecEntry(ALPHA2, ONE, 2, "s"),))
    rep = assemble(spec, seed=4)
    assert rep.n == 4
    assert np.array_equal(rep.A[:2, :2], rep.A[2:, 2:])
    assert np.array_equal(rep.B[:2, :2], rep.B[2:, 2:])
    assert validate_rep(rep, B3)
    # endomorphisms of a double of one simple form a 2x2 matrix algebra
    assert hom_dim_numeric(rep, rep) == 4


def test_assemble_shares_blocks_by_instance_id():
    spec = SemisimpleSpec((
        SpecEntry(ALPHA2, ONE, 1, "shared"),
        SpecEntry(ALPHA2, ExactScalar.from_rational(2), 1, "shared"),
    ))
    rep = assemble(spec, seed=8)
    lam3 = complex(ExactScalar.from_rational(2) ** 3)
    assert np.allclose(rep.A[2:, 2:], lam3 * rep.A[:2, :2], atol=1e-12)


def test_assemble_block_eigenvalues():
    lam = ExactScalar.from_rational(2)
    spec = SemisimpleSpec((SpecEntry(ALPHA3, lam, 1, "s"),))
    rep = assemble(spec, seed=6)
    expected_a = sorted([8.0, 8.0, -8.0])  # lam^3 * (+1, +1, -1)
    got_a = sorted(np.round(np.linalg.eigvals(rep.A).real, 6))
    assert got_a == expected_a
    got_b = eigenvalue_multiset(rep.B)
    expected_b = eigenvalue_multiset(4.0 * np.diag([1.0 + 0j, OMEGA, OMEGA ** 2]))
    assert np.allclose(got_b, expected_b, atol=1e-6)


def test_assemble_draws_one_stack_per_type(monkeypatch):
    # repeated types, a shared instance id and a multiplicity: one
    # random_simples_gamma call per type, and each block is the one-seed
    # draw of its entry's instance, rescaled
    import b3rep.factory as factory_mod
    real = factory_mod.random_simples_gamma
    calls = []

    def spy(alpha, seeds):
        calls.append((alpha, len(list(seeds))))
        return real(alpha, seeds)

    two = ExactScalar.from_rational(2)
    spec = SemisimpleSpec((
        SpecEntry(ALPHA2, ONE, 1, "a"), SpecEntry(ALPHA3, ONE, 2, "b"),
        SpecEntry(ALPHA2, ZETA, 1, "c"), SpecEntry(ALPHA2, two, 1, "a"),
        SpecEntry(ALPHA3, two, 1, "d"), SpecEntry(GammaDimVector(1, 0, 1, 0, 0), ONE, 3, "e"),
    ))
    monkeypatch.setattr(factory_mod, "random_simples_gamma", spy)
    rep = assemble(spec, seed=5)
    monkeypatch.undo()
    assert calls == [(ALPHA2, 2), (ALPHA3, 2), (GammaDimVector(1, 0, 1, 0, 0), 1)]
    pos = 0
    for entry in spec.entries:
        block = scale_rep(random_simple_gamma(
            entry.alpha, derived_seed("assemble", 5, entry.instance_id)).rep, entry.lam)
        for _ in range(entry.mult):
            end = pos + entry.dim
            assert np.array_equal(rep.A[pos:end, pos:end], block.A)
            assert np.array_equal(rep.B[pos:end, pos:end], block.B)
            pos = end
    assert pos == rep.n


def test_no_draw_spans_the_words(monkeypatch):
    # every certificate is a spin of one vector: no draw path starts the
    # span engine at the identity, as the word span does, lone draws of
    # small dimension included
    import b3rep.factory as factory_mod
    from b3rep.verify import run_suite
    real = factory_mod._span_dims
    starts = []

    def spy(A, B, X0):
        starts.append(X0.shape)
        return real(A, B, X0)

    monkeypatch.setattr(factory_mod, "_span_dims", spy)
    for d in range(2, 7):
        random_simple_gamma(balanced(d), seed=d)
        random_simples_gamma(balanced(d), range(3))
    assemble(SemisimpleSpec((SpecEntry(ALPHA2, ONE, 1, "a"), SpecEntry(ALPHA3, ZETA, 2, "b"),
                             SpecEntry(ALPHA2, ZETA, 1, "c"))), seed=1)
    assert run_suite("ext", n=2, trials=1).ok
    assert len(starts) > 20
    assert all(shape[-1] == 1 for shape in starts), starts


def test_rep_pair_adopts_read_only_complex_arrays_only():
    frozen = np.eye(3, dtype=complex)
    frozen.setflags(write=False)
    assert RepPair(frozen, frozen).A is frozen
    # a writeable array is copied, so later writes do not reach the pair
    writeable = np.eye(3, dtype=complex)
    pair = RepPair(writeable, frozen)
    writeable[0, 0] = 5
    assert pair.A[0, 0] == 1 and not pair.A.flags.writeable
    # so are real and strided arrays, read-only or not
    real = np.eye(3)
    real.setflags(write=False)
    assert RepPair(real, real).A.dtype == complex
    assert RepPair(frozen[::2, ::2], frozen[::2, ::2]).A.flags.c_contiguous


def test_assemble_holds_the_dense_pair_once():
    # 724 copies of one character: the pair is 32 n^2 bytes; with a copy
    # of it beside the freshly built blocks assemble peaked at 64 n^2
    spec = SemisimpleSpec((SpecEntry(GammaDimVector(1, 0, 1, 0, 0), ONE, 724, "c"),))
    assemble(spec, seed=0)
    tracemalloc.start()
    try:
        rep = assemble(spec, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.n == 724 and not rep.A.flags.writeable and not rep.B.flags.writeable
    assert peak <= 40 * rep.n ** 2


def test_derived_seed_is_stable():
    assert derived_seed("a", 1) == derived_seed("a", 1)
    assert derived_seed("a", 1) != derived_seed("a", 2)
    assert derived_seed("a", 1) != derived_seed("b", 1)


def test_derived_seed_golden_values():
    # the seeding scheme behind every draw, pinned to literal values: the
    # labels hash the dataclass repr of their dimension vectors
    a = GammaDimVector(1, 1, 1, 1, 0)
    assert repr(a) == "GammaDimVector(a=1, b=1, x=1, y=1, z=0)"
    assert repr((a, 2)) == "(GammaDimVector(a=1, b=1, x=1, y=1, z=0), 2)"
    assert derived_seed("verify", ("pair-a", a, a, 0, 1), 3) == 8281579005960317961
    assert derived_seed("simple", a.as_tuple(), 7, 0) == 15142172100828202132
    assert derived_seed("b3self", a, str(ExactScalar.zeta6(1))) == 15562276131635730094


def test_dimension_vector_hash_and_repr_are_the_dataclass_ones():
    for alpha in [*enumerate_simple_gamma(3), GammaDimVector(0, 0, 0, 0, 0)]:
        a, b, x, y, z = alpha.as_tuple()
        assert hash(alpha) == hash(alpha.as_tuple())
        assert repr(alpha) == f"GammaDimVector(a={a}, b={b}, x={x}, y={y}, z={z})"
        twin = GammaDimVector(a, b, x, y, z)
        assert alpha == twin and hash(alpha) == hash(twin)


