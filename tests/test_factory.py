"""Matrix models: characters, generic simples, rescaling, assembly."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    burnside_simple,
    derived_seed,
    entries_isomorphic,
    enumerate_simple_gamma,
    hom_dim_numeric,
    is_simple_gamma,
    one_dim_rep,
    random_simple_gamma,
    scale_rep,
    validate_rep,
    word_span_dim,
)
from b3rep.factory import random_simples_gamma, word_span_dims

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
        if norm_v < tol.abs_floor:
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
        assert abs(rep.A[0, 0] - rho) < 1e-15
        assert abs(rep.B[0, 0] - tau) < 1e-15


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
    # every draw goes through the stacked span test; a span that never
    # fills the matrix algebra exhausts the retries
    import b3rep.factory as factory_mod
    monkeypatch.setattr(factory_mod, "word_span_dims",
                        lambda A, B, tol: np.zeros(A.shape[:-2], dtype=int))
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
# Burnside span test
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
               and (x.alpha, x.seed, x.instance_id, x.attempts)
               == (y.alpha, y.seed, y.instance_id, y.attempts)
               for x, y in zip(xs, ys, strict=True))


def test_random_simples_gamma_equals_one_seed_draws():
    seeds = [0, 7, 7, 123, 2 ** 63]
    for alpha in (GammaDimVector(1, 0, 1, 0, 0), ALPHA2, ALPHA3, GammaDimVector(2, 2, 2, 1, 1)):
        assert same_draws(random_simples_gamma(alpha, seeds),
                          [random_simple_gamma(alpha, seed) for seed in seeds])


def test_random_simples_gamma_redraws_only_the_rejected_seed(monkeypatch):
    # the first draw of seed 3 is rejected once; it alone is drawn again,
    # exactly as a one-seed draw under the same rejection
    import b3rep.factory as factory_mod
    victim = random_simple_gamma(ALPHA3, 3).rep.A.tobytes()
    real = factory_mod.word_span_dims
    stacks = []

    def reject_victim(A, B, tol):
        dims = np.array(real(A, B, tol))
        stacks.append(A.shape[:-2])
        for i, a in enumerate(A.reshape(-1, *A.shape[-2:])):
            if a.tobytes() == victim:
                dims.reshape(-1)[i] = 0
        return dims

    monkeypatch.setattr(factory_mod, "word_span_dims", reject_victim)
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


SIMPLES_UP_TO_3 = [v for n in range(1, 4) for v in enumerate_simple_gamma(n)]
#: moduli from 1/2 to 5/2 in steps of 1/16; distinct moduli keep the two
#: entries non-isomorphic and without cross extensions
MODULI = [Fraction(k, 16) for k in range(8, 41)]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(alphas=st.tuples(st.sampled_from(SIMPLES_UP_TO_3), st.sampled_from(SIMPLES_UP_TO_3)),
       moduli=st.lists(st.sampled_from(MODULI), min_size=2, max_size=2, unique=True),
       angles=st.tuples(st.integers(0, 6), st.integers(0, 6)),
       seed=st.integers(0, 2 ** 32 - 1))
def test_word_span_of_two_unlinked_simples(alphas, moduli, angles, seed):
    spec = SemisimpleSpec(tuple(
        SpecEntry(alpha, ExactScalar(r, Fraction(k, 7)), 1, f"s{i}")
        for i, (alpha, r, k) in enumerate(zip(alphas, moduli, angles))
    ))
    assert word_span_dim(assemble(spec, seed=seed)) == sum(a.n ** 2 for a in alphas)


@pytest.mark.xfail(strict=True, reason="relative threshold loses the smaller block "
                   "when the moduli of two summands differ")
def test_word_span_of_two_simples_at_distant_moduli():
    # a word with a factors A and b factors B is 2^(3a + 2b) times larger on
    # the second block; once that passes 1 / rel_tol the first block's part
    # of a candidate falls under the threshold and is dropped
    alpha = GammaDimVector(3, 3, 3, 2, 1)
    spec = SemisimpleSpec((SpecEntry(alpha, ONE, 1, "p"),
                           SpecEntry(alpha, ExactScalar.from_rational(2), 1, "q")))
    assert word_span_dim(assemble(spec, seed=0)) == 2 * alpha.n ** 2


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
    # (2,1;1,1,1) at modulus 10^30: A^2 and B^3 have entries near 1e180,
    # so their norms overflow; with B doubled the relation fails by a
    # factor 8, and inf <= rel_tol * inf must not pass it
    dim3 = GammaDimVector(2, 1, 1, 1, 1)
    spec = SemisimpleSpec((SpecEntry(dim3, ExactScalar.from_rational(10 ** 30), 1, "q"),))
    rep = assemble(spec, seed=0)
    doubled = RepPair(rep.A, 2 * rep.B, B3)
    for pair in (doubled, rep):
        valid = validate_rep(pair, B3)
        assert not valid and valid.residuals["relation_A2_B3"] == np.inf
    # the same pair at modulus 1 checks cleanly either way
    rep = assemble(SemisimpleSpec((SpecEntry(dim3, ONE, 1, "q"),)), seed=0)
    assert validate_rep(rep, B3)
    assert not validate_rep(RepPair(rep.A, 2 * rep.B, B3), B3)


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
    assert hom_dim_numeric(rep, rep, B3) == 4


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


def test_derived_seed_is_stable():
    assert derived_seed("a", 1) == derived_seed("a", 1)
    assert derived_seed("a", 1) != derived_seed("a", 2)
    assert derived_seed("a", 1) != derived_seed("b", 1)


def test_rep_pair_json_round_trip():
    inst = random_simple_gamma(ALPHA2, seed=3)
    data = inst.rep.to_json()
    assert data["n"] == 2 and data["relation"] == GAMMA
    back = RepPair.from_json(data)
    assert np.array_equal(back.A, inst.rep.A)
    assert np.array_equal(back.B, inst.rep.B)
