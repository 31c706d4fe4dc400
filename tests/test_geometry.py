"""Smoothness verdicts, local quivers, dimensions, witnesses, GL_n maps."""

from fractions import Fraction

import numpy as np
import pytest

from b3rep import (
    B3,
    ComponentSignature,
    ExactScalar,
    GammaDimVector,
    IsomorphicDistinctEntries,
    RepPair,
    SemisimpleSpec,
    SpecEntry,
    ToleranceAmbiguity,
    WitnessUnavailable,
    analyze,
    assemble,
    component_dim,
    component_signature,
    enumerate_component_signatures,
    enumerate_simple_gamma,
    ext_b3_spec,
    ext_gamma_self,
    gln_embed,
    gln_retract,
    intersection_witnesses,
    local_quiver,
    orbit_class,
    random_spec,
    tangent_dim_formula,
    tangent_dim_numeric,
    validate_rep,
)
from b3rep import geometry
from b3rep.geometry import _block_classes, _diagonal_blocks, assemble_and_measure

ONE = ExactScalar.one()
TWO = ExactScalar.from_rational(2)
A0 = GammaDimVector(1, 0, 1, 0, 0)
A1 = GammaDimVector(0, 1, 0, 1, 0)
A3 = GammaDimVector(0, 1, 1, 0, 0)
DIM2 = GammaDimVector(1, 1, 1, 1, 0)
DIM3 = GammaDimVector(2, 1, 1, 1, 1)


def entry(alpha, lam=ONE, mult=1, iid=None):
    return SpecEntry(alpha, lam, mult, iid or f"id-{alpha}-{lam}-{mult}")


def spec_of(*entries):
    return SemisimpleSpec(tuple(entries))


# ---------------------------------------------------------------------------
# entry-level extension counts
# ---------------------------------------------------------------------------

def test_ext_between_adjacent_characters():
    assert ext_b3_spec(entry(A0), entry(A1)) == 1


def test_ext_dies_off_mu6():
    assert ext_b3_spec(entry(A0), entry(A0, ExactScalar.from_rational(7), iid="q")) == 0


def test_ext_self_gains_one():
    e = entry(DIM2)
    assert ext_b3_spec(e, e) == 2
    e1 = entry(A0)
    assert ext_b3_spec(e1, e1) == 1


def test_ext_follows_the_scalar_twist():
    # zeta6^k aligns the second factor k steps around the hexagon
    for k in range(6):
        e1 = entry(A0, iid="p")
        e2 = entry(A0, ExactScalar.zeta6(k), iid="q")
        if k == 0:
            with pytest.raises(IsomorphicDistinctEntries):
                ext_b3_spec(e1, e2)
        else:
            expected = 1 if k in (1, 5) else 0
            assert ext_b3_spec(e1, e2) == expected, k


# ---------------------------------------------------------------------------
# local quiver
# ---------------------------------------------------------------------------

def test_local_quiver_of_all_six_characters():
    spec = spec_of(*(entry(orbit, iid=f"v{u}")
                     for u, orbit in enumerate(
                         [A0, A1, GammaDimVector(1, 0, 0, 0, 1), A3,
                          GammaDimVector(1, 0, 0, 1, 0), GammaDimVector(0, 1, 0, 0, 1)])))
    quiver = local_quiver(spec)
    for i in range(6):
        for j in range(6):
            expected = 1 if i == j or (i - j) % 6 in (1, 5) else 0
            assert quiver.arrows[i][j] == expected, (i, j)


def test_local_quiver_single_double_entry():
    quiver = local_quiver(spec_of(entry(DIM2, mult=2)))
    assert quiver.multiplicities == (2,)
    assert quiver.arrows == ((2,),)


def test_local_quiver_generic_scalars_have_no_cross_arrows():
    quiver = local_quiver(spec_of(entry(DIM2, iid="p"), entry(DIM2, TWO, iid="q")))
    assert quiver.arrows[0][1] == quiver.arrows[1][0] == 0
    assert quiver.arrows[0][0] == quiver.arrows[1][1] == 2


def test_local_quiver_is_symmetric_on_samples():
    lam = ExactScalar.zeta6(2)
    spec = spec_of(entry(A0, iid="p"), entry(DIM2, lam, iid="q"),
                   entry(DIM3, TWO, iid="r"))
    quiver = local_quiver(spec)
    arrows = np.array(quiver.arrows)
    assert np.array_equal(arrows, arrows.T)


def test_ext_b3_spec_is_symmetric():
    # local_quiver mirrors its upper triangle, which relies on this
    simples = [v for n in range(1, 4) for v in enumerate_simple_gamma(n)]
    scalars = [ExactScalar.zeta6(k) for k in range(6)] + [TWO]
    entries = [entry(v, lam, iid=f"{v}") for v in simples for lam in scalars]
    for e1 in entries:
        for e2 in entries:
            try:
                forward = ext_b3_spec(e1, e2)
            except IsomorphicDistinctEntries:
                with pytest.raises(IsomorphicDistinctEntries):
                    ext_b3_spec(e2, e1)
                continue
            assert forward == ext_b3_spec(e2, e1), (e1, e2)


def test_analyze_computes_each_entry_pair_once(monkeypatch):
    import b3rep.geometry as geometry_mod
    spec = spec_of(entry(A0, iid="p"), entry(A1, iid="q"), entry(DIM2, iid="r"),
                   entry(DIM3, ExactScalar.zeta6(1), mult=2, iid="s"))
    expected = analyze(spec).to_json()
    calls = []
    real = geometry_mod.ext_b3_spec

    def counted(e1, e2):
        calls.append((e1, e2))
        return real(e1, e2)

    monkeypatch.setattr(geometry_mod, "ext_b3_spec", counted)
    assert analyze(spec).to_json() == expected
    assert len(calls) == spec.k * (spec.k + 1) // 2
    assert len(set(map(frozenset, calls))) == len(calls)


# ---------------------------------------------------------------------------
# signatures and dimensions
# ---------------------------------------------------------------------------

def test_signature_collapses_twists():
    sig = component_signature(spec_of(entry(A0, iid="p"), entry(A1, iid="q")))
    assert sig.factors == (orbit_class(A0), orbit_class(A0))
    sig2 = component_signature(spec_of(entry(DIM2, mult=2)))
    assert sig2.factors == (orbit_class(DIM2), orbit_class(DIM2))
    # twisting every entry leaves the signature unchanged
    twisted = spec_of(entry(A1, ExactScalar.zeta6(1), iid="p"),
                      entry(GammaDimVector(1, 0, 0, 0, 1), ExactScalar.zeta6(1), iid="q"))
    assert component_signature(twisted) == sig


def test_signature_validation():
    with pytest.raises(ValueError):
        ComponentSignature((A0,))  # not the canonical representative
    ComponentSignature((orbit_class(A0),))


def test_orbit_classes_do_not_grow_with_multiplicity(monkeypatch):
    # analyze, with its signature, its dimension and both kinds of
    # witness, takes orbit classes per entry and per distinct factor
    import b3rep.geometry as geometry_mod
    real = geometry_mod.orbit_class
    calls = []

    def counted(alpha):
        calls.append(alpha)
        return real(alpha)

    monkeypatch.setattr(geometry_mod, "orbit_class", counted)
    counts = []
    for mult in (3, 7, 1000):
        spec = spec_of(entry(A0, mult=mult, iid="p"), entry(A1, iid="q"),
                       entry(DIM3, mult=mult, iid="s"))
        calls.clear()
        report = analyze(spec)
        counts.append(len(calls))
        assert report.signature.k == 2 * mult + 1
        assert report.component_dim == (4 * mult + 1) ** 2 + mult * ext_gamma_self(DIM3)
        assert [w.k for w in report.witnesses] == [2 * mult] * 3
    assert counts[0] == counts[1] == counts[2]


def test_component_dimensions():
    assert component_dim(spec_of(entry(A0, iid="p"), entry(A1, iid="q"))) == 4
    assert component_dim(spec_of(entry(DIM2))) == 5
    assert component_dim(spec_of(entry(DIM2, mult=2))) == 18
    sig = component_signature(spec_of(entry(DIM2, mult=2)))
    assert sig.dimension() == 18


def test_tangent_dimension_formula_goldens():
    assert tangent_dim_formula(spec_of(entry(A0, iid="p"), entry(A1, iid="q"))) == 6
    assert tangent_dim_formula(spec_of(entry(A0, iid="p"), entry(A1, TWO, iid="q"))) == 4
    assert tangent_dim_formula(spec_of(entry(DIM2, mult=2))) == 20


def test_tangent_numeric_on_dimension_one():
    lam = ExactScalar(3, 0)
    rep = assemble(spec_of(entry(A0, lam)), seed=5)
    assert tangent_dim_numeric(rep) == 1


def test_tangent_numeric_matches_formula_on_goldens():
    for spec in (
        spec_of(entry(A0, iid="p"), entry(A1, iid="q")),
        spec_of(entry(A0, iid="p"), entry(A1, TWO, iid="q")),
        spec_of(entry(DIM2, mult=2)),
        spec_of(entry(DIM3), entry(A3, iid="w")),
    ):
        rep = assemble(spec, seed=13)
        assert validate_rep(rep, B3)
        assert tangent_dim_numeric(rep) == tangent_dim_formula(spec)


def test_tangent_defect_decomposes_over_failures():
    # tangent - component = sum e_i (e_i - 1) selfext + sum 2 e_i e_j cross ext
    for spec in (
        spec_of(entry(A0, iid="p"), entry(A1, iid="q")),
        spec_of(entry(DIM2, mult=2)),
        spec_of(entry(DIM2, mult=2), entry(A0, iid="r")),
        spec_of(entry(DIM3, mult=2), entry(A1, ExactScalar.zeta6(3), iid="r")),
    ):
        entries = spec.entries
        defect = sum(e.mult * (e.mult - 1) * ext_gamma_self(e.alpha) for e in entries)
        for i in range(len(entries)):
            for j in range(i + 1, len(entries)):
                defect += 2 * entries[i].mult * entries[j].mult \
                    * ext_b3_spec(entries[i], entries[j])
        assert tangent_dim_formula(spec) - component_dim(spec) == defect
        assert defect >= 0
        assert (defect == 0) == analyze(spec).smooth


# ---------------------------------------------------------------------------
# block-wise tangent oracle
# ---------------------------------------------------------------------------

def _unitary_conjugate(V, seed):
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((V.n, V.n)) + 1j * rng.standard_normal((V.n, V.n))
    u, _ = np.linalg.qr(z)
    return RepPair(u @ V.A @ u.conj().T, u @ V.B @ u.conj().T, B3)


def test_block_path_matches_dense_path_on_unitary_conjugates():
    # a unitary conjugate has no zero pattern, so it is one block and its
    # rank comes from the full n^2 x 2n^2 system: block additivity end to end
    for seed in range(5):
        for n in range(1, 9):
            spec = random_spec(n, seed)
            rep = assemble(spec, seed=seed)
            conj = _unitary_conjugate(rep, seed)
            assert len(_diagonal_blocks(conj)) == 1
            assert tangent_dim_numeric(rep) == tangent_dim_numeric(conj) \
                == tangent_dim_formula(spec), spec.to_json()


def test_block_detection_and_classes_on_hand_built_pair():
    xa = np.array([[1.0, 2.0], [0.0, 3.0]])
    xb = np.array([[4.0, 0.0], [5.0, 6.0]])

    def pair(a_blocks, b_blocks):
        n = sum(len(b) for b in a_blocks)
        A, B = np.zeros((n, n)), np.zeros((n, n))
        pos = 0
        for a, b in zip(a_blocks, b_blocks):
            k = len(a)
            A[pos:pos + k, pos:pos + k] = a
            B[pos:pos + k, pos:pos + k] = b
            pos += k
        return A, B

    # blocks c, X, d, X, c: X and c repeat, d differs from c only in A
    A, B = pair([[[7.0]], xa, [[8.0]], xa, [[7.0]]],
                [[[9.0]], xb, [[9.0]], xb, [[9.0]]])
    V = RepPair(A, B, B3)
    assert [(s.start, s.stop) for s in _diagonal_blocks(V)] == \
        [(0, 1), (1, 3), (3, 4), (4, 6), (6, 7)]
    classes = _block_classes(V)
    assert [(rep.n, count) for rep, count in classes] == [(1, 2), (2, 2), (1, 1)]
    assert np.array_equal(classes[1][0].A, xa) and np.array_equal(classes[1][0].B, xb)
    # one entry of B below the diagonal joins every block it spans
    B_low = B.copy()
    B_low[5, 2] = 1.0
    assert [(s.start, s.stop) for s in _diagonal_blocks(RepPair(A, B_low, B3))] == \
        [(0, 1), (1, 6), (6, 7)]
    # one entry of A above the diagonal does the same
    A_up = A.copy()
    A_up[0, 6] = 1.0
    assert len(_diagonal_blocks(RepPair(A_up, B, B3))) == 1


def scalar(modulus):
    return ExactScalar(Fraction(modulus), 0)


@pytest.mark.parametrize("entries", [
    *[(entry(DIM2, ONE, iid="p"), entry(DIM3, scalar(r), iid="q"))
      for r in (64, 128, 200, 1000, 10 ** 6)],
    (entry(DIM3, scalar(10 ** 30)),),
    (entry(DIM3, scalar(Fraction(1, 10 ** 30))),),
    *[(entry(A0, scalar(r), iid="a"), entry(A1, scalar(r), iid="b"))
      for r in (16, Fraction(1, 10 ** 30), 10 ** 30)],
], ids=lambda entries: "+".join(f"{e.alpha}@{e.lam.r}" for e in entries))
def test_tangent_numeric_at_distant_moduli(entries):
    # one rank threshold over all block systems loses the small ones next
    # to the large (ambiguous at 64 and 128, 31 from 200 on, 15 and 18 at
    # 10^30 and 10^-30, 8 for the characters at 10^-30); per-system
    # thresholds without unit-scaled column groups give 4 for the adjacent
    # characters at 16
    spec = spec_of(*entries)
    for seed in range(3):
        assert tangent_dim_numeric(assemble(spec, seed=seed)) == tangent_dim_formula(spec)


def test_tangent_numeric_on_a_large_point_of_small_summands():
    # n = 48 from summands of dimension 1-3, some of them repeated and some
    # linked through sixth roots of unity; far beyond the dense system's reach
    entries = []
    shape = ((3, 2), (2, 3), (1, 4), (2, 1), (3, 1), (1, 2), (3, 3), (2, 4),
             (1, 1), (2, 2), (3, 1))
    for i, (d, mult) in enumerate(shape):
        simples = enumerate_simple_gamma(d)
        linked = d > 1 and i % 2 == 0
        lam = ExactScalar.zeta6(i) if linked else ExactScalar(Fraction(17 + i, 16), 0)
        entries.append(SpecEntry(simples[i % len(simples)], lam, mult, f"s{i}"))
    spec = SemisimpleSpec(tuple(entries))
    assert spec.n == 48
    rep = assemble(spec, seed=3)
    assert tangent_dim_numeric(rep) == tangent_dim_formula(spec)
    assert tangent_dim_formula(spec) > component_dim(spec)


def test_assemble_and_measure_redraws_on_ambiguity():
    spec = spec_of(entry(A0, iid="p"), entry(A1, iid="q"))
    calls = []

    def measure(rep, tol):
        calls.append(rep)
        if len(calls) < 3:
            raise ToleranceAmbiguity("forced")
        return tangent_dim_numeric(rep, tol)

    seed, rep, measured = assemble_and_measure(spec, lambda k: 100 + k, measure)
    assert (seed, measured, len(calls)) == (102, 6, 3) and rep is calls[-1]
    calls.clear()

    def always_ambiguous(rep, tol):
        calls.append(rep)
        raise ToleranceAmbiguity("forced")

    with pytest.raises(ToleranceAmbiguity):
        assemble_and_measure(spec, lambda k: k, always_ambiguous)
    assert len(calls) == 3


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------

def test_analyze_smooth_non_adjacent_characters():
    report = analyze(spec_of(entry(A0, iid="p"), entry(A3, iid="q")))
    assert report.smooth
    assert report.failed_conditions == ()
    assert report.witnesses == ()
    assert report.tangent_dim == report.component_dim == 4


def test_analyze_singular_adjacent_characters():
    report = analyze(spec_of(entry(A0, iid="p"), entry(A1, iid="q")))
    assert not report.smooth
    assert report.failed_conditions == (
        {"kind": "cross_ext", "entries": [1, 2], "ext": 1},
    )
    assert report.component_dim == 4 and report.tangent_dim == 6
    assert [w.dimension() for w in report.witnesses] == [5]
    assert report.witnesses[0] == ComponentSignature.from_factors([DIM2])


def test_analyze_multiplicity_two_of_a_surface_simple():
    report = analyze(spec_of(entry(DIM2, mult=2)))
    assert not report.smooth
    assert report.failed_conditions == (
        {"kind": "multiplicity", "entry": 1, "dim": 2, "mult": 2},
    )
    assert report.witnesses == ()
    assert any("not necessarily an intersection" in note for note in report.notes)


def test_analyze_three_dimensional_golden():
    report = analyze(spec_of(entry(DIM2, iid="a"), entry(GammaDimVector(0, 1, 0, 0, 1), iid="b")))
    assert not report.smooth
    assert report.component_dim == 10 and report.tangent_dim == 12
    assert [w.dimension() for w in report.witnesses] == [11]
    assert report.witnesses[0] == ComponentSignature.from_factors(
        [GammaDimVector(1, 2, 1, 1, 1)])


def test_analyze_generic_scalars_are_smooth():
    from fractions import Fraction
    lam = ExactScalar(Fraction(3, 2), Fraction(1, 7))
    report = analyze(spec_of(entry(DIM2, iid="p"), entry(DIM2, lam, iid="q"),
                             entry(A0, TWO, iid="r")))
    assert report.smooth


def test_analyze_is_twist_equivariant():
    base = spec_of(entry(A0, iid="p"), entry(A1, iid="q"))
    for k in range(6):
        z = ExactScalar.zeta6(k)
        twisted = spec_of(entry(A0, z, iid="p"), entry(A1, z, iid="q"))
        r0, rk = analyze(base), analyze(twisted)
        assert (r0.smooth, r0.component_dim, r0.tangent_dim) == \
               (rk.smooth, rk.component_dim, rk.tangent_dim)
        assert r0.signature == rk.signature


def test_report_json_shape():
    report = analyze(spec_of(entry(A0, iid="p"), entry(A1, iid="q")))
    data = report.to_json()
    assert set(data) == {"n", "signature", "component_dim", "tangent_dim",
                         "smooth", "failed_conditions", "witnesses",
                         "local_quiver", "notes"}
    assert data["signature"] == [[0, 1, 0, 0, 1], [0, 1, 0, 0, 1]]
    assert data["witnesses"] == [[[1, 1, 0, 1, 1]]]


# ---------------------------------------------------------------------------
# witnesses
# ---------------------------------------------------------------------------

def test_witness_requires_singularity():
    with pytest.raises(ValueError):
        intersection_witnesses(spec_of(entry(A0, iid="p"), entry(A3, iid="q")))


def test_witness_merges_with_twist_alignment():
    # scalars zeta6 apart: the merged type uses the aligned twist
    e1 = entry(A0, iid="p")
    e2 = entry(A0, ExactScalar.zeta6(1), iid="q")
    witnesses = intersection_witnesses(spec_of(e1, e2))
    merged = A0 + GammaDimVector(0, 1, 0, 1, 0)  # A0 + twist(A0, 1)
    assert witnesses == [ComponentSignature.from_factors([merged])]


def test_witness_doubles_high_dimensional_types():
    witnesses = intersection_witnesses(spec_of(entry(DIM3, mult=2)))
    assert witnesses == [ComponentSignature.from_factors([2 * DIM3])]
    assert witnesses[0].factors[0] == GammaDimVector(2, 4, 2, 2, 2)


def test_witness_unavailable_for_doubled_surface_simple():
    with pytest.raises(WitnessUnavailable):
        intersection_witnesses(spec_of(entry(DIM2, mult=2)))


def test_witnesses_deduplicate_equal_signatures():
    # all six characters: every adjacent pair merges to the same orbit class
    vertices = [A0, A1, GammaDimVector(1, 0, 0, 0, 1), A3,
                GammaDimVector(1, 0, 0, 1, 0), GammaDimVector(0, 1, 0, 0, 1)]
    spec = spec_of(*(entry(v, iid=f"v{u}") for u, v in enumerate(vertices)))
    witnesses = intersection_witnesses(spec)
    assert len(witnesses) == 1
    assert witnesses[0] == ComponentSignature.from_factors([DIM2] + vertices[:4])


def test_witnesses_build_each_distinct_signature_once(monkeypatch):
    # 60 entries of one type at one scalar fail on all 1770 pairs of
    # entries, and every failure gives the same witness: it is built once,
    # not once per failure, which made analyze cubic in the entry count
    built = []

    class Counting(ComponentSignature):
        def __post_init__(self):
            built.append(self)
            super().__post_init__()

    spec = spec_of(*(entry(DIM3, iid=f"s{i}") for i in range(60)))
    monkeypatch.setattr(geometry, "ComponentSignature", Counting)
    witnesses = intersection_witnesses(spec)
    assert len(built) == 1
    assert [w.factors for w in witnesses] == \
        [ComponentSignature.from_factors([2 * DIM3] + [DIM3] * 58).factors]


def test_witness_preserves_total_dimension():
    spec = spec_of(entry(DIM2, iid="a"), entry(GammaDimVector(0, 1, 0, 0, 1), iid="b"),
                   entry(DIM3, TWO, iid="c"))
    for w in intersection_witnesses(spec):
        assert w.n == spec.n


# ---------------------------------------------------------------------------
# component enumeration
# ---------------------------------------------------------------------------

def test_component_enumeration_small_n():
    one = enumerate_component_signatures(1)
    assert len(one) == 1 and one[0].dimension() == 1
    two = enumerate_component_signatures(2)
    assert [s.dimension() for s in two] == [4, 5]
    three = enumerate_component_signatures(3)
    assert [s.dimension() for s in three] == [9, 10, 11]


def test_component_enumeration_counts_multisets():
    four = enumerate_component_signatures(4)
    # {O1 x4}, {O1 x2, O2}, {O2, O2}, {O1, O3}, {O4}
    assert len(four) == 5
    assert [s.dimension() for s in four] == [16, 17, 18, 18, 19]


# ---------------------------------------------------------------------------
# the commuting component and GL_n
# ---------------------------------------------------------------------------

def test_gln_identity_and_diagonal():
    pair = gln_embed(np.eye(3))
    assert np.array_equal(pair.A, np.eye(3)) and np.array_equal(pair.B, np.eye(3))
    assert np.allclose(gln_retract(pair), np.eye(3))
    from b3rep import RepPair
    commuting = RepPair(np.diag([1.0, 8.0]), np.diag([1.0, 4.0]), B3)
    assert np.allclose(gln_retract(commuting), np.diag([1.0, 2.0]))


def test_gln_round_trip_random():
    rng = np.random.default_rng(0)
    for n in (2, 3):
        g = np.eye(n) + 0.3 * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        pair = gln_embed(g)
        assert np.linalg.norm(pair.A @ pair.B - pair.B @ pair.A) < 1e-12
        assert np.allclose(gln_retract(pair), g, atol=1e-10)


def test_gln_retract_rejects_non_commuting():
    s = assemble(spec_of(entry(DIM2)), seed=2)
    if np.linalg.norm(s.A @ s.B - s.B @ s.A) > 1e-6:
        with pytest.raises(ValueError):
            gln_retract(s)
