"""Smoothness verdicts, local quivers, dimensions, witnesses, GL_n maps."""

import time
import tracemalloc
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
    ToleranceConfig,
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
    tangent_dims_numeric,
    validate_rep,
)
from b3rep import extoracle, geometry
from b3rep.geometry import (
    _block_classes,
    _diagonal_blocks,
    _frobenius,
    _gln_embed,
    _gln_retract,
)

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


def test_analyze_computes_pairs_inside_each_lambda6_class_only(monkeypatch):
    # three classes of lambda^6, interleaved: modulus 1 at angles k/6,
    # modulus 2, and modulus 1 at angles 1/7 + k/6
    seventh = ExactScalar(Fraction(1), Fraction(1, 7))
    spec = spec_of(entry(DIM3, iid="a"), entry(A0, TWO, iid="b"),
                   entry(DIM3, seventh, iid="c"), entry(DIM3, ExactScalar.zeta6(1), iid="d"),
                   entry(DIM2, TWO * ExactScalar.zeta6(1), iid="e"),
                   entry(DIM2, seventh * ExactScalar.zeta6(2), iid="f"),
                   entry(DIM2, ExactScalar.zeta6(2), mult=2, iid="g"),
                   entry(A1, seventh * ExactScalar.zeta6(1), iid="h"))
    assert spec.lambda6_classes == ((0, 3, 6), (1, 4), (2, 5, 7))
    # the all-pairs quiver, as every pair of entries defines it
    reference = [[ext_b3_spec(e1, e2) for e2 in spec.entries] for e1 in spec.entries]
    assert any(reference[i][j] for i in range(spec.k) for j in range(i))
    calls = []
    real = geometry.ext_b3_spec

    def counted(e1, e2):
        calls.append((e1, e2))
        return real(e1, e2)

    monkeypatch.setattr(geometry, "ext_b3_spec", counted)
    report = analyze(spec)
    assert [list(row) for row in report.local_quiver.arrows] == reference
    assert len(calls) == 6 + 3 + 6 < spec.k * (spec.k + 1) // 2
    monkeypatch.undo()
    quiver = geometry.LocalQuiver(spec.entries, tuple(map(tuple, reference)))
    assert report.tangent_dim == geometry._tangent_dim(quiver)
    assert list(report.failed_conditions) == geometry._failed_conditions(quiver)
    assert report.to_json() == analyze(spec).to_json()


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


@pytest.fixture
def full_shapes(monkeypatch):
    """(n_V, n_W) of each pair that tangent_dim_numeric ranks on the full
    cocycle system."""
    shapes = []
    full = extoracle.cocycle_dims_numeric

    def spy(pairs, kind, tol):
        shapes.extend((v.n, w.n) for v, w in pairs)
        return full(pairs, kind, tol)

    monkeypatch.setattr(extoracle, "cocycle_dims_numeric", spy)
    return shapes


def test_assembled_blocks_take_no_full_system(full_shapes):
    # A^2 = B^3 is scalar on every block of an assembled pair, so every
    # pair of blocks, small or large, is counted (distinct lambda^6) or
    # ranked on its reduced system (equal lambda^6): the 7- and
    # 6-dimensional classes at scalars a sixth root of unity apart, six
    # 3-dimensional ones at the sixth roots of unity, and small summands
    # at moduli up to 10^100, whose A^2 overflows unless each block is
    # scaled first, with its A and B scaled alike to keep A^2 = B^3
    lam = ExactScalar(Fraction(3, 2), Fraction(1, 7))
    specs = [spec_of(entry(GammaDimVector(4, 3, 3, 2, 2), lam, iid="b"),
                     entry(GammaDimVector(3, 3, 2, 2, 2), lam * ExactScalar.zeta6(1), iid="c"),
                     entry(DIM3, iid="d"), entry(A0, iid="a")),
             spec_of(*[entry(DIM3, ExactScalar.zeta6(k), iid=f"s{k}") for k in range(6)],
                     entry(DIM2, mult=2, iid="t")),
             spec_of(entry(DIM2, ONE, iid="p"), entry(DIM3, scalar(10 ** 100), iid="q"),
                     entry(DIM3, scalar(10 ** 80), iid="r"),
                     entry(A0, scalar(Fraction(1, 10 ** 30)), iid="a"))]
    for seed, spec in enumerate(specs):
        assert tangent_dim_numeric(assemble(spec, seed=seed)) == tangent_dim_formula(spec)
    assert full_shapes == []


def test_dense_conjugate_of_mixed_moduli_takes_the_full_system(full_shapes):
    # A^2 of the conjugate is not scalar (lambda^6 = 1 and 3^6 / 2^6), so
    # its one block is ranked on the full n^2 x 2n^2 system, at n = 6 and 7
    for seed in range(3):
        for extra in ((), (entry(A0, ExactScalar(Fraction(5, 4), 0), iid="r"),)):
            spec = spec_of(entry(GammaDimVector(2, 2, 2, 1, 1), iid="p"),
                           entry(DIM2, ExactScalar(Fraction(3, 2), 0), iid="q"), *extra)
            conj = _unitary_conjugate(assemble(spec, seed=seed), seed)
            full_shapes.clear()
            assert tangent_dim_numeric(conj) == tangent_dim_formula(spec)
            assert full_shapes == [(spec.n, spec.n)]


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
      for r in (64, 128, 200, 1000, 10 ** 6, 10 ** 80, 10 ** 100)],
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
    # characters at 16; squared peaks in the unit scaling overflowed from
    # about 10^77 and gave 30 at 10^80 and 10^100
    spec = spec_of(*entries)
    for seed in range(3):
        assert tangent_dim_numeric(assemble(spec, seed=seed)) == tangent_dim_formula(spec)


@pytest.mark.parametrize("tol", [ToleranceConfig(), ToleranceConfig(0.1)],
                         ids=["default", "coarse"])
def test_stacked_tangent_oracle_equals_each_point_alone(tol):
    # random points, a dense conjugate (ranked on the full system) and a
    # point whose two lambda^6 lie within a factor 10 of the grouping
    # threshold: in one stack each point keeps the value and the reason it
    # has alone.  At 0.1 some points are ambiguous and some not, so a
    # reason that leaked to a neighbour, or a flag that moved with the zero
    # padding of a wider neighbour (sigma_max flagged by rounding), shows
    specs = [random_spec(n, seed) for seed in range(4) for n in range(1, 8)]
    reps = [assemble(spec, seed=i) for i, spec in enumerate(specs)]
    dense = spec_of(entry(DIM2, iid="p"), entry(A0, scalar(Fraction(3, 2)), iid="q"))
    reps.append(_unitary_conjugate(assemble(dense, seed=1), 1))
    reps.append(assemble(spec_of(
        entry(DIM3, iid="a"), entry(DIM3, scalar(1 + Fraction(1, 2 * 10 ** 8)), iid="b"))))
    values, reasons = tangent_dims_numeric(reps, tol)
    alone = [tangent_dims_numeric([rep], tol) for rep in reps]
    assert values == [value for (value,), _ in alone]
    assert reasons == [reason for _, (reason,) in alone]
    assert reasons[-1].startswith("two scalars within a factor 10")
    if tol.rel_tol == 0.1:
        assert 0 < sum(map(bool, reasons[:-1])) < len(reasons) - 1
    else:
        assert not any(reasons[:-1])
        assert values[:-1] == [tangent_dim_formula(spec) for spec in (*specs, dense)]


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


def test_block_classes_take_one_pass_over_distinct_blocks():
    # 3000 distinct 1 x 1 blocks: a scan of every class found so far took
    # 2 s on 1000 blocks and grows as the square; A and B share one array
    # to halve the memory
    diag = np.zeros((3000, 3000), dtype=complex)
    np.fill_diagonal(diag, np.arange(1, 3001))
    diag.setflags(write=False)
    start = time.perf_counter()
    classes = _block_classes(RepPair(diag, diag, B3))
    assert time.perf_counter() - start < 2
    assert [(rep.A[0, 0], count) for rep, count in classes] == \
        [(complex(v), 1) for v in range(1, 3001)]
    # byte-equal blocks still merge, in order of first appearance
    repeated = np.diag(np.array([2, 1, 2, 3, 1, 2], dtype=complex))
    classes = _block_classes(RepPair(repeated, 2 * repeated, B3))
    assert [(rep.A[0, 0], rep.B[0, 0], count) for rep, count in classes] == \
        [(2, 4, 3), (1, 2, 2), (3, 6, 1)]


def test_tangent_numeric_on_many_summands_at_distinct_moduli():
    # 300 one-dimensional summands at distinct moduli: every cross pair is
    # counted with no system and no list of pairs, so the oracle holds
    # little beyond the 300 x 300 matrix of cocycle dimensions; with a
    # full system for each of the 90000 pairs it peaked at 21 MB
    spec = spec_of(*(entry(A0, scalar(Fraction(64 + i, 64)), iid=f"s{i}") for i in range(300)))
    rep = assemble(spec, seed=0)
    tracemalloc.start()
    try:
        measured = tangent_dim_numeric(rep)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert measured == tangent_dim_formula(spec) == 300 ** 2
    assert peak <= 10 ** 6


def test_assemble_and_measure_redraws_on_ambiguity(monkeypatch):
    import b3rep.verify as verify_mod
    spec = spec_of(entry(A0, iid="p"), entry(A1, iid="q"))
    calls = []

    def measure(reps, tol):
        calls.extend(reps)
        if len(calls) < 3:
            return [0] * len(reps), ["forced"] * len(reps)
        return tangent_dims_numeric(reps, tol)

    real_validate = verify_mod.validate_rep
    validated = []

    def validate(rep, kind):
        validated.append((rep, real_validate(rep, kind)))
        return validated[-1][1]

    monkeypatch.setattr(verify_mod, "tangent_dims_numeric", measure)
    monkeypatch.setattr(verify_mod, "validate_rep", validate)
    seed, valid, measured = verify_mod.assemble_and_measure(spec, lambda k: 100 + k)
    assert (seed, measured, len(calls)) == (102, 6, 3) and valid
    # only the pair of the clean attempt, the last one measured, is validated
    assert len(validated) == 1 and validated[0][0] is calls[-1] and valid is validated[0][1]
    calls.clear()

    def always_ambiguous(reps, tol):
        calls.extend(reps)
        return [0] * len(reps), ["forced"] * len(reps)

    monkeypatch.setattr(verify_mod, "tangent_dims_numeric", always_ambiguous)
    with pytest.raises(ToleranceAmbiguity, match="^forced$"):
        verify_mod.assemble_and_measure(spec, lambda k: k)
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


def test_frobenius_equals_linalg_norm_bit_for_bit():
    rng = np.random.default_rng(3)
    for n in (1, 2, 5, 8):
        stack = rng.standard_normal((40, n, n)) + 1j * rng.standard_normal((40, n, n))
        stack = stack @ stack
        assert _frobenius(stack).tolist() == [np.linalg.norm(m) for m in stack]


def test_gln_stacks_raise_if_any_member_fails():
    stack = np.array([np.eye(3), np.diag([1.0, 2.0, 0.0]), 2 * np.eye(3)], dtype=complex)
    with pytest.raises(ValueError, match="singular"):
        _gln_embed(stack)
    A, B = _gln_embed(np.array([np.eye(2), np.diag([1.0, 2.0]), 2 * np.eye(2)], dtype=complex))
    B[1] = [[1, 1], [0, 1]]
    with pytest.raises(ValueError, match="does not commute"):
        _gln_retract(A, B)
    with pytest.raises(ValueError, match="singular"):
        gln_embed(np.diag([1.0, 0.0]))


def test_gln_retract_rejects_non_commuting():
    s = assemble(spec_of(entry(DIM2)), seed=2)
    if np.linalg.norm(s.A @ s.B - s.B @ s.A) > 1e-6:
        with pytest.raises(ValueError):
            gln_retract(s)
