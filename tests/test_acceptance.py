"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.  Every expected value is an exact integer; the only
tolerances are the stated numerical ones (rank threshold 1e-8,
round-trip residuals 1e-10 / 1e-12).
"""

import itertools
import time
from fractions import Fraction

import numpy as np

from b3rep import (
    B3,
    GAMMA,
    EULER_MATRIX_HEX,
    ExactScalar,
    GammaDimVector,
    HexDimVector,
    SemisimpleSpec,
    SpecEntry,
    analyze,
    assemble,
    component_dim,
    enumerate_hex,
    enumerate_simple_gamma,
    ext_b3_spec,
    ext_dim_numeric,
    ext_gamma_pair,
    ext_gamma_self,
    euler_hex,
    hom_dim_numeric,
    is_simple_hex,
    one_dim_rep,
    random_simple_gamma,
    random_spec,
    run_suite,
    scale_rep,
    tangent_dim_formula,
    tangent_dim_numeric,
    twist_gamma,
    validate_rep,
)
from b3rep.factory import derived_seed
from b3rep.geometry import ComponentSignature

ONE = ExactScalar.one()
A0 = GammaDimVector(1, 0, 1, 0, 0)
A1 = GammaDimVector(0, 1, 0, 1, 0)
DIM2 = GammaDimVector(1, 1, 1, 1, 0)


def _pass(k: int, message: str) -> None:
    print(f"ACCEPTANCE {k}: PASS - {message}")


def _instance(alpha, label, trial=0):
    return random_simple_gamma(alpha, derived_seed("acc", label, alpha.as_tuple(), trial))


def test_criterion_1_euler_form_ground_truth():
    e1 = HexDimVector.basis(1)
    assert euler_hex(e1, e1) == 1
    expected = (
        (1, -1, 0, 0, 0, -1),
        (-1, 1, -1, 0, 0, 0),
        (0, -1, 1, -1, 0, 0),
        (0, 0, -1, 1, -1, 0),
        (0, 0, 0, -1, 1, -1),
        (-1, 0, 0, 0, -1, 1),
    )
    for i in range(6):
        for j in range(6):
            assert EULER_MATRIX_HEX[i][j] == expected[i][j], (i, j)
    _pass(1, "chi(e1, e1) = 1 and the 6x6 Euler matrix matches entry-by-entry")


def test_criterion_2_simplicity_lemma_desk_scale():
    started = time.monotonic()
    coordinate = {HexDimVector.basis(i) for i in range(6)}
    seen_simple = 0
    for total in range(1, 9):
        for h in enumerate_hex(total):
            if not is_simple_hex(h):
                continue
            seen_simple += 1
            chi = euler_hex(h, h)
            if h in coordinate:
                assert chi == 1, h
            else:
                assert chi <= 0, (h, chi)
    elapsed = time.monotonic() - started
    assert seen_simple > 300
    assert elapsed < 1.0, f"took {elapsed:.2f}s"
    _pass(2, f"chi = 1 only on the 6 coordinate vectors, <= 0 on all other "
             f"{seen_simple - 6} simple vectors with total <= 8 ({elapsed:.2f}s)")


def test_criterion_3_quotient_ext_oracle_equals_formula():
    started = time.monotonic()
    simples = [v for n in (1, 2, 3) for v in enumerate_simple_gamma(n)]
    trials = 20
    checks = 0
    for alpha in simples:
        expected = ext_gamma_self(alpha)
        for t in range(trials):
            s = _instance(alpha, "c3-self", t)
            assert ext_dim_numeric(s.rep, s.rep, GAMMA) == expected, (alpha, t)
            checks += 1
    for alpha, beta in itertools.product(simples, simples):
        if alpha == beta and alpha.n == 1:
            expected = 0  # equal characters are the same module: self case
        else:
            expected = ext_gamma_pair(alpha, beta)
        for t in range(trials):
            s = _instance(alpha, ("c3-a", beta), t)
            w = _instance(beta, ("c3-b", alpha), t + 1000)
            if alpha == beta and alpha.n > 1:
                if hom_dim_numeric(s.rep, w.rep) != 0:
                    continue  # isomorphic draw: pair count not defined
            assert ext_dim_numeric(s.rep, w.rep, GAMMA) == expected, (alpha, beta, t)
            checks += 1
    elapsed = time.monotonic() - started
    assert elapsed < 60.0, f"took {elapsed:.2f}s"
    _pass(3, f"{checks} quotient Ext values match the formulas exactly "
             f"({elapsed:.1f}s)")


def test_criterion_4_braid_ext_three_cases():
    started = time.monotonic()
    pool = [ONE, ExactScalar.zeta6(1), ExactScalar.zeta6(2),
            ExactScalar.from_rational(2), ExactScalar(Fraction(3, 2), Fraction(1, 7))]
    simples = [v for n in (1, 2) for v in enumerate_simple_gamma(n)]
    checks = 0
    # case 3: the self case gains exactly one dimension
    for alpha in simples + [GammaDimVector(2, 1, 1, 1, 1)]:
        for lam in pool:
            inst = _instance(alpha, ("c4-self", str(lam)))
            v = scale_rep(inst.rep, lam)
            assert ext_dim_numeric(v, v, B3) == ext_gamma_self(alpha) + 1
            checks += 1
    # case 1: scalar ratios outside the sixth roots force zero
    for alpha, beta in itertools.product(simples[:4], simples[:4]):
        s = _instance(alpha, "c4-zero-a")
        t = _instance(beta, "c4-zero-b")
        for lam, mu in ((ONE, ExactScalar.from_rational(2)),
                        (ExactScalar(Fraction(3, 2), Fraction(1, 7)), ONE),
                        (ONE, ExactScalar(Fraction(1), Fraction(1, 42)))):
            got = ext_dim_numeric(scale_rep(s.rep, lam), scale_rep(t.rep, mu), B3)
            assert got == 0, (alpha, beta, str(lam), str(mu))
            checks += 1
    # case 2: sixth-root ratios reduce to the twisted quotient value
    for alpha, beta in itertools.product(simples, simples):
        for k in range(6):
            e1 = SpecEntry(alpha, ONE, 1, "L")
            e2 = SpecEntry(beta, ExactScalar.zeta6(k), 1, "R")
            s = _instance(alpha, ("c4-a", beta, k))
            t = _instance(beta, ("c4-b", alpha, k))
            if alpha == beta and alpha.n > 1 and hom_dim_numeric(s.rep, t.rep) != 0:
                continue
            v = s.rep
            w = scale_rep(t.rep, ExactScalar.zeta6(k))
            got = ext_dim_numeric(v, w, B3)
            if alpha.n == 1 and beta.n == 1 and alpha == twist_gamma(beta, k):
                # zeta6^k moves vertex type beta onto alpha: same module,
                # so the self case applies
                assert got == ext_gamma_self(alpha) + 1
            else:
                expected = ext_b3_spec(e1, e2)
                assert got == expected == ext_gamma_pair(alpha, twist_gamma(beta, k)), \
                    (alpha, beta, k)
            checks += 1
    elapsed = time.monotonic() - started
    assert elapsed < 60.0, f"took {elapsed:.2f}s"
    _pass(4, f"{checks} braid Ext values reproduce the three-case rule "
             f"({elapsed:.1f}s)")


def test_criterion_5_braid_ext_symmetry():
    pool = [ONE, ExactScalar.zeta6(1), ExactScalar.from_rational(2)]
    simples = [v for n in (1, 2) for v in enumerate_simple_gamma(n)]
    checks = 0
    for alpha, beta in itertools.product(simples[:4], simples):
        for lam, mu in itertools.product(pool, pool):
            s = _instance(alpha, ("c5-a", beta, str(lam)))
            t = _instance(beta, ("c5-b", alpha, str(mu)))
            v = scale_rep(s.rep, lam)
            w = scale_rep(t.rep, mu)
            assert ext_dim_numeric(v, w, B3) == ext_dim_numeric(w, v, B3), \
                (alpha, beta, str(lam), str(mu))
            checks += 1
    result = run_suite("symmetry", n=3, trials=6, seed=0)
    assert result.ok, result.failures
    _pass(5, f"Ext symmetric on {checks + result.checks} sampled pairs")


GOLDEN_TANGENTS = (
    (SemisimpleSpec((SpecEntry(A0, ONE, 1, "p"), SpecEntry(A1, ONE, 1, "q"))), 6),
    (SemisimpleSpec((SpecEntry(A0, ONE, 1, "p"),
                     SpecEntry(A1, ExactScalar.from_rational(2), 1, "q"))), 4),
    (SemisimpleSpec((SpecEntry(DIM2, ONE, 2, "p"),)), 20),
)


def test_criterion_6_tangent_dimensions():
    started = time.monotonic()
    for spec, expected in GOLDEN_TANGENTS:
        rep = assemble(spec, seed=11)
        assert validate_rep(rep, B3)
        assert tangent_dim_formula(spec) == expected
        assert tangent_dim_numeric(rep) == expected
    result = run_suite("tangent", n=6, trials=50, seed=0)
    assert result.ok, result.failures
    elapsed = time.monotonic() - started
    assert elapsed < 120.0, f"took {elapsed:.2f}s"
    _pass(6, f"three golden tangent dimensions (6, 4, 20) and 50 randomized "
             f"specs match the Jacobian oracle ({elapsed:.1f}s)")


def test_criterion_7_main_theorem_verdicts():
    # randomized equivalence: smooth <=> tangent dim = component dim (measured)
    for s in range(25):
        spec = random_spec(1 + s % 6, seed=derived_seed("c7", s))
        rep = assemble(spec, seed=s)
        measured = tangent_dim_numeric(rep)
        report = analyze(spec)
        assert measured == report.tangent_dim
        assert report.smooth == (measured == component_dim(spec)), spec.to_json()
    # the n = 2 golden singular point: components of dims 4 and 5
    report = analyze(GOLDEN_TANGENTS[0][0])
    assert not report.smooth
    assert report.component_dim == 4
    assert [w.dimension() for w in report.witnesses] == [5]
    assert report.witnesses[0] == ComponentSignature.from_factors([DIM2])
    # the n = 3 example: dims 10 and 11 with tangent 12
    spec3 = SemisimpleSpec((SpecEntry(DIM2, ONE, 1, "a"),
                            SpecEntry(GammaDimVector(0, 1, 0, 0, 1), ONE, 1, "b")))
    report3 = analyze(spec3)
    assert report3.component_dim == 10 and report3.tangent_dim == 12
    assert [w.dimension() for w in report3.witnesses] == [11]
    assert tangent_dim_numeric(assemble(spec3, seed=2)) == 12
    _pass(7, "smooth <=> tangent = component dimension on randomized specs; "
             "golden intersections give dims 4/5 and 10/11")


def test_criterion_8_gl_n_component():
    result = run_suite("gln", n=4, trials=50, seed=0)
    assert result.ok, result.failures
    assert result.checks == 3 * 50 * 4  # n in {2, 3, 4}, four checks per trial
    _pass(8, f"f2 o f1 = id and f1 o f2 = id to 1e-10 on 50 instances for "
             f"each n in 2..4; relation and commutation residuals <= 1e-12 "
             f"(worst {result.worst_residual:.2e})")


def test_criterion_9_scaling_action_closure():
    # rescaling preserves the braid relation to 1e-12
    worst = 0.0
    for s in range(50):
        alpha = enumerate_simple_gamma(1 + s % 3)[0]
        inst = _instance(alpha, "c9", s)
        lam = [ONE, ExactScalar.zeta6(1), ExactScalar.from_rational(2),
               ExactScalar(Fraction(3, 2), Fraction(1, 7))][s % 4]
        scaled = scale_rep(inst.rep, lam)
        a2 = scaled.A @ scaled.A
        b3 = scaled.B @ scaled.B @ scaled.B
        residual = np.linalg.norm(a2 - b3) / max(1.0, np.linalg.norm(a2))
        worst = max(worst, residual)
        assert residual <= 1e-12
    # and realizes the hexagon rotation on the characters
    for u in range(6):
        rotated = scale_rep(one_dim_rep(u), ExactScalar.zeta6(1))
        target = one_dim_rep((u + 1) % 6)
        assert np.allclose(rotated.A, target.A, atol=1e-12)
        assert np.allclose(rotated.B, target.B, atol=1e-12)
    _pass(9, f"rescaling preserves A^2 = B^3 (worst residual {worst:.2e}) and "
             f"zeta6 rotates the hexagon one step")
