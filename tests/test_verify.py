"""The property suites themselves: all green, deterministic, honest."""

import functools
import inspect
import json
import tracemalloc

import numpy as np
import pytest

import b3rep.extoracle as extoracle_mod
import b3rep.factory as factory_mod
import b3rep.lattice as lattice_mod
import b3rep.verify as verify_mod
from b3rep import (
    DEFAULT_TOL,
    GAMMA,
    GammaDimVector,
    HexDimVector,
    SemisimpleSpec,
    SuiteResult,
    ToleranceAmbiguity,
    ToleranceConfig,
    derived_seed,
    ext_gamma_pair,
    gln_embed,
    gln_retract,
    random_spec,
    run_suite,
)
from b3rep.factory import _unitaries


def random_unitary(n, rng):
    """Haar-like unitary, deterministic given the generator state."""
    return _unitaries(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))


@pytest.mark.parametrize("suite,kwargs", [
    ("ext", {"n": 2, "trials": 4}),
    ("tangent", {"n": 5, "trials": 10}),
    ("lemma", {"n": 6}),
    ("gln", {"n": 3, "trials": 5}),
    ("symmetry", {"n": 2, "trials": 4}),
])
def test_suites_pass_at_reduced_scale(suite, kwargs):
    result = run_suite(suite, seed=0, **kwargs)
    assert result.ok, result.failures
    assert result.checks > 0


@pytest.mark.parametrize("suite, size_key", [
    ("ext", "max_dim"),
    ("tangent", "max_n"),
    ("lemma", "max_total"),
    ("gln", "max_n"),
    ("symmetry", "max_dim"),
])
def test_run_suite_routes_n_to_the_suite_size_parameter(monkeypatch, suite, size_key):
    fn, *routing = verify_mod._SUITES[suite]
    calls = []

    @functools.wraps(fn)
    def record(**kwargs):
        calls.append(kwargs)
        return SuiteResult(suite)

    monkeypatch.setitem(verify_mod._SUITES, suite, (record, *routing))
    run_suite(suite, n=7, trials=2, seed=4)
    assert calls[0][size_key] == 7
    # every argument passed is one the suite function takes
    assert set(calls[0]) <= set(inspect.signature(fn).parameters)


@pytest.mark.parametrize("suite, ignored", [
    ("lemma", {"trials": 5, "seed": 3, "tol": ToleranceConfig(0.1)}),
    ("gln", {"tol": ToleranceConfig(0.1)}),
], ids=["lemma", "gln"])
def test_lemma_suite_ignores_trials_seed_and_tolerance(suite, ignored):
    # lemma is exhaustive, and gln decides at the fixed DEFAULT_TOL
    assert run_suite(suite, **ignored).to_json() == run_suite(suite).to_json()


@pytest.mark.parametrize("n, checks", [
    (1, 16), (2, 22), (5, 70), (8, 374), (10, 967),
    # N = 18564 vectors: one N x N int64 pair matrix would take 2.8 GB
    (12, 2216),
])
def test_lemma_check_counts(n, checks):
    result = run_suite("lemma", n=n)
    assert result.ok, result.failures
    assert result.checks == checks


def test_lemma_suite_allocates_no_pair_matrix():
    # 3003 vectors of total <= 8: one pair matrix of them is 72 MB
    tracemalloc.start()
    try:
        assert run_suite("lemma", n=8).ok
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8e6


def swapped_hex_to_gamma(i):
    """hex_to_gamma with x and y swapped on the i-th coordinate vector."""
    real = verify_mod.hex_to_gamma

    def mutated(h):
        g = real(h)
        if h == HexDimVector.basis(i):
            return GammaDimVector(g.a, g.b, g.y, g.x, g.z)
        return g

    return mutated


def euler_with(*changes):
    """EULER_MATRIX_HEX with the given (i, j, value) entries changed."""
    rows = [list(row) for row in verify_mod.EULER_MATRIX_HEX]
    for i, j, value in changes:
        rows[i][j] = value
    return tuple(map(tuple, rows))


DISAGREE = "hexagon and bipartite Euler forms disagree"


@pytest.mark.parametrize("module, name, value, failure", [
    # a symmetric pair: the form stays symmetric but leaves the bipartite one
    (lattice_mod, "EULER_MATRIX_HEX", euler_with((0, 2, -1), (2, 0, -1)), DISAGREE),
    (lattice_mod, "EULER_MATRIX_HEX", euler_with((1, 3, 1)),
     "hexagon Euler matrix is not symmetric"),
    (verify_mod, "hex_to_gamma", swapped_hex_to_gamma(0), DISAGREE),
    (verify_mod, "hex_to_gamma", swapped_hex_to_gamma(4), DISAGREE),
])
def test_lemma_suite_fails_on_a_mutated_form_or_map(monkeypatch, module, name, value,
                                                    failure):
    # a changed Euler matrix is the library's: euler_hex reads it as well
    if module is lattice_mod:
        monkeypatch.setattr(verify_mod, name, value)
    monkeypatch.setattr(module, name, value)
    result = run_suite("lemma")
    assert failure in result.failures and result.checks == 374


def reference_gln(max_n, trials, seed):
    """The (ok, residual) records of the gln suite, one trial at a time
    through the public single-matrix ``gln_embed`` and ``gln_retract``."""
    records = []
    for n in range(2, max_n + 1):
        for trial in range(trials):
            rng = np.random.default_rng(derived_seed("gln", seed, n, trial))
            u = random_unitary(n, rng)
            w = random_unitary(n, rng)
            g = u @ np.diag((0.8 + 0.45 * rng.random(n)).astype(complex)) @ w
            pair = gln_embed(g)
            bound = 1e-12 * max(1.0, np.linalg.norm(pair.A) ** 2)
            rel = np.linalg.norm(pair.A @ pair.A - pair.B @ pair.B @ pair.B)
            comm = np.linalg.norm(pair.A @ pair.B - pair.B @ pair.A)
            back = gln_retract(pair)
            again = gln_embed(back)
            err = np.linalg.norm(back - g)
            err2 = np.linalg.norm(again.A - pair.A) + np.linalg.norm(again.B - pair.B)
            records += [(rel <= bound, rel), (comm <= bound, comm),
                        (err <= 1e-10, err), (err2 <= 1e-10, err2)]
    return records


@pytest.mark.parametrize("max_n", [4, 6])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_gln_suite_matches_a_per_trial_loop(monkeypatch, max_n, seed):
    records = []
    record = SuiteResult.record

    def logged(self, ok, residual=0.0, message=""):
        records.append((ok, residual))
        record(self, ok, residual, message)

    monkeypatch.setattr(SuiteResult, "record", logged)
    result = run_suite("gln", n=max_n, trials=10, seed=seed)
    expected = reference_gln(max_n, 10, seed)
    assert result.ok and len(records) == len(expected) == 40 * (max_n - 1)
    assert [ok for ok, _ in records] == [bool(ok) for ok, _ in expected]
    np.testing.assert_allclose([r for _, r in records], [r for _, r in expected],
                               rtol=1e-12, atol=0)


@pytest.mark.parametrize("name, value, failure", [
    ("_gln_embed", lambda G: (G @ G, G @ G @ G), "embed relation residual"),
    ("_gln_retract", lambda A, B: B @ np.linalg.inv(A), "retract(embed(G)) error"),
])
def test_gln_suite_fails_on_a_mutated_embed_or_retract(monkeypatch, name, value, failure):
    monkeypatch.setattr(verify_mod, name, value)
    result = run_suite("gln", n=3, trials=5)
    assert result.checks == 40 and result.failed > 0
    assert any(msg.startswith(failure) for msg in result.failures)


def test_unknown_suite_rejected():
    with pytest.raises(ValueError):
        run_suite("nope")


def test_suite_results_are_deterministic():
    a = run_suite("tangent", n=4, trials=5, seed=3)
    b = run_suite("tangent", n=4, trials=5, seed=3)
    assert a.to_json() == b.to_json()


def measured_stacks(monkeypatch, suite, **kwargs):
    """The suite's result and the (oracle, shape, count) of each stacked
    call ``_measure`` made."""
    calls = []
    for name in ("_ext_dims", "_coboundary_defects"):
        def spy(pairs, kind, tol, real=getattr(verify_mod, name), name=name):
            calls.append((name, pairs[0][0].n, pairs[0][1].n, kind, len(pairs)))
            return real(pairs, kind, tol)
        monkeypatch.setattr(verify_mod, name, spy)
    result = run_suite(suite, **kwargs).to_json()
    monkeypatch.undo()
    return result, calls


@pytest.mark.parametrize("suite, kwargs", [
    ("ext", {"n": 3, "trials": 8, "seed": 1}),
    ("symmetry", {"n": 3, "trials": 30, "seed": 2}),
])
@pytest.mark.parametrize("chunk_bytes", [1, 3 * 16 * (2 * 2 * 2) ** 2])
def test_measure_in_chunks_gives_the_same_suite(monkeypatch, suite, kwargs, chunk_bytes):
    # at these sizes every group is one stacked call; with room for one
    # system a call, or for three quotient cocycle systems of (2, 2), the
    # groups split into chunks of the bytes allowed, and every value and
    # count stays
    whole, calls = measured_stacks(monkeypatch, suite, **kwargs)
    assert len({call[:4] for call in calls}) == len(calls)
    monkeypatch.setattr(verify_mod, "_MEASURE_CHUNK_BYTES", chunk_bytes)
    split, chunks = measured_stacks(monkeypatch, suite, **kwargs)
    assert split == whole
    assert len(chunks) > len(calls)
    assert sum(call[-1] for call in chunks) == sum(call[-1] for call in calls)
    assert all(count <= max(1, chunk_bytes // (16 * (2 * n_v * n_w) ** 2))
               for _, n_v, n_w, _, count in chunks)


def test_random_spec_is_valid_and_deterministic():
    for n in range(1, 7):
        for seed in range(12):
            spec = random_spec(n, seed=seed)
            assert isinstance(spec, SemisimpleSpec)
            assert spec.n == n
    assert random_spec(5, seed=1).to_json() == random_spec(5, seed=1).to_json()
    assert random_spec(5, seed=1).to_json() != random_spec(5, seed=2).to_json()


def test_random_specs_cover_both_verdicts():
    from b3rep import analyze
    verdicts = {analyze(random_spec(4, seed=s)).smooth for s in range(30)}
    assert verdicts == {True, False}


def spy_draws(monkeypatch):
    """The (types, seeds) of every ``_draw_simples`` call the suites make."""
    calls = []
    real = verify_mod._draw_simples

    def spy(types, seeds):
        calls.append((list(types), list(seeds)))
        return real(types, seeds)

    monkeypatch.setattr(verify_mod, "_draw_simples", spy)
    return calls


def test_a_pair_whose_hom_reads_nonzero_is_redrawn(monkeypatch):
    # the first Hom call reads the one pair of equal types of dimension >= 2
    # as linked (Hom 1): that draw alone is drawn again, under labels that
    # end with the attempt, and all its systems measured again
    real = verify_mod._hom_dims
    homs = []

    def linked_first(pairs, kind, tol):
        homs.append(len(pairs))
        values, flags = real(pairs, kind, tol)
        return (values + 1 if len(homs) == 1 else values), flags

    monkeypatch.setattr(verify_mod, "_hom_dims", linked_first)
    calls = spy_draws(monkeypatch)
    a1, a2 = GammaDimVector(1, 0, 1, 0, 0), GammaDimVector(1, 1, 1, 1, 0)
    measured = []

    def systems(*reps):
        return [("ext", reps[0], reps[-1], GAMMA)]

    check = ((0,), "ext", lambda got: measured.append(got) or (True, 0, ""))
    plan = [verify_mod._pair(a2, a2, 0, systems, [check]),
            verify_mod._pair(a2, a1, 0, systems, [check]),
            verify_mod._pair(a1, a1, 0, systems, [check]), ([(a1, ("self", a1, 0))], systems, [check])]
    draws = [instances for instances, _, _ in plan]
    outcomes = verify_mod._run_draws(plan, verify_mod._labelled(3), DEFAULT_TOL)
    result = verify_mod._record("runner", outcomes, [checks for _, _, checks in plan])
    assert homs == [1, 1]
    assert measured == [ext_gamma_pair(a2, a2), ext_gamma_pair(a2, a1), 0, 0]
    # no check was left unclear
    assert result.checks == 4 and result.failed == 0
    assert [seeds for _, seeds in calls] == [
        [derived_seed("verify", label, 3) for draw in draws for _, label in draw],
        [derived_seed("verify", ("pair-a", a2, a2, 0, 0, 1), 3),
         derived_seed("verify", ("pair-b", a2, a2, 0, 0, 1), 3)]]


def test_a_pair_that_stays_isomorphic_fails_its_checks(monkeypatch, capsys):
    # every Hom reads 1: each pair of equal types of dimension >= 2 is drawn
    # three times and then fails its checks, a failed suite (exit 3), not
    # a generation failure (exit 2); every other check passes
    from b3rep.cli import main
    real = verify_mod._hom_dims
    monkeypatch.setattr(verify_mod, "_hom_dims",
                        lambda pairs, kind, tol: (real(pairs, kind, tol)[0] + 1,
                                                  np.zeros(len(pairs), dtype=bool)))
    calls = spy_draws(monkeypatch)
    assert main(["verify", "ext", "--n", "2", "--trials", "4", "--format", "json"]) == 3
    result = json.loads(capsys.readouterr().out)
    assert len(calls) == 3
    # n = 2: three two-dimensional types, each a quotient pair with itself
    # (an ext and a coboundary check) and five braid pairs with itself
    assert result["checks"] == 648 and result["failed"] == 3 * (2 + 5)
    assert all(msg.startswith("persistent tolerance ambiguity for ")
               for msg in result["failures"])


def test_ext_redraws_only_the_draw_behind_an_ambiguous_system(monkeypatch):
    # the first measurement reads the ext system of the first quotient pair
    # with a two-dimensional type as ambiguous: it follows the 9 * 4 self
    # systems and six quotient pairs of two systems each (ext and
    # coboundary), so its index is 36 + 12.  That pair alone is drawn
    # again, under labels that end with the attempt, and all its systems
    # measured again; the suite's result stays
    baseline = run_suite("ext", n=2, trials=4, seed=5).to_json()
    real_measure = verify_mod._measure
    measured = []

    def first_ambiguous(systems, tol):
        values, ambiguous = real_measure(systems, tol)
        measured.append(len(systems))
        if len(measured) == 1:
            ambiguous[36 + 12] = True
        return values, ambiguous

    monkeypatch.setattr(verify_mod, "_measure", first_ambiguous)
    calls = spy_draws(monkeypatch)
    assert run_suite("ext", n=2, trials=4, seed=5).to_json() == baseline
    assert len(measured) == 2 and measured[1] == 2
    alpha, beta = GammaDimVector(0, 1, 0, 0, 1), GammaDimVector(1, 1, 0, 1, 1)
    assert len(calls) == 2 and calls[1] == ([alpha, beta], [
        derived_seed("verify", ("pair-a", alpha, beta, 0, 0, 1), 5),
        derived_seed("verify", ("pair-b", alpha, beta, 0, 0, 1), 5)])


@pytest.mark.parametrize("suite, kwargs", [
    ("ext", {"n": 2, "trials": 4}),
    ("symmetry", {"n": 2, "trials": 5}),
])
def test_persistent_ambiguity_fails_each_ambiguous_check(monkeypatch, suite, kwargs):
    # every ext system reads as ambiguous: each draw with an instance of
    # dimension >= 2 is measured three times, and every check on an ext
    # system fails with the persistent ambiguity; the coboundary checks of
    # the quotient pairs still pass
    real_ext, real_run = verify_mod._ext_dims, verify_mod._run_draws
    planned = []

    def ambiguous(pairs, kind, tol):
        values, flags = real_ext(pairs, kind, tol)
        return values, np.ones_like(flags)

    def spy(plan, seed_of, tol):
        planned.extend(instances for instances, _, _ in plan)
        return real_run(plan, seed_of, tol)

    monkeypatch.setattr(verify_mod, "_ext_dims", ambiguous)
    monkeypatch.setattr(verify_mod, "_run_draws", spy)
    calls = spy_draws(monkeypatch)
    result = run_suite(suite, seed=2, **kwargs)
    assert len(calls) == 3
    # a draw of one-dimensional instances only is drawn once: a redraw
    # would give the same pair
    redrawn = [draw for draw in planned if any(alpha.n > 1 for alpha, _ in draw)]
    assert 0 < len(redrawn) < len(planned)
    for attempt, (types, seeds) in enumerate(calls[1:], 1):
        assert types == [alpha for draw in redrawn for alpha, _ in draw]
        assert seeds == [derived_seed("verify", (*label, attempt), 2)
                         for draw in redrawn for _, label in draw]
    # n = 2: 9 types, so 81 quotient pairs, each with a coboundary check
    cobound = 81 if suite == "ext" else 0
    assert result.checks > cobound and result.failed == result.checks - cobound
    assert all(msg.startswith("persistent tolerance ambiguity for ") for msg in result.failures)


def test_a_coarse_tol_draws_the_instances_of_the_default_run(monkeypatch):
    # draws are certified at the fixed DEFAULT_TOL and tol decides ranks
    # only, so the first attempt of verify ext at tol 0.1 draws every
    # instance of the default run, bit for bit
    real = verify_mod._draw_simples

    def first_draws(tol):
        drawn = []

        def spy(types, seeds):
            drawn.append(real(types, seeds))
            return drawn[-1]

        monkeypatch.setattr(verify_mod, "_draw_simples", spy)
        run_suite("ext", tol=tol)
        return [(inst.alpha, inst.seed, inst.attempts, inst.rep.A.tobytes(), inst.rep.B.tobytes())
                for inst in drawn[0]]

    default = first_draws(DEFAULT_TOL)
    assert len(default) == 2285
    assert first_draws(ToleranceConfig(0.1)) == default


def test_a_coarse_tol_leaves_the_scalar_grouping_unambiguous(monkeypatch):
    # scalar grouping decides at the fixed DEFAULT_TOL: at tol 0.1 the
    # distinct lambda^6 of a spec are as far from its threshold as at the
    # default, so no grouping raises and no trial is redrawn for it
    calls, raised = [], []
    real = extoracle_mod.scalar_groups

    def spy(*args):
        calls.append(args)
        try:
            return real(*args)
        except ToleranceAmbiguity:
            raised.append(args)
            raise

    monkeypatch.setattr(extoracle_mod, "scalar_groups", spy)
    run_suite("tangent", n=4, trials=10, tol=ToleranceConfig(0.1))
    assert calls and raised == []


def test_tangent_fails_the_measured_checks_of_a_trial_it_gives_up_on(monkeypatch):
    # every measurement is ambiguous: each trial is assembled three times,
    # then its three measured checks fail as the draw suites fail theirs,
    # and its formula-only defect check still passes
    measured = []

    def always_ambiguous(reps, tol):
        measured.extend(reps)
        return [0] * len(reps), ["forced"] * len(reps)

    monkeypatch.setattr(verify_mod, "tangent_dims_numeric", always_ambiguous)
    # at seed 4 every trial has an instance of dimension >= 2; a point whose
    # instances are all one-dimensional would be measured once
    result = run_suite("tangent", n=3, trials=4, seed=4)
    assert len(measured) == 3 * 4
    assert (result.checks, result.failed) == (4 * 4, 3 * 4)
    assert all(msg.startswith("persistent tolerance ambiguity for {'entries': ")
               for msg in result.failures)


def test_tangent_draws_each_attempt_in_one_stack(monkeypatch):
    # all trials of verify tangent are assembled in one _draw_simples per
    # attempt, and each instance is bit for bit the one that the lone
    # assemble(spec, seed) of its trial draws: a draw depends on its type
    # and seed alone
    real = factory_mod._draw_simples
    calls = []

    def spy(types, seeds):
        calls.append(real(types, seeds))
        return calls[-1]

    def bits(instances):
        return [(inst.alpha, inst.seed, inst.attempts, inst.rep.A.tobytes(), inst.rep.B.tobytes())
                for inst in instances]

    # the suite draws through verify's _draw_simples, assemble through factory's
    for module in (verify_mod, factory_mod):
        monkeypatch.setattr(module, "_draw_simples", spy)
    assert run_suite("tangent").ok
    assert 1 <= len(calls) <= verify_mod.REMEASURE_ATTEMPTS
    stacked = calls[0]
    calls.clear()
    for trial in range(50):
        n = int(np.random.default_rng(derived_seed("tangent-size", 0, trial)).integers(1, 7))
        factory_mod.assemble(random_spec(n, derived_seed("tangent", 0, trial)),
                             seed=derived_seed("tangent-rep", 0, trial, 0))
    assert len(calls) == 50 and len(stacked) > 50
    assert bits(stacked) == bits(inst for call in calls for inst in call)


def spy_every_draw(monkeypatch):
    """The (types, seeds) of every ``_draw_simples`` call, through verify's
    name or factory's."""
    calls = []
    for module in (verify_mod, factory_mod):
        def spy(types, seeds, real=module._draw_simples):
            calls.append((list(types), list(seeds)))
            return real(types, seeds)
        monkeypatch.setattr(module, "_draw_simples", spy)
    return calls


def tangent_specs(seed, trials=50, max_n=6):
    """The specs of the trials of ``verify tangent``."""
    return [random_spec(int(np.random.default_rng(derived_seed("tangent-size", seed, trial))
                            .integers(1, max_n + 1)), derived_seed("tangent", seed, trial))
            for trial in range(trials)]


def test_tangent_redraws_a_flagged_trial_at_its_next_point_seed(monkeypatch):
    # the first measurement flags trial 5 (an instance of dimension 2):
    # that trial alone is drawn again, from the seeds that assemble(spec,
    # derived_seed("tangent-rep", 0, 5, 1)) draws from, and the suite's
    # result stays
    baseline = run_suite("tangent").to_json()
    victim, spec = 5, tangent_specs(0)[5]
    assert any(e.dim > 1 for e in spec.entries)
    real = verify_mod.tangent_dims_numeric
    measured = []

    def flag_once(reps, tol):
        values, reasons = real(reps, tol)
        measured.append(len(reps))
        if len(measured) == 1:
            reasons = [*reasons[:victim], "forced", *reasons[victim + 1:]]
        return values, reasons

    monkeypatch.setattr(verify_mod, "tangent_dims_numeric", flag_once)
    calls = spy_every_draw(monkeypatch)
    assert run_suite("tangent").to_json() == baseline
    assert measured == [50, 1]
    keys = list(dict.fromkeys((e.alpha, e.instance_id) for e in spec.entries))
    point_seed = derived_seed("tangent-rep", 0, victim, 1)
    assert len(calls) == 2 and calls[1] == (
        [alpha for alpha, _ in keys],
        [derived_seed("assemble", point_seed, instance_id) for _, instance_id in keys])


def test_a_point_measures_no_hom_between_its_instances(monkeypatch, tmp_path, capsys):
    # two distinct instances of one type of dimension >= 2 in a point are
    # not a _pair, whose Hom must vanish: neither analyze --verify nor
    # verify tangent (trials 7, 44 and 45 of seed 2 hold such instances)
    # measures a Hom
    from b3rep.cli import main
    homs = []
    monkeypatch.setattr(verify_mod, "_hom_dims", lambda *args: homs.append(args))
    path = tmp_path / "two.json"
    path.write_text(json.dumps({"entries": [
        {"alpha": [2, 1, 1, 1, 1], "lambda": {"r": "1", "q": "0"}, "instance": "a"},
        {"alpha": [2, 1, 1, 1, 1], "lambda": {"r": "3/2", "q": "0"}, "instance": "b"}]}))
    assert main(["analyze", "--spec", str(path), "--verify"]) == 0
    assert json.loads(capsys.readouterr().out)["verification"]["matches_formula"]
    types = [[alpha for alpha, _ in dict.fromkeys((e.alpha, e.instance_id) for e in spec.entries)]
             for spec in tangent_specs(2)]
    assert [trial for trial, point in enumerate(types)
            if any(alpha.n > 1 and point.count(alpha) > 1 for alpha in point)] == [7, 44, 45]
    assert run_suite("tangent", seed=2).ok
    assert homs == []


def test_tangent_refuses_a_trial_above_the_memory_budget(monkeypatch, capsys):
    # at --n 400 trial 1 draws a spec of dimension 226 whose self pair
    # alone would take about 12 GB: the suite refuses it before anything is
    # drawn, as analyze --verify refuses such a spec without --force
    from b3rep.cli import main
    calls = spy_every_draw(monkeypatch)
    assert main(["verify", "tangent", "--n", "400", "--trials", "2"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and calls == []
    assert err.startswith("error: tangent trial 1 ") and err.count("\n") == 1
    assert tangent_specs(0, trials=2, max_n=400)[1].n == 226


def test_tangent_checks_every_trial_before_the_first_draw(monkeypatch):
    # one _check_point call per trial, each on that trial's spec, and all
    # of them before anything is drawn
    events = []
    real_check, real_draw = verify_mod._check_point, factory_mod._draw_simples

    def check(spec, *args):
        events.append(("check", spec))
        return real_check(spec, *args)

    def draw(types, seeds):
        events.append(("draw", None))
        return real_draw(types, seeds)

    monkeypatch.setattr(verify_mod, "_check_point", check)
    for module in (verify_mod, factory_mod):
        monkeypatch.setattr(module, "_draw_simples", draw)
    assert run_suite("tangent", n=5, trials=20, seed=3).ok
    first_draw = events.index(("draw", None))
    assert events[:first_draw] == [("check", spec) for spec in tangent_specs(3, 20, 5)]
    assert all(kind == "draw" for kind, _ in events[first_draw:])


def test_ext_records_its_checks_in_plan_order(monkeypatch):
    # n = 2, trials = 4: 9 types, so 9 * 4 self checks, then an ext and a
    # coboundary check for each of the 81 quotient pairs (one trial each),
    # 9 * 9 * 5 braid checks and 9 * 5 braid self checks; the order is
    # what keeps the output of earlier releases
    items = []
    real = SuiteResult.record

    def spy(self, ok, residual=0.0, message=""):
        items.append(message.split(":", 1)[0])
        return real(self, ok, residual, message)

    monkeypatch.setattr(SuiteResult, "record", spy)
    result = run_suite("ext", n=2, trials=4, seed=0)
    assert result.checks == len(items) == 648
    kinds = ["braid self" if item.startswith("braid self") else item.split(" ", 1)[0]
             for item in items]
    assert kinds == (["self"] * 36 + ["pair", "coboundaries"] * 81 + ["braid"] * 405
                     + ["braid self"] * 45)
    simples = [*lattice_mod.enumerate_simple_gamma(1), *lattice_mod.enumerate_simple_gamma(2)]
    assert items[:36] == [f"self {alpha}" for alpha in simples for _ in range(4)]
    assert items[36:198:2] == [f"pair {a},{b}" for a in simples for b in simples]
