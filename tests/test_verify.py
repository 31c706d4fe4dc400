"""The property suites themselves: all green, deterministic, honest."""

import inspect

import pytest

import b3rep.verify as verify_mod
from b3rep import (
    DEFAULT_TOL,
    GammaDimVector,
    GenerationFailed,
    SemisimpleSpec,
    SuiteResult,
    derived_seed,
    random_spec,
    run_suite,
)


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

    def record(**kwargs):
        calls.append(kwargs)
        return SuiteResult(suite)

    monkeypatch.setitem(verify_mod._SUITES, suite, (record, *routing))
    run_suite(suite, n=7, trials=2, seed=4)
    assert calls[0][size_key] == 7
    # every argument passed is one the suite function takes
    assert set(calls[0]) <= set(inspect.signature(fn).parameters)


def test_lemma_suite_ignores_trials_seed_and_tolerance():
    assert run_suite("lemma", trials=5, seed=3).to_json() == run_suite("lemma").to_json()


def test_unknown_suite_rejected():
    with pytest.raises(ValueError):
        run_suite("nope")


def test_suite_results_are_deterministic():
    a = run_suite("tangent", n=4, trials=5, seed=3)
    b = run_suite("tangent", n=4, trials=5, seed=3)
    assert a.to_json() == b.to_json()


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


def test_independent_pairs_redraw_only_the_linked_requests(monkeypatch):
    # the first round's stacked Hom reads every equal-type pair as linked:
    # only that pair is drawn again, with the bumped label
    real = verify_mod.hom_dims_numeric
    rounds = []

    def linked_first(pairs, kind, tol):
        rounds.append(len(pairs))
        homs = real(pairs, kind, tol)
        return [1] * len(homs) if len(rounds) == 1 else homs

    monkeypatch.setattr(verify_mod, "hom_dims_numeric", linked_first)
    a1, a2 = GammaDimVector(1, 0, 1, 0, 0), GammaDimVector(1, 1, 1, 1, 0)
    single = (a1, ("self", a1, 0))
    requests = [(a2, a2, 0), (a2, a1, 0), (a1, a1, 0)]
    pairs, singles = verify_mod._independent_pairs(requests, 3, DEFAULT_TOL, [single])
    assert rounds == [1, 1]

    def seeds(req):
        return [inst.seed for inst in pairs[req]]

    assert seeds((a2, a2, 0)) == [derived_seed("verify", ("pair-a", a2, a2, 0, 1), 3),
                                  derived_seed("verify", ("pair-b", a2, a2, 0, 1), 3)]
    assert seeds((a2, a1, 0)) == [derived_seed("verify", ("pair-a", a2, a1, 0, 0), 3),
                                  derived_seed("verify", ("pair-b", a2, a1, 0, 0), 3)]
    assert singles[single].seed == derived_seed("verify", ("self", a1, 0), 3)

    monkeypatch.setattr(verify_mod, "hom_dims_numeric", lambda pairs, kind, tol: [1] * len(pairs))
    with pytest.raises(GenerationFailed):
        verify_mod._independent_pairs(requests, 3, DEFAULT_TOL)
