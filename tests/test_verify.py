"""The property suites themselves: all green, deterministic, honest."""

import inspect

import pytest

import b3rep.verify as verify_mod
from b3rep import SemisimpleSpec, SuiteResult, random_spec, run_suite


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
