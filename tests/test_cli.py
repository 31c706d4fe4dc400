"""Command-line surface: output shapes, exit codes, determinism."""

import json

import numpy as np
import pytest

from b3rep.cli import main
from b3rep.errors import ToleranceAmbiguity

SINGULAR_SPEC = {
    "entries": [
        {"alpha": [1, 0, 1, 0, 0], "lambda": {"r": "1", "q": "0"},
         "mult": 1, "instance": "s1"},
        {"alpha": [0, 1, 0, 1, 0], "lambda": {"r": "1", "q": "0"},
         "mult": 1, "instance": "s2"},
    ]
}

SMOOTH_SPEC = {
    "entries": [
        {"alpha": [1, 0, 1, 0, 0], "lambda": {"r": "1", "q": "0"},
         "mult": 1, "instance": "s1"},
        {"alpha": [0, 1, 1, 0, 0], "lambda": {"r": "1", "q": "0"},
         "mult": 1, "instance": "s2"},
    ]
}


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# simples / components
# ---------------------------------------------------------------------------

def test_simples_json(capsys):
    code, out, _ = run(capsys, "simples", "--n", "1")
    assert code == 0
    data = json.loads(out)
    assert len(data["simples"]) == 6
    assert data["orbit_classes"] == [[0, 1, 0, 0, 1]]
    assert all(item["self_ext"] == 0 for item in data["simples"])


def test_simples_n2_and_n4(capsys):
    code, out, _ = run(capsys, "simples", "--n", "2")
    data = json.loads(out)
    assert code == 0 and len(data["simples"]) == 3
    assert all(item["self_ext"] == 1 for item in data["simples"])
    code, out, _ = run(capsys, "simples", "--n", "4")
    data = json.loads(out)
    assert [2, 2, 2, 1, 1] in [item["alpha"] for item in data["simples"]]
    assert {item["self_ext"] for item in data["simples"]} == {3}


def test_simples_invalid_n(capsys):
    code, _, err = run(capsys, "simples", "--n", "0")
    assert code == 2 and "error" in err


def test_components_small(capsys):
    code, out, _ = run(capsys, "components", "--n", "1")
    data = json.loads(out)
    assert code == 0
    assert [c["dim"] for c in data["components"]] == [1]
    code, out, _ = run(capsys, "components", "--n", "2")
    assert [c["dim"] for c in json.loads(out)["components"]] == [4, 5]
    code, out, _ = run(capsys, "components", "--n", "3")
    assert [c["dim"] for c in json.loads(out)["components"]] == [9, 10, 11]


def test_components_cap(capsys):
    code, _, err = run(capsys, "components", "--n", "21")
    assert code == 2 and "--force" in err


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------

def test_analyze_singular_spec(tmp_path, capsys):
    path = tmp_path / "sing.json"
    path.write_text(json.dumps(SINGULAR_SPEC))
    code, out, _ = run(capsys, "analyze", "--spec", str(path))
    assert code == 1
    data = json.loads(out)
    assert data["smooth"] is False
    assert data["component_dim"] == 4 and data["tangent_dim"] == 6
    assert data["witnesses"] == [[[1, 1, 0, 1, 1]]]


def test_analyze_smooth_spec_with_verification(tmp_path, capsys):
    path = tmp_path / "smooth.json"
    path.write_text(json.dumps(SMOOTH_SPEC))
    code, out, _ = run(capsys, "analyze", "--spec", str(path), "--verify")
    assert code == 0
    data = json.loads(out)
    assert data["smooth"] is True
    assert data["verification"]["matches_formula"] is True
    assert data["verification"]["tangent_dim_numeric"] == 4


def test_analyze_malformed_json(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"entries": [')
    code, _, err = run(capsys, "analyze", "--spec", str(path))
    assert code == 2 and "malformed" in err


def test_analyze_missing_file(capsys):
    code, _, err = run(capsys, "analyze", "--spec", "/nonexistent/x.json")
    assert code == 2


def test_analyze_invalid_spec_content(tmp_path, capsys):
    path = tmp_path / "invalid.json"
    path.write_text(json.dumps({"entries": [
        {"alpha": [2, 0, 1, 1, 0], "lambda": {"r": "1", "q": "0"}},
    ]}))
    code, _, err = run(capsys, "analyze", "--spec", str(path))
    assert code == 2 and "simple" in err


def test_analyze_spec_that_is_a_list_exits_two(tmp_path, capsys):
    path = tmp_path / "list.json"
    path.write_text(json.dumps([SMOOTH_SPEC]))
    code, out, err = run(capsys, "analyze", "--spec", str(path))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_analyze_entry_without_lambda_exits_two(tmp_path, capsys):
    path = tmp_path / "nolambda.json"
    path.write_text(json.dumps({"entries": [{"alpha": [1, 0, 1, 0, 0]}]}))
    code, out, err = run(capsys, "analyze", "--spec", str(path))
    assert code == 2 and out == ""
    assert err == "error: entry 1: entry has no 'lambda'\n"


@pytest.mark.parametrize("field, value", [
    ("alpha", [1.7, 0, 1, 0, 0]),
    ("alpha", [1.0, 0, 1, 0, 0]),
    ("alpha", [True, 0, 1, 0, 0]),
    ("alpha", 5),
    ("mult", True),
    ("mult", 2.9),
    ("mult", 2.0),
    ("mult", "2"),
    ("lambda", {"r": "1"}),
    ("lambda", {"r": "1/0", "q": "0"}),
    ("lambda", {"r": True, "q": "0"}),
    ("instance", 3),
])
def test_analyze_rejects_wrongly_typed_fields(tmp_path, capsys, field, value):
    entry = {"alpha": [1, 0, 1, 0, 0], "lambda": {"r": "1", "q": "0"},
             "mult": 1, "instance": "s1", field: value}
    path = tmp_path / "typed.json"
    path.write_text(json.dumps({"entries": [entry]}))
    code, out, err = run(capsys, "analyze", "--spec", str(path))
    assert code == 2 and out == ""
    assert err.startswith("error: entry 1: ") and err.count("\n") == 1


def test_analyze_verify_redraws_after_an_ambiguous_measurement(tmp_path, capsys,
                                                                monkeypatch):
    import b3rep.cli as cli_mod
    measured = []
    real = cli_mod.tangent_dim_numeric

    def ambiguous_once(rep, tol):
        measured.append(rep)
        if len(measured) == 1:
            raise ToleranceAmbiguity("forced")
        return real(rep, tol)

    monkeypatch.setattr(cli_mod, "tangent_dim_numeric", ambiguous_once)
    path = tmp_path / "smooth.json"
    path.write_text(json.dumps(SMOOTH_SPEC))
    code, out, _ = run(capsys, "analyze", "--spec", str(path), "--verify", "--seed", "5")
    assert code == 0 and len(measured) == 2
    verification = json.loads(out)["verification"]
    assert verification["tangent_dim_numeric"] == 4
    assert verification["matches_formula"] and verification["seed"] != 5


def test_analyze_verify_gives_up_after_three_ambiguous_assemblies(tmp_path, capsys,
                                                                   monkeypatch):
    import b3rep.cli as cli_mod
    measured = []

    def always_ambiguous(rep, tol):
        measured.append(rep)
        raise ToleranceAmbiguity("forced")

    monkeypatch.setattr(cli_mod, "tangent_dim_numeric", always_ambiguous)
    path = tmp_path / "smooth.json"
    path.write_text(json.dumps(SMOOTH_SPEC))
    code, out, err = run(capsys, "analyze", "--spec", str(path), "--verify")
    assert code == 2 and out == "" and "inconclusive" in err
    assert len(measured) == 3


def test_analyze_exit_three_on_oracle_mismatch(tmp_path, capsys, monkeypatch):
    # force a disagreement to check the dedicated exit code
    import b3rep.cli as cli_mod
    monkeypatch.setattr(cli_mod, "tangent_dim_numeric", lambda rep, tol: 999)
    path = tmp_path / "smooth.json"
    path.write_text(json.dumps(SMOOTH_SPEC))
    code, _, err = run(capsys, "analyze", "--spec", str(path), "--verify")
    assert code == 3 and "mismatch" in err


def test_analyze_verify_rejects_an_invalid_assembled_pair(tmp_path, capsys, monkeypatch):
    # a pair breaking A^2 = B^3 (A^2 = 1, B^3 = 8) is a program fault:
    # exit 3, one error line, no report
    import b3rep.geometry as geometry_mod
    from b3rep.constants import B3
    from b3rep.factory import RepPair
    monkeypatch.setattr(geometry_mod, "assemble", lambda spec, seed=0, tol=None:
                        RepPair(np.diag([1.0, -1.0]), 2 * np.eye(2), B3))
    path = tmp_path / "smooth.json"
    path.write_text(json.dumps(SMOOTH_SPEC))
    code, out, err = run(capsys, "analyze", "--spec", str(path), "--verify")
    assert code == 3 and out == ""
    assert err.startswith("error: assembled pair") and err.count("\n") == 1


def big_summand_spec(alpha):
    return {"entries": [{"alpha": alpha, "lambda": {"r": "1", "q": "0"}}]}


class Assembled(Exception):
    pass


def refuse_assembly(monkeypatch):
    import b3rep.geometry as geometry_mod

    def no_assembly(*args, **kwargs):
        raise Assembled

    monkeypatch.setattr(geometry_mod, "assemble", no_assembly)


@pytest.mark.parametrize("alpha, force", [
    ([17, 16, 11, 11, 11], ()),
    ([17, 16, 11, 11, 11], ("--force",)),
    ([16, 16, 11, 11, 10], ()),
])
def test_analyze_verify_size_guard(tmp_path, capsys, monkeypatch, alpha, force):
    # a summand of dimension d costs memory growing as d^4; above the
    # budget the guard refuses before anything is assembled
    refuse_assembly(monkeypatch)
    path = tmp_path / "big.json"
    path.write_text(json.dumps(big_summand_spec(alpha)))
    argv = ("analyze", "--spec", str(path), "--verify", *force)
    if sum(alpha[:2]) > 32 and not force:
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1 and "--force" in err
    else:
        with pytest.raises(Assembled):
            main(list(argv))


@pytest.mark.parametrize("mult, force, refused", [
    (100000, (), True),
    (725, (), True),
    (724, (), False),
    (725, ("--force",), False),
])
def test_analyze_verify_size_guard_counts_the_total_dimension(
        tmp_path, capsys, monkeypatch, mult, force, refused):
    # the assembled pair is dense in the total dimension n, so many copies
    # of a small summand cost 64 n^2 bytes; the budget is that of one
    # summand of dimension 32, which n = 724 one-dimensional copies fit
    refuse_assembly(monkeypatch)
    path = tmp_path / "many.json"
    path.write_text(json.dumps({"entries": [
        {"alpha": [1, 0, 1, 0, 0], "lambda": {"r": "1", "q": "0"}, "mult": mult}]}))
    argv = ("analyze", "--spec", str(path), "--verify", *force)
    if refused:
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1 and "--force" in err
    else:
        with pytest.raises(Assembled):
            main(list(argv))


def scaled_spec(*entries):
    return {"entries": [
        {"alpha": alpha, "lambda": {"r": r, "q": "0"}, "instance": f"s{i}"}
        for i, (alpha, r) in enumerate(entries)]}


@pytest.mark.parametrize("spec", [
    # without the band: an OverflowError traceback at 1e200, exit 3 on an
    # overflowed relation residual at 1e100 and 1e30; 1e-30 verifies
    scaled_spec(([2, 1, 1, 1, 1], "1e200")),
    scaled_spec(([2, 1, 1, 1, 1], "1e100")),
    scaled_spec(([2, 1, 1, 1, 1], "1e30")),
    scaled_spec(([2, 1, 1, 1, 1], "1e-30")),
    # two summands far apart: these verify without the band, but from a
    # spread of about 460 validate_rep's singular-value ratio gives exit 3
    scaled_spec(([1, 1, 1, 1, 0], "1"), ([2, 1, 1, 1, 1], "64")),
    scaled_spec(([1, 1, 1, 1, 0], "1"), ([2, 1, 1, 1, 1], "128")),
    scaled_spec(([1, 1, 1, 1, 0], "1"), ([2, 1, 1, 1, 1], "200")),
    # just outside the band on either side
    scaled_spec(([2, 1, 1, 1, 1], "4001/1000")),
    scaled_spec(([2, 1, 1, 1, 1], "249/1000")),
])
@pytest.mark.parametrize("seed", ["0", "1", "2"])
@pytest.mark.parametrize("force", [(), ("--force",)])
def test_analyze_verify_refuses_moduli_outside_the_band(
        tmp_path, capsys, monkeypatch, spec, seed, force):
    refuse_assembly(monkeypatch)
    path = tmp_path / "scaled.json"
    path.write_text(json.dumps(spec))
    code, out, err = run(capsys, "analyze", "--spec", str(path), "--verify",
                         "--seed", seed, *force)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and "moduli" in err
    # without --verify the exact formulas take any modulus
    code, out, _ = run(capsys, "analyze", "--spec", str(path))
    assert code in (0, 1) and json.loads(out)["n"] > 0


@pytest.mark.parametrize("low, high", [("1/4", "4"), ("4", "1/4"), ("1", "4"),
                                       ("1/2", "5/2")])
@pytest.mark.parametrize("seed", ["0", "1", "2"])
def test_analyze_verify_is_clean_across_the_band(tmp_path, capsys, low, high, seed):
    # a spread of 16 between the moduli still measures the formula's value
    path = tmp_path / "scaled.json"
    path.write_text(json.dumps(scaled_spec(([1, 1, 1, 1, 0], low),
                                           ([2, 1, 1, 1, 1], high),
                                           ([0, 1, 0, 1, 0], low))))
    code, out, err = run(capsys, "analyze", "--spec", str(path), "--verify",
                         "--seed", seed)
    assert code in (0, 1) and err == ""
    verification = json.loads(out)["verification"]
    assert verification["matches_formula"] and verification["matches_smooth_criterion"]


def test_analyze_without_verify_ignores_the_size_guard(tmp_path, capsys):
    path = tmp_path / "big.json"
    path.write_text(json.dumps(big_summand_spec([17, 16, 11, 11, 11])))
    code, out, _ = run(capsys, "analyze", "--spec", str(path))
    assert code == 0 and json.loads(out)["n"] == 33


@pytest.mark.parametrize("mults, refused", [
    ((6000, 4000), False),
    ((6000, 4001), True),
])
def test_analyze_copies_cap(tmp_path, capsys, mults, refused):
    # plain analyze holds and prints one factor per copy; the cap counts
    # the copies of all entries together
    path = tmp_path / "copies.json"
    path.write_text(json.dumps({"entries": [
        {"alpha": [1, 0, 1, 0, 0], "lambda": {"r": "1", "q": "0"}, "mult": mults[0],
         "instance": "s1"},
        {"alpha": [0, 1, 0, 1, 0], "lambda": {"r": "2", "q": "0"}, "mult": mults[1],
         "instance": "s2"}]}))
    code, out, err = run(capsys, "analyze", "--spec", str(path))
    if refused:
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1 and "--force" in err
        code, out, err = run(capsys, "analyze", "--spec", str(path), "--force")
    assert code == 0 and err == ""
    assert len(json.loads(out)["signature"]) == sum(mults)


def test_analyze_table_output(tmp_path, capsys):
    path = tmp_path / "sing.json"
    path.write_text(json.dumps(SINGULAR_SPEC))
    code, out, _ = run(capsys, "analyze", "--spec", str(path), "--format", "table")
    assert code == 1
    assert "verdict        singular" in out
    assert "witness component" in out


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def test_verify_lemma(capsys):
    code, out, _ = run(capsys, "verify", "lemma", "--n", "6")
    assert code == 0
    data = json.loads(out)
    assert data["ok"] is True and data["failed"] == 0


def test_verify_gln_small(capsys):
    code, out, _ = run(capsys, "verify", "gln", "--n", "2", "--trials", "3")
    assert code == 0
    assert json.loads(out)["ok"] is True


def test_verify_bad_trials(capsys):
    code, _, err = run(capsys, "verify", "lemma", "--trials", "0")
    assert code == 2


@pytest.mark.parametrize("suite, least", [
    ("ext", 1), ("tangent", 1), ("lemma", 1), ("gln", 2), ("symmetry", 1),
])
def test_verify_refuses_a_size_below_the_first_check(capsys, suite, least):
    for n in (least - 1, -1):
        code, out, err = run(capsys, "verify", suite, "--n", str(n))
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
    code, out, _ = run(capsys, "verify", suite, "--n", str(least), "--trials", "1")
    assert code == 0 and json.loads(out)["checks"] > 0


def test_verify_unknown_suite(capsys):
    code, _, _ = run(capsys, "verify", "bogus")
    assert code == 2


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------

def test_byte_identical_output(tmp_path, capsys):
    path = tmp_path / "sing.json"
    path.write_text(json.dumps(SINGULAR_SPEC))
    results = []
    for _ in range(2):
        code, out, _ = run(capsys, "analyze", "--spec", str(path),
                           "--verify", "--seed", "5")
        results.append((code, out))
    assert results[0] == results[1]
    runs = [run(capsys, "verify", "tangent", "--n", "4", "--trials", "5",
                "--seed", "7")[1] for _ in range(2)]
    assert runs[0] == runs[1]
