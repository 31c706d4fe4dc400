"""Command-line surface: output shapes, exit codes, determinism."""

import hashlib
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from b3rep.cli import main
from b3rep.factory import SemisimpleSpec
from b3rep.verify import _verify_bytes

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

# one simple of dimension 2, a smooth point with tangent dimension 5: an
# ambiguous measurement of it is redrawn, where a point whose instances are
# all one-dimensional, such as SMOOTH_SPEC, would draw the same pair again
SIMPLE_SPEC = {"entries": [{"alpha": [1, 1, 1, 1, 0], "lambda": {"r": "1", "q": "0"},
                            "mult": 1, "instance": "s1"}]}


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


@pytest.mark.parametrize("fmt", ["table", "json"])
def test_a_closed_stdout_keeps_the_exit_code_and_stderr_clean(fmt):
    # the reader is gone before the first write, as under ``| head -1``
    # once head has its line: the command still exits with its own code,
    # and prints no traceback
    read, write = os.pipe()
    os.close(read)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "b3rep", "components", "--n", "14", "--format", fmt],
            stdout=write, stderr=subprocess.PIPE, env=env, timeout=120)
    finally:
        os.close(write)
    assert proc.returncode == 0 and proc.stderr == b""


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
    import b3rep.verify as verify_mod
    measured = []
    real = verify_mod.tangent_dims_numeric

    def ambiguous_once(reps, tol):
        measured.extend(reps)
        if len(measured) == 1:
            return [0] * len(reps), ["forced"] * len(reps)
        return real(reps, tol)

    monkeypatch.setattr(verify_mod, "tangent_dims_numeric", ambiguous_once)
    path = tmp_path / "simple.json"
    path.write_text(json.dumps(SIMPLE_SPEC))
    code, out, _ = run(capsys, "analyze", "--spec", str(path), "--verify", "--seed", "5")
    assert code == 0 and len(measured) == 2
    verification = json.loads(out)["verification"]
    assert verification["tangent_dim_numeric"] == 5
    assert verification["matches_formula"] and verification["seed"] != 5


def test_analyze_verify_gives_up_after_three_ambiguous_assemblies(tmp_path, capsys,
                                                                   monkeypatch):
    # the spec and --tol are valid, so a give-up is a failed check, as in
    # the suites: exit 3 (not 2, malformed input) and one error line
    import b3rep.verify as verify_mod
    measured = []

    def always_ambiguous(reps, tol):
        measured.extend(reps)
        return [0] * len(reps), ["forced"] * len(reps)

    monkeypatch.setattr(verify_mod, "tangent_dims_numeric", always_ambiguous)
    path = tmp_path / "simple.json"
    path.write_text(json.dumps(SIMPLE_SPEC))
    code, out, err = run(capsys, "analyze", "--spec", str(path), "--verify")
    assert code == 3 and out == ""
    assert err == "error: numeric verification inconclusive: forced\n"
    assert len(measured) == 3


def test_analyze_verify_measures_a_one_dimensional_point_once(tmp_path, capsys, monkeypatch):
    # the lambda^6 of 1 and 1000000001/1000000000 differ by about 6e-9,
    # inside the ambiguity band of the scalar grouping whatever the draw;
    # both instances are one-dimensional, so every assembly draws the same
    # pair: the point is drawn once and the verification is inconclusive
    import b3rep.factory as factory_mod
    import b3rep.verify as verify_mod
    draws = []
    for module in (factory_mod, verify_mod):
        def spy(types, seeds, real=module._draw_simples):
            draws.append(list(types))
            return real(types, seeds)
        monkeypatch.setattr(module, "_draw_simples", spy)
    path = tmp_path / "close.json"
    path.write_text(json.dumps({"entries": [
        {"alpha": [1, 0, 1, 0, 0], "lambda": {"r": "1", "q": "0"}},
        {"alpha": [0, 1, 1, 0, 0], "lambda": {"r": "1000000001/1000000000", "q": "0"}}]}))
    code, out, err = run(capsys, "analyze", "--spec", str(path), "--verify")
    assert (code, out) == (3, "")
    assert err == ("error: numeric verification inconclusive: two scalars within a factor "
                   "10 of the equality threshold; re-randomize the instances\n")
    assert len(draws) == 1


def entry(alpha, r, q="0", instance=None, mult=None):
    """A spec entry; the fields left out take the parser's defaults."""
    fields = {"alpha": alpha, "lambda": {"r": r, "q": q}, "instance": instance, "mult": mult}
    return {key: value for key, value in fields.items() if value is not None}


# Two summands whose lambda^6 differ by at most 10^-9 of their modulus:
# scalar_groups merges them without a flag, so the oracle would measure
# them as one scalar, 42 (or 6) against the formula's 40 (or 4)
MERGED_SPECS = {
    "modulus": [entry([2, 1, 1, 1, 1], "1", instance="a"),
                entry([2, 1, 1, 1, 1], "1000000000001/1000000000000", instance="b")],
    "angle": [entry([2, 1, 1, 1, 1], "1", instance="a"),
              entry([2, 1, 1, 1, 1], "1", "1/1000000000000000", instance="b")],
    "characters": [entry([1, 0, 1, 0, 0], "1"),
                   entry([0, 1, 0, 1, 0], "1000000000001/1000000000000")],
}
MERGED_ERR = ("error: --verify cannot tell the lambda^6 of entries 1 and 2 apart: they "
              "differ by at most 1e-09 of their modulus, which the oracle reads as equal\n")


@pytest.mark.parametrize("case, tangent", [("modulus", 40), ("angle", 40), ("characters", 4)])
def test_analyze_verify_refuses_lambda6_that_the_oracle_merges(tmp_path, capsys, case, tangent):
    # the point is smooth by the formulas; --verify refuses it before
    # assembling anything instead of reporting a formula/oracle mismatch
    path = tmp_path / "merged.json"
    path.write_text(json.dumps({"entries": MERGED_SPECS[case]}))
    code, out, _ = run(capsys, "analyze", "--spec", str(path))
    assert code == 0 and json.loads(out)["tangent_dim"] == tangent
    code, out, err = run(capsys, "analyze", "--spec", str(path), "--verify", "--force")
    assert (code, out) == (2, "")
    assert err == MERGED_ERR


def test_check_point_names_the_first_two_entries_it_cannot_tell_apart():
    from b3rep.errors import InvalidSpec
    from b3rep.verify import _check_point
    spec = SemisimpleSpec.from_json({"entries": [
        entry([2, 1, 1, 1, 1], "3/2", instance="a"),
        entry([1, 1, 1, 1, 0], "1", "1/6", instance="b"),
        entry([2, 1, 1, 1, 1], "3/2", "1/7", instance="c"),
        entry([2, 1, 1, 1, 1], "1000000000001/1000000000000", instance="d")]})
    with pytest.raises(InvalidSpec, match="^--verify cannot tell the lambda.6 of entries 2 and 4 "):
        _check_point(spec, "", "")


@pytest.mark.parametrize("entries, flags, message", [
    ([entry([1, 1, 1, 1, 0], "1"), entry([2, 1, 1, 1, 1], "1e52")], ("--force",),
     "error: --verify takes scalar moduli "),
    # moduli that Fraction takes but float() does not
    ([entry([1, 1, 1, 1, 0], "1"), entry([2, 1, 1, 1, 1], "1e400")], (),
     "error: --verify takes scalar moduli "),
    ([entry([1, 1, 1, 1, 0], "1"), entry([2, 1, 1, 1, 1], "1e-400")], (),
     "error: --verify takes scalar moduli "),
    ([entry([17, 16, 11, 11, 11], "1")], (), "error: --verify on this spec needs about "),
    (MERGED_SPECS["modulus"], ("--force",), "error: --verify cannot tell "),
], ids=["modulus", "modulus-above-float", "modulus-below-float", "budget", "merged"])
def test_analyze_verify_refuses_before_any_draw(tmp_path, capsys, monkeypatch, entries, flags,
                                                message):
    # every refusal of _check_point comes before the first draw
    import b3rep.factory as factory_mod
    import b3rep.verify as verify_mod
    draws = []
    for module in (factory_mod, verify_mod):
        monkeypatch.setattr(module, "_draw_simples", lambda *args: draws.append(args))
    path = tmp_path / "refused.json"
    path.write_text(json.dumps({"entries": entries}))
    code, out, err = run(capsys, "analyze", "--spec", str(path), "--verify", *flags)
    assert (code, out, draws) == (2, "", [])
    assert err.startswith(message) and err.count("\n") == 1


def test_analyze_verify_at_a_coarse_tolerance_exits_three(tmp_path, capsys):
    # a valid spec whose rank decisions stay ambiguous at --tol 0.1 on
    # every assembly: inconclusive, exit 3; at --tol 1e-2 it verifies (singular)
    path = tmp_path / "coarse.json"
    path.write_text(json.dumps({"entries": [
        {"alpha": [1, 0, 1, 0, 0], "lambda": {"r": "1", "q": "0"}, "instance": "a"},
        {"alpha": [2, 1, 1, 1, 1], "lambda": {"r": "1", "q": "1/6"}, "mult": 2,
         "instance": "b"},
        {"alpha": [1, 1, 1, 1, 0], "lambda": {"r": "3/2", "q": "0"}, "instance": "c"}]}))
    code, out, err = run(capsys, "analyze", "--spec", str(path), "--verify", "--tol", "0.1")
    assert code == 3 and out == ""
    assert err.startswith("error: numeric verification inconclusive: ") and err.count("\n") == 1
    code, out, _ = run(capsys, "analyze", "--spec", str(path), "--verify", "--tol", "1e-2")
    assert code == 1 and json.loads(out)["verification"]["matches_formula"]


@pytest.mark.parametrize("tol", ["1e-2", "1e-3"])
def test_analyze_verify_at_a_coarse_tolerance_keeps_close_scalars_apart(
        tmp_path, capsys, tol):
    # lambda^6 = 1 and (10001/10000)^6 differ by 6e-4: --tol sets rank
    # thresholds only, so the two blocks stay in distinct scalar groups and
    # the measured tangent dimension is the formula's 40, a smooth point
    path = tmp_path / "close.json"
    path.write_text(json.dumps({"entries": [
        {"alpha": [2, 1, 1, 1, 1], "lambda": {"r": "1", "q": "0"}, "instance": "a"},
        {"alpha": [2, 1, 1, 1, 1], "lambda": {"r": "10001/10000", "q": "0"},
         "instance": "b"}]}))
    code, out, err = run(capsys, "analyze", "--spec", str(path), "--verify", "--tol", tol)
    assert (code, err) == (0, "")
    verification = json.loads(out)["verification"]
    assert verification["matches_formula"] and verification["tangent_dim_numeric"] == 40


def test_analyze_exit_three_on_oracle_mismatch(tmp_path, capsys, monkeypatch):
    # force a disagreement to check the dedicated exit code
    import b3rep.verify as verify_mod
    monkeypatch.setattr(verify_mod, "tangent_dims_numeric",
                        lambda reps, tol: ([999] * len(reps), [""] * len(reps)))
    path = tmp_path / "smooth.json"
    path.write_text(json.dumps(SMOOTH_SPEC))
    code, _, err = run(capsys, "analyze", "--spec", str(path), "--verify")
    assert code == 3 and "mismatch" in err


def test_analyze_verify_rejects_an_invalid_assembled_pair(tmp_path, capsys, monkeypatch):
    # a pair breaking A^2 = B^3 (A^2 = 1, B^3 = 8) is a program fault:
    # exit 3, one error line, no report
    import b3rep.verify as verify_mod
    from b3rep.constants import B3
    from b3rep.factory import RepPair
    monkeypatch.setattr(verify_mod, "_block_pair", lambda spec, instances:
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
    import b3rep.verify as verify_mod

    def no_assembly(*args, **kwargs):
        raise Assembled

    monkeypatch.setattr(verify_mod, "_block_pair", no_assembly)


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


@pytest.mark.parametrize("angles, force, refused", [
    (("0", "1/7"), (), False),
    (("0", "1/6"), (), True),
    (("0", "1/6"), ("--force",), False),
    (("1/12", "1/4"), (), True),
])
def test_analyze_verify_size_guard_groups_equal_scalars(
        tmp_path, capsys, monkeypatch, angles, force, refused):
    # two balanced simples of dimension 24: at distinct lambda^6 each
    # summand counts its own reduced system, 2 * 32 * 24^4 bytes; at equal
    # lambda^6 (angles differing by a sixth of a turn) the cross systems
    # count too, 32 * (2 * 24^2)^2 bytes, above the budget
    refuse_assembly(monkeypatch)
    path = tmp_path / "two.json"
    path.write_text(json.dumps({"entries": [
        {"alpha": [12, 12, 8, 8, 8], "lambda": {"r": "1", "q": q}, "instance": f"s{i}"}
        for i, q in enumerate(angles)]}))
    argv = ("analyze", "--spec", str(path), "--verify", *force)
    if refused:
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "" and "43 MB" in err and "--force" in err
    else:
        with pytest.raises(Assembled):
            main(list(argv))


def test_analyze_verify_memory_estimate_bounds_many_small_summands(tmp_path, capsys):
    # 40 summands (2,1;1,1,1) at distinct moduli: their 1600 ordered pairs
    # are ranked on full 9 x 18 systems, which the estimate must count.
    # A first run pays the one-off import of numpy.random, not counted.
    warm = tmp_path / "warm.json"
    warm.write_text(json.dumps(big_summand_spec([2, 1, 1, 1, 1])))
    assert run(capsys, "analyze", "--spec", str(warm), "--verify")[0] == 0
    spec = {"entries": [
        {"alpha": [2, 1, 1, 1, 1], "lambda": {"r": f"{64 + i}/64", "q": "0"}, "instance": f"s{i}"}
        for i in range(40)]}
    path = tmp_path / "many.json"
    path.write_text(json.dumps(spec))
    tracemalloc.start()
    try:
        code, out, err = run(capsys, "analyze", "--spec", str(path), "--verify")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0 and json.loads(out)["verification"]["matches_formula"]
    assert peak <= _verify_bytes(SemisimpleSpec.from_json(spec))


def parent_verify_bytes(spec):
    """The estimate as it was first written, with its own lambda^6 key."""
    groups = {}
    for e in spec.entries:
        key = (e.lam.r, 6 * e.lam.q % 1)
        groups[key] = groups.get(key, 0) + e.dim ** 2
    k = len(spec.entries)
    return 32 * sum(g ** 2 for g in groups.values()) + 64 * spec.n ** 2 + 128 * k * (k - 1)


def test_verify_bytes_reads_the_specs_lambda6_classes():
    from b3rep.verify import random_spec
    specs = [random_spec(n, seed) for n in (4, 8, 12) for seed in range(10)]
    specs.append(SemisimpleSpec.from_json({"entries": [
        {"alpha": [2, 1, 1, 1, 1], "lambda": {"r": r, "q": q}, "mult": m, "instance": f"s{i}"}
        for i, (r, q, m) in enumerate([("1", "0", 1), ("2", "1/6", 1), ("1", "1/7", 2),
                                       ("1", "1/2", 1), ("2", "0", 3), ("1", "1/7", 1),
                                       ("1", "13/42", 1), ("3/2", "0", 1)])]}))
    assert len(specs[-1].lambda6_classes) == 4
    assert sum(len(spec.lambda6_classes) > 1 for spec in specs) > 10
    for spec in specs:
        assert _verify_bytes(spec) == parent_verify_bytes(spec)


def test_plain_analyze_of_many_one_dimensional_summands(tmp_path, capsys, monkeypatch):
    # 1000 one-dimensional summands at distinct moduli: 1000 classes of
    # lambda^6 of one entry each, so the quiver computes its 1000 loops and
    # no cross pair, and the spec tests no pair for isomorphism
    import b3rep.factory as factory_mod
    import b3rep.geometry as geometry_mod
    calls = {"ext": 0, "isomorphic": 0}

    def counted(name, real):
        def call(*args):
            calls[name] += 1
            return real(*args)
        return call

    monkeypatch.setattr(geometry_mod, "ext_b3_spec", counted("ext", geometry_mod.ext_b3_spec))
    monkeypatch.setattr(factory_mod, "entries_isomorphic",
                        counted("isomorphic", factory_mod.entries_isomorphic))
    path = tmp_path / "many.json"
    path.write_text(json.dumps({"entries": [
        {"alpha": [1, 0, 1, 0, 0], "lambda": {"r": str(i + 1), "q": "0"}, "instance": f"s{i}"}
        for i in range(1000)]}))
    code, out, err = run(capsys, "analyze", "--spec", str(path))
    assert code == 0 and err == ""
    assert calls == {"ext": 1000, "isomorphic": 0}
    quiver = json.loads(out)["local_quiver"]
    assert len(quiver["vertices"]) == 1000
    assert all(row[i] == 1 and sum(row) == 1 for i, row in enumerate(quiver["arrows"]))


def scaled_spec(*entries):
    return {"entries": [
        {"alpha": alpha, "lambda": {"r": r, "q": "0"}, "instance": f"s{i}"}
        for i, (alpha, r) in enumerate(entries)]}


def verify_scaled(tmp_path, capsys, spec, *flags):
    path = tmp_path / "scaled.json"
    path.write_text(json.dumps(spec))
    return run(capsys, "analyze", "--spec", str(path), "--verify", *flags)


def assert_verified(code, out, err):
    assert code in (0, 1) and err == ""
    verification = json.loads(out)["verification"]
    assert verification["matches_formula"] and verification["matches_smooth_criterion"]


def assert_refused(code, out, err):
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and "moduli" in err


# The ids spec0-spec8 name the same specs as when --verify took moduli in
# [1/4, 4] only and refused all nine.  Now only a scalar whose |lambda|^6
# leaves the float range is refused; the rest verify.
@pytest.mark.parametrize("spec, refused", [
    # |lambda|^6 = 10^1200 and 10^600 would overflow A^2 and B^3
    pytest.param(scaled_spec(([2, 1, 1, 1, 1], "1e200")), True, id="spec0"),
    pytest.param(scaled_spec(([2, 1, 1, 1, 1], "1e100")), True, id="spec1"),
    pytest.param(scaled_spec(([2, 1, 1, 1, 1], "1e30")), False, id="spec2"),
    pytest.param(scaled_spec(([2, 1, 1, 1, 1], "1e-30")), False, id="spec3"),
    # two summands far apart, once a false exit 3 from validate_rep's
    # singular-value ratio over the whole pair
    pytest.param(scaled_spec(([1, 1, 1, 1, 0], "1"), ([2, 1, 1, 1, 1], "64")),
                 False, id="spec4"),
    pytest.param(scaled_spec(([1, 1, 1, 1, 0], "1"), ([2, 1, 1, 1, 1], "128")),
                 False, id="spec5"),
    pytest.param(scaled_spec(([1, 1, 1, 1, 0], "1"), ([2, 1, 1, 1, 1], "200")),
                 False, id="spec6"),
    pytest.param(scaled_spec(([2, 1, 1, 1, 1], "4001/1000")), False, id="spec7"),
    pytest.param(scaled_spec(([2, 1, 1, 1, 1], "249/1000")), False, id="spec8"),
])
@pytest.mark.parametrize("seed", ["0", "1", "2"])
@pytest.mark.parametrize("force", [(), ("--force",)])
def test_analyze_verify_refuses_moduli_outside_the_band(
        tmp_path, capsys, monkeypatch, spec, refused, seed, force):
    if refused:
        refuse_assembly(monkeypatch)
        assert_refused(*verify_scaled(tmp_path, capsys, spec, "--seed", seed, *force))
    else:
        assert_verified(*verify_scaled(tmp_path, capsys, spec, "--seed", seed, *force))
    # without --verify the exact formulas take any modulus
    code, out, _ = run(capsys, "analyze", "--spec", str(tmp_path / "scaled.json"))
    assert code in (0, 1) and json.loads(out)["n"] > 0


@pytest.mark.parametrize("modulus, refused", [
    # 10^306 and 10^-306 are normal floats, 10^312 overflows and 10^-312
    # is below the smallest normal float
    ("1e51", False), ("1e-51", False), ("1e52", True), ("1e-52", True),
])
def test_analyze_verify_takes_moduli_up_to_the_float_range(
        tmp_path, capsys, monkeypatch, modulus, refused):
    spec = scaled_spec(([1, 1, 1, 1, 0], "1"), ([2, 1, 1, 1, 1], modulus))
    if refused:
        refuse_assembly(monkeypatch)
        assert_refused(*verify_scaled(tmp_path, capsys, spec))
    else:
        assert_verified(*verify_scaled(tmp_path, capsys, spec))


@pytest.mark.parametrize("low, high", [("1/4", "4"), ("4", "1/4"), ("1", "4"),
                                       ("1/2", "5/2"), ("1", "1000"), ("1", "1000000")])
@pytest.mark.parametrize("seed", ["0", "1", "2"])
def test_analyze_verify_is_clean_across_the_band(tmp_path, capsys, low, high, seed):
    # a spread of 10^6 between the moduli still measures the formula's value
    assert_verified(*verify_scaled(tmp_path, capsys,
                                   scaled_spec(([1, 1, 1, 1, 0], low),
                                               ([2, 1, 1, 1, 1], high),
                                               ([0, 1, 0, 1, 0], low)),
                                   "--seed", seed))


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


@pytest.mark.parametrize("force", [(), ("--force",)])
def test_analyze_entries_cap(tmp_path, capsys, force):
    # the local quiver and the report hold an arrow for every ordered pair
    # of entries, so the cap counts distinct entries as well as copies:
    # 1001 one-dimensional summands at distinct moduli, one copy each
    path = tmp_path / "entries.json"
    path.write_text(json.dumps({"entries": [
        {"alpha": [1, 0, 1, 0, 0], "lambda": {"r": str(i + 1), "q": "0"}, "instance": f"s{i}"}
        for i in range(1001)]}))
    code, out, err = run(capsys, "analyze", "--spec", str(path), *force)
    if force:
        assert code == 0 and err == ""
        assert len(json.loads(out)["local_quiver"]["vertices"]) == 1001
    else:
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "1001 distinct entries" in err and "--force" in err


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


@pytest.mark.parametrize("fmt", ["json", "table"])
@pytest.mark.parametrize("suite, checks", [("gln", 600), ("symmetry", 6)])
def test_byte_identical_verify_output(capsys, suite, checks, fmt):
    # the stacked suites at their default sizes and a fixed seed
    runs = [run(capsys, "verify", suite, "--seed", "11", "--format", fmt) for _ in range(2)]
    assert runs[0] == runs[1]
    code, out, err = runs[0]
    assert code == 0 and err == ""
    if fmt == "json":
        assert json.loads(out)["checks"] == checks
    else:
        assert out.startswith(f"suite {suite}: {checks}/{checks} checks passed")


@pytest.mark.parametrize("suite, tol, checks", [
    ("ext", "1e-3", 1880),
    ("symmetry", "0.1", 6),
    ("tangent", "1e-2", 200),
])
def test_verify_at_a_coarse_tolerance_exits_zero_or_three(capsys, suite, tol, checks):
    # ambiguous rank decisions are redrawn, and those that persist are
    # failed checks (exit 3), not an input error (exit 2); every suite
    # records the same checks at every --tol
    code, out, err = run(capsys, "verify", suite, "--tol", tol)
    assert code in (0, 3) and err == ""
    result = json.loads(out)
    assert result["checks"] == checks and result["ok"] == (code == 0)
    assert all(msg.startswith("persistent tolerance ambiguity for ")
               for msg in result["failures"])


@pytest.mark.parametrize("argv", [
    ["verify", "symmetry", "--tol", "0.5"],
    ["verify", "ext", "--tol", "0.2"],
    ["analyze", "--spec", "{spec}", "--verify", "--tol", "0.5"],
    ["analyze", "--spec", "{spec}", "--tol", "1e-13"],
    ["verify", "ext", "--tol", "1e-12"],
])
def test_tol_outside_its_range_is_an_input_error(tmp_path, capsys, argv):
    # above 0.1 every nonzero system's largest singular value is within a
    # factor 10 of its threshold, so every rank decision would be ambiguous;
    # at or below the absolute floor 1e-12 no threshold is defined.  One
    # check in main refuses both ends, even for a command that ranks nothing
    path = tmp_path / "smooth.json"
    path.write_text(json.dumps(SMOOTH_SPEC))
    code, out, err = run(capsys, *[arg.format(spec=path) for arg in argv])
    assert code == 2 and out == ""
    assert err == "error: --tol must be in (1e-12, 0.1]\n"


# ---------------------------------------------------------------------------
# pinned outputs
# ---------------------------------------------------------------------------

# The specs of the analyze ops below: those of the CI smoke steps, and
# MERGED_SPECS
PINNED_SPECS = {
    "d19": [entry([10, 9, 7, 6, 6], "3/2", "1/7", "s", 1)],
    "d32": [entry([16, 16, 11, 11, 10], "1", "0", "s", 1)],
    "d24-apart": [entry([12, 12, 8, 8, 8], "1", instance="p"),
                  entry([12, 12, 8, 8, 8], "1", "1/7", instance="q")],
    "d24-zeta6": [entry([12, 12, 8, 8, 8], "1", instance="p"),
                  entry([12, 12, 8, 8, 8], "1", "1/6", instance="q")],
    "small": [entry([1, 0, 1, 0, 0], "1", instance="a"),
              entry([1, 0, 1, 0, 0], "3/2", "1/7", instance="b"),
              entry([1, 1, 1, 1, 0], "2", instance="c"),
              entry([1, 1, 1, 1, 0], "5/2", "2/7", instance="d"),
              entry([2, 1, 1, 1, 1], "3", instance="e"),
              entry([2, 1, 1, 1, 1], "7/2", "3/7", instance="f"),
              entry([2, 2, 2, 1, 1], "1/2", instance="g")],
    "close": [entry([2, 1, 1, 1, 1], "1", instance="a"),
              entry([2, 1, 1, 1, 1], "10001/10000", instance="b")],
    "angles": [entry([2, 1, 1, 1, 1], "1", f"{i % 6}/6", f"s{i}") for i in range(40)],
    "many": [entry([2, 1, 1, 1, 1], f"{64 + i}/64", instance=f"s{i}") for i in range(239)],
    "give-up": [entry([1, 0, 1, 0, 0], "1", instance="a"),
                entry([2, 1, 1, 1, 1], "1", "1/6", "b", 2),
                entry([1, 1, 1, 1, 0], "3/2", instance="c")],
    "one-dim": [entry([1, 0, 1, 0, 0], "1"),
                entry([0, 1, 1, 0, 0], "1000000001/1000000000")],
    **{f"merged-{case}": entries for case, entries in MERGED_SPECS.items()},
}

# (op, exit code, stderr, sha256 of stdout) at the default --tol and
# --format json; the verify tangent and gln JSON is hashed without its
# worst_residual, a float that depends on the BLAS.  The analyze ops run
# with --verify on PINNED_SPECS[spec].  --verify refuses the specs of
# MERGED_SPECS, whose lambda^6 the oracle would merge.
PINNED = [
    ("verify ext", 0, "",
     "f37ec37dd91d3b19efdb987472398e05228b36e31a7c9e837c64b69891c3c68a"),
    ("verify ext --seed 7", 0, "",
     "f37ec37dd91d3b19efdb987472398e05228b36e31a7c9e837c64b69891c3c68a"),
    ("verify tangent", 0, "",
     "557df9eebfd7e7d251856456a15e3ada740c5768b7d797141ac4052fc28a7894"),
    ("verify lemma", 0, "",
     "f4e555be865d6e989709b2323891b13fac767f8256c5a554592dd5d2daea9a55"),
    ("verify gln", 0, "",
     "4d0e697673cd06b9401fba6e68bd5f49ec5cda62e258de1ae381c00ba75fafa3"),
    ("verify symmetry", 0, "",
     "8d00a12e9e4da6febdb4b7447a9636f03ba0391cba3066c08ec07f13270921bd"),
    ("verify gln --n 6 --trials 20", 0, "",
     "4a9336035d5ef44001e90fb5cc7ae0bd68a11e38954b9287b4e16f21aaa97f9f"),
    ("verify symmetry --trials 30", 0, "",
     "6320452ef6fdcf093ef1f3dda37ed7a2942319efaf05e8f0a1d417384b7b6ca4"),
    ("verify lemma --n 12", 0, "",
     "b0cec2f0303a6999d29a3a5d4db7a611fe5f72facea3bbe73cac89a01ea617ea"),
    ("verify tangent --n 8 --trials 30 --seed 3", 0, "",
     "377234f760ffdd5a709e893cc4d73e015356da3aaac4a07353135087327b7a3d"),
    ("analyze d19", 0, "",
     "e26903d7312ef01c8558903dab0ef9d8853b0e7f52dd510fb23337ac09284219"),
    ("analyze d32", 0, "",
     "caa07a9a7fae62b8690d81f16e0d7a06433c3aee2c7cce209d4ba93e1c9b089a"),
    ("analyze d24-apart", 0, "",
     "7b26aa41b7013020e629456f83a567e0c18eacf15aebe0af79002df2db0afa4e"),
    ("analyze d24-zeta6 --force", 1, "",
     "e598505d06c63df24a96603a186fcb7e38a816e0f7d52c08e6b512971ec9a072"),
    ("analyze small", 0, "",
     "b7c48815f0d790b37ecf76ba7926846757911823aa2b057dfd3f34f53cb427a1"),
    ("analyze close --tol 1e-2", 0, "",
     "544f099dbdf6033ba51728889c47a832276c336e49f6467a41b5b212f2d8c66d"),
    ("analyze angles", 1, "",
     "d09124ab6dac9e0c1f15d41002667eda53a199d44f7995fef3a5a8b928ba642d"),
    ("analyze many", 2,
     ("error: --verify on this spec needs about 41 MB by the "
      "memory estimate; above 34 MB it needs --force\n"),
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("analyze give-up --tol 0.1", 3,
     ("error: numeric verification inconclusive: singular value "
      "within a factor 10 of the rank threshold; re-randomize the instances\n"),
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("analyze give-up --tol 1e-2", 1, "",
     "797bb9c1d13e074d788deca5778332c3b6874cbb3f35fe29d092d7b0a2a48037"),
    ("analyze one-dim", 3,
     ("error: numeric verification inconclusive: two scalars "
      "within a factor 10 of the equality threshold; re-randomize the instances\n"),
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("analyze merged-modulus", 2, MERGED_ERR,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("analyze merged-angle", 2, MERGED_ERR,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("analyze merged-characters", 2, MERGED_ERR,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
]


def pinned_output(capsys, tmp_path, op):
    """(exit code, stderr, sha256 of stdout) of one op of PINNED."""
    argv = op.split()
    if argv[0] == "analyze":
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"entries": PINNED_SPECS[argv[1]]}))
        argv = ["analyze", "--spec", str(path), "--verify", *argv[2:]]
    code, out, err = run(capsys, *argv)
    if argv[:2] in (["verify", "tangent"], ["verify", "gln"]):
        result = json.loads(out)
        del result["worst_residual"]
        out = json.dumps(result, indent=2, sort_keys=True) + "\n"
    return code, err, hashlib.sha256(out.encode()).hexdigest()


@pytest.mark.parametrize("op, code, err, digest", PINNED, ids=[row[0] for row in PINNED])
def test_output_matches_its_pinned_digest(tmp_path, capsys, op, code, err, digest):
    got = pinned_output(capsys, tmp_path, op)
    assert got == (code, err, digest), f"new output of {op!r}: {got}"
