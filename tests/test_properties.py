"""Property tests: the twist action, the two Euler forms, JSON round
trips, and the exit codes of ``analyze`` on arbitrary input."""

import contextlib
import io
import json
import os
import tempfile
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from b3rep import (
    ExactScalar,
    GammaDimVector,
    HexDimVector,
    InvalidSpec,
    SemisimpleSpec,
    SpecEntry,
    enumerate_simple_gamma,
    euler_gamma,
    euler_hex,
    hex_to_gamma,
    is_simple_gamma,
    orbit_gamma,
    twist_gamma,
)
from b3rep.cli import main

FAST = settings(max_examples=100, deadline=None, derandomize=True)


@st.composite
def gamma_vectors(draw, max_n=9):
    n = draw(st.integers(0, max_n))
    a = draw(st.integers(0, n))
    x = draw(st.integers(0, n))
    y = draw(st.integers(0, n - x))
    return GammaDimVector(a, n - a, x, y, n - x - y)


hex_vectors = st.builds(HexDimVector, *[st.integers(0, 6)] * 6)
scalars = st.builds(ExactScalar,
                    st.fractions(min_value=Fraction(1, 60), max_value=50, max_denominator=60),
                    st.fractions(min_value=-50, max_value=50, max_denominator=60))


@FAST
@given(alpha=gamma_vectors(), j=st.integers(-12, 12), k=st.integers(-12, 12))
def test_twist_is_an_order_six_action_preserving_simplicity(alpha, j, k):
    assert twist_gamma(alpha, 6) == alpha
    assert twist_gamma(twist_gamma(alpha, j), k) == twist_gamma(alpha, j + k)
    assert 6 % len(set(orbit_gamma(alpha))) == 0
    twisted = twist_gamma(alpha, k)
    assert twisted.n == alpha.n
    assert is_simple_gamma(twisted) == is_simple_gamma(alpha)


@FAST
@given(h1=hex_vectors, h2=hex_vectors)
def test_euler_forms_agree_through_the_multiplicity_map(h1, h2):
    assert euler_gamma(hex_to_gamma(h1), hex_to_gamma(h2)) == euler_hex(h1, h2)


def through_json(data):
    return json.loads(json.dumps(data))


@FAST
@given(alpha=gamma_vectors(), lam=scalars)
def test_lattice_and_scalar_json_round_trips(alpha, lam):
    assert GammaDimVector.from_json(through_json(alpha.to_json())) == alpha
    assert ExactScalar.from_json(through_json(lam.to_json())) == lam


simple_vectors = st.sampled_from([v for n in range(1, 7) for v in enumerate_simple_gamma(n)])
entries = st.builds(SpecEntry, simple_vectors, scalars, st.integers(1, 4),
                    st.text(max_size=4))


@FAST
@given(entries=st.lists(entries, min_size=1, max_size=4))
def test_spec_json_round_trips(entries):
    for e in entries:
        assert SpecEntry.from_json(through_json(e.to_json())) == e
    try:
        spec = SemisimpleSpec(tuple(entries))
    except InvalidSpec:
        return  # isomorphic entries: the spec itself is refused
    assert SemisimpleSpec.from_json(through_json(spec.to_json())) == spec


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner,
                                                                  max_size=4),
    max_leaves=12,
)
# near-miss specs: the right keys with values of any shape, so that most
# of them get past the first checks
fields = st.sampled_from([0, 1, 2, -1, 2.0, True, None, "1", "1/0", "3/2", "x", [], {}])
raw_entries = st.fixed_dictionaries(
    {},
    optional={
        "alpha": st.one_of(st.lists(st.integers(0, 3), min_size=4, max_size=6),
                           json_values),
        "lambda": st.one_of(st.fixed_dictionaries({"r": fields, "q": fields}), json_values),
        "mult": st.one_of(st.integers(-1, 3), fields),
        "instance": st.one_of(st.text(max_size=3), fields),
    },
)
specs = st.one_of(
    json_values,
    st.fixed_dictionaries({"entries": st.lists(raw_entries, max_size=3)}),
    st.fixed_dictionaries({"entries": st.lists(entries.map(SpecEntry.to_json),
                                               min_size=1, max_size=3)}),
)


@FAST
@given(data=specs)
def test_analyze_on_arbitrary_json_exits_zero_one_or_two(data):
    fd, path = tempfile.mkstemp(suffix=".json")
    try:
        with os.fdopen(fd, "w") as fh:
            json.dump(data, fh)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["analyze", "--spec", path])
    finally:
        os.unlink(path)
    assert code in (0, 1, 2)
    if code == 2:
        assert out.getvalue() == "" and err.getvalue().startswith("error: ")
        assert err.getvalue().count("\n") == 1
    else:
        json.loads(out.getvalue())

