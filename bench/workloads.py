"""Seeded inputs and op lists for the benchmark workloads.

An op is one ``b3rep.cli.main(argv)`` call.  Each workload turns a
workload seed into a fixed list of ops (one pass); spec files for the
analyze ops are written to a directory the caller names.  The generator
is self-contained: it carries its own copy of the simplicity criterion
and of the component-dimension formula, so the inputs and the expected
values stay the same when the program under test changes.  Each op
carries a ``check`` record that ``checks.check_output`` applies.

The per-pass op mix and the sizes are fixed by the workload; the seed
only picks the composition of each point (types, scalars, multiplicities)
and the program's ``--seed``.  That keeps the work per pass nearly equal
across seeds, so run-to-run spread measures the program, not the draw.
"""

from __future__ import annotations

import functools
import json
import random
from fractions import Fraction
from pathlib import Path

#: Check counts of ``b3rep verify <suite>`` at default sizes.
SUITE_CHECKS = {"ext": 1880, "tangent": 200, "lemma": 374, "gln": 600, "symmetry": 6}

#: One pass of suites.  On a shared machine the processor can switch
#: between a fast and a slow state, so a group of like latencies has two
#: humps.  Every run spends some time in the slow state, but some runs
#: spend none in the fast one, so a percentile on the slow, upper side of
#: a group repeats best from run to run.  The counts put op_p50 75 % into
#: the gln latencies and op_p90 in the middle of the ext ones; the
#: symmetry ops (about 10 ms) fill the ranks below gln.  The work of gln,
#: lemma and ext does not depend on the seed, that of tangent does (it
#: draws its sizes), so tangent sits on no percentile.  tangent comes
#: first: its cold call is the one set-up measures.
SUITE_PASS = ("tangent", "ext", "gln", "symmetry", "lemma", "gln", "ext", "gln",
              "symmetry", "tangent", "gln", "ext", "gln", "symmetry", "gln")

#: Total dimension of each ``analyze --verify`` point in one pass of
#: analyze-blocks (summands of dimension 1-3).  Seven sizes, each twice,
#: put op_p50 in the middle of the n = 22 latencies and op_p90 among the
#: n = 28 ones.
BLOCKS_N = (16, 18, 20, 22, 24, 26, 28) * 2

#: (dimension of the big simple, dimension of the remainder) for each
#: point of analyze-generic.  Burnside cost depends on the type as well
#: as on the dimension, by up to a factor 1.6 at dimension 17, so the big
#: simple has the balanced type of its dimension and the seed picks the
#: rest.  Dimensions 13-19 keep a pass near 2 s, so a run holds over a
#: hundred ops and at least ten of them beyond op_p90.
GENERIC_DIMS = ((13, 2), (14, 1), (15, 0), (16, 2), (17, 1), (18, 0), (19, 2))



# --- dimension-vector combinatorics (independent of b3rep) -------------

def _twist(alpha):
    a, b, x, y, z = alpha
    return (b, a, z, x, y)


def _orbit(alpha):
    out = [alpha]
    for _ in range(5):
        out.append(_twist(out[-1]))
    return out


_EXCEPTIONAL = frozenset(_orbit((1, 0, 1, 0, 0)) + _orbit((1, 1, 1, 1, 0)))


def is_simple(alpha) -> bool:
    """Simple types: max(x, y, z) <= min(a, b) when every B-multiplicity
    is positive, else the twist orbits of (1,0;1,0,0) and (1,1;1,1,0)."""
    a, b, x, y, z = alpha
    if min(x, y, z) > 0:
        return max(x, y, z) <= min(a, b)
    return alpha in _EXCEPTIONAL


@functools.cache
def simples(d: int) -> tuple[tuple[int, ...], ...]:
    """All simple types (a, b, x, y, z) of dimension d, sorted."""
    return tuple(sorted(
        (a, d - a, x, y, d - x - y)
        for a in range(d + 1) for x in range(d + 1) for y in range(d + 1 - x)
        if is_simple((a, d - a, x, y, d - x - y))
    ))


def self_ext(alpha) -> int:
    n = alpha[0] + alpha[1]
    return n * n + 1 - sum(v * v for v in alpha)


# --- spec composition --------------------------------------------------

class _Scalars:
    """Scalars for one spec.  The unit class (modulus 1, angle k/6) is
    closed under sixth roots of unity, so entries drawn from it can have
    nonzero cross extensions; every other draw gets a modulus no other
    entry has, so its cross extensions vanish.  Moduli stay in [1/2, 5/2]
    to keep the tangent system well conditioned."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.moduli = [Fraction(k, 16) for k in range(8, 41) if k != 16]
        rng.shuffle(self.moduli)

    def fresh(self):
        return {"r": str(self.moduli.pop()), "q": str(Fraction(self.rng.randrange(7), 7))}

    def unit(self):
        return {"r": "1", "q": str(Fraction(self.rng.randrange(6), 6))}


def _entry(alpha, lam, mult, idx):
    return {"alpha": list(alpha), "lambda": lam, "mult": mult, "instance": f"s{idx}"}


def _spec(rng, shape, linked):
    """Spec from (dimension, multiplicity) pairs with random simple types.
    With ``linked`` the scalars come from the unit class, so summands
    interact; otherwise each gets an unshared modulus.  At most one
    one-dimensional entry takes a unit-class scalar: two such entries
    could be twists of one another, i.e. the same module."""
    scalars = _Scalars(rng)
    entries = []
    unit_one_dim = False
    for d, mult in shape:
        if linked and not (d == 1 and unit_one_dim):
            lam = scalars.unit()
            unit_one_dim |= d == 1
        else:
            lam = scalars.fresh()
        entries.append(_entry(rng.choice(simples(d)), lam, mult, len(entries)))
    return {"entries": entries}


def _blocks_shape(rng, n, linked):
    """Summands of dimension 1-3 filling n.  Unlinked points repeat only
    one-dimensional summands, so they are smooth; linked ones take
    multiplicities up to 4 and are mostly singular."""
    shape = []
    while n:
        d = rng.choice([k for k in (1, 2, 3) if k <= n])
        mult = rng.randint(1, min(4, n // d)) if (linked or d == 1) else 1
        shape.append((d, mult))
        n -= d * mult
    return shape


def _balanced(d):
    """The simple type of dimension d with the most even multiplicities."""
    xyz = [d // 3 + (1 if i < d % 3 else 0) for i in range(3)]
    return ((d + 1) // 2, d // 2, *xyz)


def _generic_spec(rng, d, rest, linked):
    """The balanced simple of dimension d plus summands of total
    dimension ``rest`` (at most 2)."""
    scalars = _Scalars(rng)
    pick = scalars.unit if linked else scalars.fresh
    entries = [_entry(_balanced(d), pick(), 1, 0)]
    if rest == 2 and rng.random() < 0.5:
        entries.append(_entry(rng.choice(simples(2)), pick(), 1, 1))
    elif rest:
        mult = rng.randint(1, rest)
        entries.append(_entry(rng.choice(simples(1)), pick(), mult, 1))
        if mult < rest:
            entries.append(_entry(rng.choice(simples(1)), scalars.fresh(), 1, 2))
    return {"entries": entries}


# --- workloads ----------------------------------------------------------

def _analyze_op(spec, path: Path, seed: int):
    path.write_text(json.dumps(spec, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    entries = spec["entries"]
    n = sum((e["alpha"][0] + e["alpha"][1]) * e["mult"] for e in entries)
    return {
        "argv": ["analyze", "--spec", str(path), "--verify", "--seed", str(seed)],
        "check": {
            "kind": "analyze",
            "n": n,
            "component_dim": n * n + sum(e["mult"] * self_ext(e["alpha"]) for e in entries),
        },
    }


def _suites(seed, outdir):
    rng = random.Random(f"suites:{seed}")
    return [
        {"argv": ["verify", name, "--seed", str(rng.randrange(10**6))],
         "check": {"kind": "suite", "checks": SUITE_CHECKS[name]}}
        for name in SUITE_PASS
    ]


def _analyze_blocks(seed, outdir):
    ops = []
    for i, n in enumerate(BLOCKS_N):
        rng = random.Random(f"blocks:{seed}:{i}")
        linked = i % 2 == 1
        spec = _spec(rng, _blocks_shape(rng, n, linked), linked)
        ops.append(_analyze_op(spec, outdir / f"blocks{i:02d}.json",
                               rng.randrange(10**6)))
    return ops


def _analyze_generic(seed, outdir):
    ops = []
    for i, (d, rest) in enumerate(GENERIC_DIMS):
        rng = random.Random(f"generic:{seed}:{i}")
        spec = _generic_spec(rng, d, rest, linked=i % 2 == 1)
        ops.append(_analyze_op(spec, outdir / f"generic{i:02d}.json",
                               rng.randrange(10**6)))
    return ops


#: workload name -> generator(seed, outdir) returning one pass of ops.
WORKLOADS = {
    "suites": _suites,
    "analyze-blocks": _analyze_blocks,
    "analyze-generic": _analyze_generic,
}


def make_ops(workload: str, seed: int, outdir: Path) -> list[dict]:
    outdir.mkdir(parents=True, exist_ok=True)
    return WORKLOADS[workload](seed, outdir)
