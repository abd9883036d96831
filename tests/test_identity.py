"""Identity checks on additive generators against the exhaustive scan.

`satisfies_identity` lets each variable that occurs once in every word range
over the generators of (R, +), in ascending order, and reports the first
failure of that scan as the least counterexample.  The reference here is the
exhaustive lexicographic scan it replaced; the generating sets are checked
against a brute-force span.
"""

import functools
import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finring import addgroup, atlas, cli, rings
from finring import freealg as fa

from test_certificates import relabel
from test_freealg import polys
from test_golden import standard_text


def exhaustive(ring, p):
    """The least counterexample by scanning every assignment in lex order."""
    vars_ = p.variables()
    for combo in itertools.product(range(ring.order), repeat=len(vars_)):
        assignment = dict(zip(vars_, combo))
        if fa.evaluate(p, ring, assignment) != 0:
            return False, assignment
    return True, None


def standard(k):
    return fa.parse(standard_text(k))


def check(ring, p):
    result = fa.satisfies_identity(ring, p)
    return result.ok, result.counterexample


ORACLE_POLYS = [standard(3), standard(4)] + [
    fa.parse(text)
    for text in ("xy - yx", "xyz", "x^2 - x", "4x", "[x,y]z", "-xy + x^2y", "xy + x")
]


@pytest.mark.parametrize("n", range(1, 10))
def test_matches_exhaustive_scan_on_the_atlas(atlas_by_order, n):
    for entry in atlas_by_order[n]:
        for p in ORACLE_POLYS:
            assert check(entry.ring, p) == exhaustive(entry.ring, p), (entry.ring.label, fa.render(p))


ORACLE_RINGS = {
    "zn6": rings.zn(6),
    "np2": rings.np2(2),
    "gf4": rings.gf(2, 2),
    "m2z2": rings.matrix_ring(rings.zn(2), 2),
}


@settings(max_examples=40, deadline=None)
@given(polys, st.sampled_from(sorted(ORACLE_RINGS)))
def test_matches_exhaustive_scan_on_random_polynomials(p, which):
    ring = ORACLE_RINGS[which]
    assert check(ring, p) == exhaustive(ring, p)


def test_zero_polynomial_and_trivial_ring():
    z1 = rings.zn(1)
    assert addgroup.generators(z1.add) == []
    for text in ("xy - yx", "x^2 - x", "xy + x", "0", "5x"):
        assert check(z1, fa.parse(text)) == (True, None)
    assert check(rings.zn(4), fa.ZERO) == (True, None)


def test_linear_variables():
    assert fa._linear_variables(fa.parse("xy - yx")) == {1, 2}
    assert fa._linear_variables(fa.parse("xy + x")) == {1}
    assert fa._linear_variables(fa.parse("x^2 - x")) == set()
    assert fa._linear_variables(fa.parse("xyz - zy^2x")) == {1, 3}
    assert fa._linear_variables(fa.ZERO) == set()


# --- generating sets -----------------------------------------------------------


def span(add, gens):
    """Every sum of generators: the closure of {0} under +g."""
    seen = {0}
    frontier = [0]
    while frontier:
        x = frontier.pop()
        for g in gens:
            y = add[x][g]
            if y not in seen:
                seen.add(y)
                frontier.append(y)
    return seen


def assert_greedy_generating_set(add, rng):
    gens = addgroup.generators(add)
    assert gens == sorted(gens)
    assert span(add, gens) == set(range(len(add)))
    for i, g in enumerate(gens):
        assert g not in span(add, gens[:i])
    # What makes the first failure of the reduced scan the least one.
    for x in range(len(add)):
        assert x in span(add, [g for g in gens if g <= x])
    # Each generator at least doubles the span.
    assert 2 ** len(gens) <= len(add)
    # The span of seed sets, in the order given, with repeats and zeros.
    seed_sets = [[], [0], list(range(len(add)))]
    seed_sets += [rng.choices(range(len(add)), k=rng.randint(1, 6)) for _ in range(6)]
    for seeds in seed_sets:
        kept, members = addgroup.span(add, seeds)
        assert members[0] == 0 and len(set(members)) == len(members)
        assert set(members) == span(add, seeds)
        assert kept == [x for i, x in enumerate(seeds) if x not in span(add, seeds[:i])]
    assert addgroup.span(add, range(len(add)))[0] == gens


def test_generators_of_standard_groups():
    rng = random.Random(5)
    for n in range(1, 17):
        for typ in atlas.abelian_group_types(n, cap=16):
            assert_greedy_generating_set(addgroup.std_group(typ).add, rng)


def test_generators_of_relabeled_rings(atlas_by_order):
    rng, seed_rng = random.Random(9), random.Random(10)
    for n in range(2, 10):
        for entry in atlas_by_order[n]:
            assert_greedy_generating_set(relabel(entry.ring, rng).add, seed_rng)


def test_generator_counts():
    m2z2 = rings.matrix_ring(rings.zn(2), 2)
    z2_6 = functools.reduce(rings.direct_sum, [rings.zn(2)] * 6)
    assert addgroup.generators(m2z2.add) == [1, 2, 4, 8]
    assert len(addgroup.generators(rings.gf(7, 2).add)) == 2
    assert len(addgroup.generators(z2_6.add)) == 6
    assert addgroup.generators(rings.zn(12).add) == [1]


# --- operation counts ----------------------------------------------------------


def count_evaluations(monkeypatch):
    calls = []
    original = fa.evaluate

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(fa, "evaluate", counted)
    return calls


def test_s4_on_m2z2_evaluates_generators_only(monkeypatch):
    calls = count_evaluations(monkeypatch)
    assert fa.satisfies_identity(rings.matrix_ring(rings.zn(2), 2), standard(4)).ok
    assert len(calls) <= 4 ** 4


def test_commutator_on_gf49_evaluates_generators_only(monkeypatch):
    calls = count_evaluations(monkeypatch)
    assert fa.satisfies_identity(rings.gf(7, 2), fa.parse("xy - yx")).ok
    assert len(calls) <= 4


@pytest.mark.parametrize("seed", range(4))
def test_failures_stay_within_the_reduced_scan(monkeypatch, seed):
    ring = relabel(rings.matrix_ring(rings.zn(2), 2), random.Random(seed))
    n, s = ring.order, len(addgroup.generators(ring.add))
    calls = count_evaluations(monkeypatch)
    for p, reduced in ((standard(3), s ** 3), (fa.parse("xy - yx"), s ** 2),
                       (fa.parse("[x,y]z"), s ** 3), (fa.parse("x(y^2 - y)z"), s * n * s)):
        calls.clear()
        result = fa.satisfies_identity(ring, p)
        assert not result.ok
        assert len(calls) <= min(reduced, 3 * n ** len(p.variables()))


def test_budget_still_counts_every_assignment(tmp_path, capsys):
    path = tmp_path / "m2z2.txt"
    rings.write_ringtab(rings.matrix_ring(rings.zn(2), 2), path)
    # No variable is linear, so the scan counts all 16^2 assignments.
    code = cli.main(["identity", "check", str(path), "x^2y^2 - y^2x^2", "--budget", "255"])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (
        3, "", "error: 256 assignments exceed the budget of 255\n")
    code = cli.main(["identity", "check", str(path), "x^2y^2 - y^2x^2", "--budget", "256"])
    assert (code, capsys.readouterr().out) == (1, "FAIL x^2y^2 - y^2x^2 at x=1 y=3\n")
    code = cli.main(["identity", "check", str(path), "0", "--budget", "0"])
    captured = capsys.readouterr()
    assert (code, captured.err) == (3, "error: 1 assignments exceed the budget of 0\n")


def test_generating_sets_stay_small():
    for typ in ((2,) * 8, (4, 4, 4, 4), (16, 16), (256,)):
        add = addgroup.std_group(typ).add
        assert len(addgroup.generators(add)) <= math.log2(len(add))


def test_s4_on_m2z4_answers_within_the_default_budget(monkeypatch):
    # 256^4 assignments in all, but s4 is linear in each variable and (R, +)
    # has 4 generators, so the reduced scan is 4^4 and fits the budget.
    calls = count_evaluations(monkeypatch)
    assert fa.satisfies_identity(rings.matrix_ring(rings.zn(4), 2), standard(4)).ok
    assert len(calls) == 4 ** 4
