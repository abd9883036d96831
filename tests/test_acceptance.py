"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every expected value here is exact.
"""

import itertools
import time

from finring import atlas, cli, freealg, graphs, rings, scenarios, structure


def _report(criterion: str, ok: bool) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'}")
    assert ok


def test_criterion_1_k2_classification():
    started = time.time()
    cache = scenarios.AtlasCache()  # no directory: enumerate everything fresh
    result = scenarios.cor1(cache)
    hits = atlas.rings_with_graph(9, graphs.complete_graph(2), provider=cache.get)
    expected = [
        rings.n0(3, 1),
        rings.zn(9),
        rings.zpx_mod_x2(3),
        rings.direct_sum(rings.zn(2), rings.zn(2)),
    ]
    matched = all(
        sum(1 for e in hits if structure.ring_isomorphic(e.ring, want)) == 1
        for want in expected
    )
    elapsed = time.time() - started
    _report(
        "1 (K2 classification over orders 2..9)",
        result.passed and len(hits) == 4 and matched and elapsed < 600,
    )


def test_criterion_1_cli_run(atlas_dir, capsys):
    code = cli.main(["verify", "cor1", "--atlas-dir", str(atlas_dir)])
    out = capsys.readouterr().out
    with capsys.disabled():
        _report("1b (verify cor1 command)", code == 0 and out.startswith("RESULT cor1 PASS"))


def test_criterion_2_shared_graph_family():
    started = time.time()
    ok = True
    for p in (2, 3, 5):
        family = [
            rings.np2(p),
            rings.npp(p),
            rings.ap(p),
            rings.ap0(p),
            rings.direct_sum(rings.n0(p, 1), rings.zn(p)),
        ]
        zgraphs = [graphs.zero_divisor_graph(r) for r in family]
        pairs = list(itertools.combinations(zgraphs, 2))
        ok &= len(pairs) == 10
        ok &= all(graphs.graph_isomorphic(a, b) is not None for a, b in pairs)
    elapsed = time.time() - started
    _report("2 (five-ring shared graph, p in {2,3,5})", ok and elapsed < 10)


def test_criterion_3_graph_collision_counterexample():
    left = rings.n0(3, 1)
    right = rings.direct_sum(rings.zn(2), rings.zn(2))
    graphs_match = (
        graphs.graph_isomorphic(
            graphs.zero_divisor_graph(left), graphs.zero_divisor_graph(right)
        )
        is not None
    )
    rings_differ = structure.ring_isomorphic(left, right) is None
    _report("3 (N0_3 vs Z2+Z2 collision)", graphs_match and rings_differ)


def test_criterion_4_identity_suites():
    started = time.time()
    n4 = rings.np2(2)
    n04 = rings.n0(2, 2)
    ok = all(
        freealg.satisfies_identity(n4, freealg.parse(text)).ok
        for text in ("xyz", "4x", "2xy", "2x+x^2")
    )
    ok &= all(
        freealg.satisfies_identity(n04, freealg.parse(text)).ok for text in ("4x", "xy")
    )
    elapsed = time.time() - started
    _report("4 (identity suites for N4 and N0_4)", ok and elapsed < 1)


def test_criterion_5_substitution_regression():
    f = freealg.parse("x + x^2")
    doubled = freealg.substitute(f, {1: 2 * freealg.variable(1)})
    derived = 4 * f + -1 * doubled
    _report("5 (4f(x) - f(2x) = 2x exactly)", derived == freealg.parse("2x"))


def test_criterion_6_enumeration_counts(atlas_by_order):
    expected = {2: 2, 3: 2, 5: 2, 7: 2, 4: 11, 9: 11, 8: 52}
    ok = all(len(atlas_by_order[n]) == count for n, count in expected.items())
    _report("6 (class counts: primes 2, p^2 11, order 8 52)", ok)


def _brute_graph_iso(g, h):
    if g.vertex_count != h.vertex_count:
        return None
    n = g.vertex_count
    ga, ha = g.adjacency(), h.adjacency()

    def rec(mapping):
        v = len(mapping)
        if v == n:
            return list(mapping)
        for w in range(n):
            if w in mapping:
                continue
            if all((u in ga[v]) == (mapping[u] in ha[w]) for u in range(v)):
                result = rec(mapping + [w])
                if result is not None:
                    return result
        return None

    return rec([])


def test_criterion_7_oracle_equivalences(atlas_by_order):
    started = time.time()
    entries = [e for n in range(1, 10) for e in atlas_by_order[n]]

    # (a) canonical form equality vs all-permutation search, all graph pairs
    items = [(graphs.zero_divisor_graph(e.ring), e.graph_certificate) for e in entries]
    ok_a = True
    for (ga, ca), (gb, cb) in itertools.combinations(items, 2):
        if ga.vertex_count != gb.vertex_count:
            ok_a &= ca != cb
            continue
        ok_a &= (ca == cb) == (_brute_graph_iso(ga, gb) is not None)

    # (b) radical vs intersection of maximal ideals on unital rings
    ok_b = True
    for entry in entries:
        ring = entry.ring
        if structure.has_identity(ring) is None:
            continue
        proper = [
            set(i.members)
            for i in structure.ideals(ring)
            if len(i.members) < ring.order
        ]
        maximal = [m for m in proper if not any(m < other for other in proper)]
        meet = set(range(ring.order))
        for m in maximal:
            meet &= m
        ok_b &= tuple(sorted(meet)) == structure.jacobson_radical(ring).members

    # (c) subdirect irreducibility vs the direct all-ideal intersection
    ok_c = True
    for entry in entries:
        ring = entry.ring
        nonzero = [set(i.members) for i in structure.ideals(ring) if len(i.members) > 1]
        direct = bool(nonzero) and len(set.intersection(*nonzero)) > 1
        ok_c &= structure.is_subdirectly_irreducible(ring) == direct

    elapsed = time.time() - started
    _report(
        "7 (oracle equivalences: graphs, radical, subdirect irreducibility)",
        ok_a and ok_b and ok_c and elapsed < 120,
    )


def test_criterion_8_worker_determinism(tmp_path, capsys):
    one = tmp_path / "atlas8-w1.txt"
    two = tmp_path / "atlas8-w2.txt"
    assert cli.main(["atlas", "build", "8", "--out", str(one), "--workers", "1"]) == 0
    assert cli.main(["atlas", "build", "8", "--out", str(two), "--workers", "2"]) == 0
    capsys.readouterr()
    with capsys.disabled():
        _report("8 (atlas build 8 worker determinism)", one.read_bytes() == two.read_bytes())
