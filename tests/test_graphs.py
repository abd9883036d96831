import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finring import atlas, graphs, rings, structure
from finring.errors import FormatError, GraphCapExceeded


def brute_iso(g, h):
    """All-permutation isomorphism search with prefix pruning (oracle)."""
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


# The set-based kernels that the dense ones in `graphs` replaced, verbatim
# but for their names: refinement, classes, the trivial-pairs test and the
# adjacency bits of an ordering, over adjacency sets, and the union-find
# orbits of the stored automorphisms.
def reference_refine(n: int, adj: list[set[int]], colors: list[int]) -> list[int]:
    while True:
        keys = [
            (colors[v], tuple(sorted(colors[u] for u in adj[v]))) for v in range(n)
        ]
        rank = {key: i for i, key in enumerate(sorted(set(keys)))}
        fresh = [rank[k] for k in keys]
        if fresh == colors:
            return colors
        colors = fresh


def reference_classes(n: int, colors: list[int]) -> list[list[int]]:
    buckets: dict[int, list[int]] = {}
    for v in range(n):
        buckets.setdefault(colors[v], []).append(v)
    return [buckets[c] for c in sorted(buckets)]


def reference_all_pairs_trivial(adj: list[set[int]], classes: list[list[int]]) -> bool:
    # In an equitable partition every member of a class has the same number
    # of neighbours in any class, so one representative decides.
    for cls in classes:
        rep = cls[0]
        for other in classes:
            count = sum(1 for u in other if u in adj[rep])
            full = len(cls) - 1 if other is cls else len(other)
            if count not in (0, full):
                return False
    return True


def reference_emit(n: int, adj: list[set[int]], order: list[int]) -> bytes:
    bits = bytearray((n * (n - 1) // 2 + 7) // 8)
    pos = 0
    for i in range(n):
        vi = order[i]
        for j in range(i + 1, n):
            if order[j] in adj[vi]:
                bits[pos >> 3] |= 0x80 >> (pos & 7)
            pos += 1
    return bytes(bits)


def reference_orbit_roots(n: int, autos: list[list[int]], fixed: list[int]) -> list[int]:
    # Union-find over the automorphisms that fix every vertex in `fixed`;
    # entry v is a representative of the orbit of v under the group they
    # generate.
    parent = list(range(n))

    def find(v: int) -> int:
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for auto in autos:
        if all(auto[v] == v for v in fixed):
            for v in range(n):
                a, b = find(v), find(auto[v])
                if a != b:
                    parent[max(a, b)] = min(a, b)
    return [find(v) for v in range(n)]


def branch(colors, v):
    """The coloring the search refines after individualizing v."""
    pivot_color = colors[v]
    return [
        c + 1 if c > pivot_color or (c == pivot_color and u != v) else c
        for u, c in enumerate(colors)
    ]


def target_class(colors, classes):
    return min(
        (cls for cls in classes if len(cls) > 1),
        key=lambda cls: (len(cls), colors[cls[0]]),
    )


def unpruned_search(n, adj, colors):
    """The canonical search without automorphism pruning, on the reference
    kernels (oracle).

    Tries every leaf of the individualization-refinement tree and keeps the
    first strict minimum in iteration order.
    """
    colors = reference_refine(n, adj, colors)
    classes = reference_classes(n, colors)
    if reference_all_pairs_trivial(adj, classes):
        order = sorted(range(n), key=lambda v: (colors[v], v))
        return reference_emit(n, adj, order), order
    best = None
    for v in target_class(colors, classes):
        cand = unpruned_search(n, adj, branch(colors, v))
        if best is None or cand[0] < best[0]:
            best = cand
    return best


def unpruned_canonical(graph):
    n = graph.vertex_count
    header = f"G1;n={n};".encode()
    if n == 0:
        return header, []
    body, order = unpruned_search(n, graph.adjacency(), [0] * n)
    return header + body, order


def power(ring, k):
    out = ring
    for _ in range(k - 1):
        out = rings.direct_sum(out, ring)
    return out


def relabeled(graph, perm):
    return graphs.make_graph(graph.vertex_count, [(perm[a], perm[b]) for a, b in graph.edges])


def test_zero_divisor_graph_examples():
    assert graphs.is_complete(graphs.zero_divisor_graph(rings.n0(3, 1))) == 2
    assert graphs.zero_divisor_graph(rings.gf(2, 2)).vertex_count == 0
    path = graphs.zero_divisor_graph(rings.np2(2))
    assert path.vertex_count == 3
    assert sorted(path.edges) == [(0, 1), (1, 2)]
    assert path.labels == ("a", "2a", "3a")


def test_vertex_set_matches_zero_divisors():
    for ring in (rings.zn(8), rings.np2(3), rings.ap(3), rings.matrix_ring(rings.zn(2), 2)):
        graph = graphs.zero_divisor_graph(ring)
        divisors = sorted(structure.zero_divisors(ring))
        assert graph.vertex_count == len(divisors)
        # every vertex genuinely annihilates someone on some side
        adj = graph.adjacency()
        for i, x in enumerate(divisors):
            self_annihilating = ring.mul[x][x] == 0
            assert adj[i] or self_annihilating


def test_is_complete():
    assert graphs.is_complete(graphs.zero_divisor_graph(rings.zn(9))) == 2
    assert graphs.is_complete(graphs.make_graph(1, [])) == 1
    assert graphs.is_complete(graphs.zero_divisor_graph(rings.np2(2))) is None
    assert graphs.is_complete(graphs.make_graph(0, [])) == 0


def test_canonical_form_examples():
    a = graphs.canonical_form(graphs.zero_divisor_graph(rings.zn(9)))
    b = graphs.canonical_form(
        graphs.zero_divisor_graph(rings.direct_sum(rings.zn(2), rings.zn(2)))
    )
    assert a == b
    assert graphs.canonical_form(graphs.make_graph(0, [])) == b"G1;n=0;"
    p3 = graphs.make_graph(3, [(0, 1), (1, 2)])
    assert graphs.canonical_form(p3) != graphs.canonical_form(graphs.complete_graph(3))


def test_canonical_cap(monkeypatch):
    big = graphs.make_graph(65, [])
    with pytest.raises(GraphCapExceeded):
        graphs.canonical_form(big)
    monkeypatch.setattr(graphs, "GRAPH_CAP", 65)
    assert graphs.canonical_form(big) is not None


def test_graph_isomorphism_family_pairs():
    for p in (2, 3, 5):
        family = [
            rings.np2(p),
            rings.npp(p),
            rings.ap(p),
            rings.ap0(p),
            rings.direct_sum(rings.n0(p, 1), rings.zn(p)),
        ]
        gs = [graphs.zero_divisor_graph(r) for r in family]
        for a, b in itertools.combinations(gs, 2):
            witness = graphs.graph_isomorphic(a, b)
            assert witness is not None
            adj_b = b.adjacency()
            for u, v in a.edges:
                assert witness[v] in adj_b[witness[u]]


def test_graph_isomorphism_negative():
    k2 = graphs.complete_graph(2)
    p3 = graphs.make_graph(3, [(0, 1), (1, 2)])
    assert graphs.graph_isomorphic(k2, p3) is None


def test_graph_invariant_under_ring_isomorphism():
    pairs = [
        (rings.zn(6), rings.direct_sum(rings.zn(2), rings.zn(3))),
        (rings.gf(2, 2), rings.gf(2, 2)),
        (rings.direct_sum(rings.zn(2), rings.zn(2)), rings.direct_sum(rings.zn(2), rings.zn(2))),
    ]
    for a, b in pairs:
        assert structure.ring_isomorphic(a, b) is not None
        assert graphs.graph_isomorphic(
            graphs.zero_divisor_graph(a), graphs.zero_divisor_graph(b)
        ) is not None


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 6), st.data())
def test_canonical_matches_brute_oracle(n, data):
    edges_all = [(i, j) for i in range(n) for j in range(i + 1, n)]
    picks_a = data.draw(st.lists(st.sampled_from(edges_all), max_size=10) if edges_all else st.just([]))
    picks_b = data.draw(st.lists(st.sampled_from(edges_all), max_size=10) if edges_all else st.just([]))
    a = graphs.make_graph(n, picks_a)
    b = graphs.make_graph(n, picks_b)
    assert (graphs.canonical_form(a) == graphs.canonical_form(b)) == (
        brute_iso(a, b) is not None
    )


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 6), st.data())
def test_permuted_graph_same_certificate(n, data):
    edges_all = [(i, j) for i in range(n) for j in range(i + 1, n)]
    picks = data.draw(st.lists(st.sampled_from(edges_all), max_size=12) if edges_all else st.just([]))
    perm = data.draw(st.permutations(list(range(n))))
    g = graphs.make_graph(n, picks)
    h = graphs.make_graph(n, [(perm[a], perm[b]) for a, b in picks])
    assert graphs.canonical_form(g) == graphs.canonical_form(h)
    assert graphs.graph_isomorphic(g, h) is not None


def test_export_dot_goldens():
    k2 = graphs.complete_graph(2)
    assert graphs.export_dot(k2) == "graph {\n  0;\n  1;\n  0 -- 1;\n}\n"
    empty = graphs.make_graph(0, [])
    assert graphs.export_dot(empty) == "graph {\n}\n"
    path = graphs.zero_divisor_graph(rings.np2(2))
    assert graphs.export_dot(path) == (
        "graph {\n"
        '  0 [label="a"];\n'
        '  1 [label="2a"];\n'
        '  2 [label="3a"];\n'
        "  0 -- 1;\n"
        "  1 -- 2;\n"
        "}\n"
    )


def test_parse_dot_round_trip():
    for graph in (
        graphs.complete_graph(4),
        graphs.zero_divisor_graph(rings.np2(2)),
        graphs.make_graph(0, []),
    ):
        again = graphs.parse_dot(graphs.export_dot(graph))
        assert again.vertex_count == graph.vertex_count
        assert again.edges == graph.edges


def test_parse_dot_errors():
    with pytest.raises(FormatError):
        graphs.parse_dot("digraph { }")
    with pytest.raises(FormatError):
        graphs.parse_dot("graph {\n  0\n}")
    with pytest.raises(FormatError):
        graphs.parse_dot("graph {\n  5;\n}\n")


def test_dot_lines_split_only_at_newlines():
    # A form feed inside a statement is whitespace, and another Unicode line
    # break inside a label stays in it; text mode reads \r\n as \n.
    path = graphs.make_graph(2, [(0, 1)])
    assert graphs.parse_dot("graph {\n  0;\n  1;\n  0 --\x0c 1;\n}\n") == path
    assert graphs.parse_dot("graph {\r\n  0;\r\n  1;\r\n  0 -- 1;\r\n}\r\n") == path
    labeled = graphs.make_graph(2, [(0, 1)], ("a\x1cb", "c\x85d"))
    assert graphs.parse_dot(graphs.export_dot(labeled)) == labeled


def test_dot_labels_read_back_with_escapes():
    # Backslashes, quotes and line breaks are escaped, so each label stays on
    # its line and inside its quotes; a label may also hold "--", "[" or "];".
    labels = ("a\nb", "a\\", 'x"y', "\r\n\\\"", "p--q", "z];", "[", "\\n")
    graph = graphs.make_graph(len(labels), [(0, 7)], labels)
    text = graphs.export_dot(graph)
    assert text.count("\n") == len(labels) + 3
    assert '  0 [label="a\\nb"];\n  1 [label="a\\\\"];\n  2 [label="x\\"y"];\n' in text
    assert graphs.parse_dot(text) == graph
    # An escape the writer never makes is read as written.
    assert graphs.parse_dot('graph {\n  0 [label="a\\tb"];\n}\n').labels == ("a\\tb",)


def test_make_graph_validation():
    with pytest.raises(ValueError):
        graphs.make_graph(2, [(0, 0)])
    with pytest.raises(ValueError):
        graphs.make_graph(2, [(0, 5)])


def test_simple_graph_takes_only_normalized_edges():
    # An edge stored in both orientations would count twice while the
    # canonical form is K2's, and is_complete would miss the clique.
    for edges in ({(0, 1), (1, 0)}, {(1, 0)}, {(0, 0)}, {(0, 2)}, {(-1, 1)}):
        with pytest.raises(ValueError, match="is not a normalized pair"):
            graphs.SimpleGraph(2, frozenset(edges))
    k2 = graphs.SimpleGraph(2, frozenset({(0, 1)}))
    assert k2 == graphs.make_graph(2, [(1, 0), (0, 1)]) == graphs.complete_graph(2)
    assert graphs.is_complete(k2) == 2


def test_simple_graph_takes_one_label_per_vertex():
    # export_dot names each vertex by its label, so a short tuple failed
    # there with an IndexError.
    for labels in (("a",), ("a", "b", "c", "d")):
        with pytest.raises(ValueError, match="label count must match vertex count"):
            graphs.SimpleGraph(3, frozenset({(0, 1)}), labels)
        with pytest.raises(ValueError, match="label count must match vertex count"):
            graphs.make_graph(3, [(0, 1)], labels)
    labeled = graphs.SimpleGraph(3, frozenset({(0, 1)}), ("a", "b", "c"))
    assert graphs.parse_dot(graphs.export_dot(labeled)) == labeled


def test_pruned_search_matches_unpruned_on_atlas_graphs():
    for n in range(1, 16):
        for entry in atlas.enumerate_rings(n, cap=16):
            graph = graphs.zero_divisor_graph(entry.ring)
            assert graphs._canonical(graph)[:2] == unpruned_canonical(graph), entry.ring.label


def test_pruned_search_matches_unpruned_on_symmetric_rings():
    z2, z3, gf4, z4 = rings.zn(2), rings.zn(3), rings.gf(2, 2), rings.zn(4)
    family = [power(z2, k) for k in range(1, 7)]
    family += [rings.matrix_ring(z2, 2), power(z3, 3), power(gf4, 3), power(z4, 2)]
    for ring in family:
        graph = graphs.zero_divisor_graph(ring)
        assert graphs._canonical(graph)[:2] == unpruned_canonical(graph), ring.label


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10), st.data())
def test_pruned_search_matches_unpruned_on_random_graphs(n, data):
    edges_all = [(i, j) for i in range(n) for j in range(i + 1, n)]
    picks = data.draw(st.lists(st.sampled_from(edges_all), max_size=30) if edges_all else st.just([]))
    perm = data.draw(st.permutations(list(range(n))))
    g = graphs.make_graph(n, picks)
    for graph in (g, relabeled(g, perm)):
        assert graphs._canonical(graph)[:2] == unpruned_canonical(graph)


def test_orbits_use_only_automorphisms_fixing_the_prefix():
    swap_01 = [1, 0, 2, 3, 4]
    swap_23 = [0, 1, 3, 2, 4]
    cycle_234 = [0, 1, 3, 4, 2]
    assert graphs._orbit_roots(5, [swap_01, swap_23], []) == [0, 0, 2, 2, 4]
    assert graphs._orbit_roots(5, [swap_01, swap_23], [0]) == [0, 1, 2, 2, 4]
    assert graphs._orbit_roots(5, [swap_01, cycle_234], [2]) == [0, 0, 2, 3, 4]


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 40), st.data())
def test_orbit_roots_match_the_reference(n, data):
    # Any permutations serve: the orbits are those of the group they
    # generate.  Fixed points are drawn from the vertices some of them fix.
    perms = st.permutations(list(range(n)))
    autos = data.draw(st.lists(perms, max_size=6))
    if autos and data.draw(st.booleans()):
        kept = [v for v in range(n) if autos[0][v] == v]
        fixed = data.draw(st.lists(st.sampled_from(kept), max_size=3)) if kept else []
    else:
        fixed = data.draw(st.lists(st.integers(0, n - 1), max_size=3))
    expected = reference_orbit_roots(n, autos, fixed)
    assert graphs._orbit_roots(n, autos, fixed) == expected
    assert graphs._orbit_roots(n, [np.array(a) for a in autos], fixed) == expected


Z2_5_CERTIFICATE = (
    "00000080000004000000400000080000020000700001500009200088801060040a0202"
    "4200c400b000c27c25d49c8d6557261c34b3ffe0"
)
Z2_6_CERTIFICATE = (
    "0000000000000100000000000000080000000000000080000000000000100000000000"
    "000400000000000002000000000001c000000000000a8000000000009200000000001110"
    "00000000042100000000020600000000020280000000040240000000100440000000800c"
    "00000008005000000100048000004000600000200014000020000600004011f000010045"
    "d00008022720008022388010040d60040102aa0200812a42008064c40100a4b004018"
    "8c000981c000940d001240c8043016021405420c0260b001c2a00353000be000384cfe12"
    "afa933e466ecaaeb99cc3ae2d6b55f270783a365cffffe0"
)


@pytest.mark.parametrize(
    "k, certificate, max_leaves",
    [(5, Z2_5_CERTIFICATE, 32), (6, Z2_6_CERTIFICATE, 64)],
)
def test_boolean_ring_graphs_pruned(monkeypatch, k, certificate, max_leaves):
    # Aut of the zero-divisor graph of Z2^k contains S_k: 120 and 720 leaves
    # without pruning.
    leaves = []
    emit = graphs._emit

    def counting_emit(adj, order):
        leaves.append(order)
        return emit(adj, order)

    monkeypatch.setattr(graphs, "_emit", counting_emit)
    graph = graphs.zero_divisor_graph(power(rings.zn(2), k))
    n = graph.vertex_count
    assert graphs.canonical_form(graph) == f"G1;n={n};".encode() + bytes.fromhex(certificate)
    assert len(leaves) <= max_leaves


def dense(graph):
    adj = np.zeros((graph.vertex_count, graph.vertex_count), bool)
    for a, b in graph.edges:
        adj[a, b] = adj[b, a] = True
    return adj


def assert_refine_matches(graph, colors):
    n = graph.vertex_count
    expected = reference_refine(n, graph.adjacency(), colors)
    got = graphs._refine(dense(graph), np.array(colors, np.uint16))
    assert got.tolist() == expected
    return expected


def assert_refine_matches_at_root_and_branches(graph):
    n = graph.vertex_count
    colors = assert_refine_matches(graph, [0] * n)
    classes = reference_classes(n, colors)
    if len(classes) < n:
        for v in target_class(colors, classes):
            assert_refine_matches(graph, branch(colors, v))


def test_refine_matches_the_reference_on_ring_graphs():
    family = [power(rings.zn(2), k) for k in range(1, 7)] + [power(rings.zn(3), 3)]
    family += [entry.ring for n in range(1, 16) for entry in atlas.enumerate_rings(n, cap=16)]
    for ring in family:
        assert_refine_matches_at_root_and_branches(graphs.zero_divisor_graph(ring))


@settings(max_examples=80, deadline=None)
@given(st.integers(0, graphs.GRAPH_CAP), st.floats(0, 1), st.randoms(use_true_random=False), st.data())
def test_refine_matches_the_reference_on_random_graphs(n, density, rnd, data):
    # Up to GRAPH_CAP vertices, so colors and neighbour counts span the key
    # width; a random start coloring need not use every color below its top.
    edges = [(a, b) for a in range(n) for b in range(a + 1, n) if rnd.random() < density]
    graph = graphs.make_graph(n, edges)
    assert_refine_matches(graph, data.draw(st.lists(st.integers(0, max(n - 1, 0)), min_size=n, max_size=n)))
    assert_refine_matches_at_root_and_branches(graph)


def count_search_tree(monkeypatch, graph):
    """Nodes refined and leaves emitted by one canonical search."""
    counts = {"nodes": 0, "leaves": 0}
    refine, emit = graphs._refine, graphs._emit

    def counting_refine(*args):
        counts["nodes"] += 1
        return refine(*args)

    def counting_emit(*args):
        counts["leaves"] += 1
        return emit(*args)

    monkeypatch.setattr(graphs, "_refine", counting_refine)
    monkeypatch.setattr(graphs, "_emit", counting_emit)
    graphs.canonical_form(graph)
    monkeypatch.undo()
    return counts


@pytest.mark.parametrize(
    "base, k, nodes, leaves",
    [(2, 5, 25, 11), (2, 6, 41, 16), (3, 3, 142, 82)],
)
def test_search_tree_is_pinned(monkeypatch, base, k, nodes, leaves):
    # The tree of the set-based search: the same target cells, branch order,
    # orbit pruning and leaves.
    graph = graphs.zero_divisor_graph(power(rings.zn(base), k))
    assert count_search_tree(monkeypatch, graph) == {"nodes": nodes, "leaves": leaves}


def test_witness_check_covers_non_edges(monkeypatch):
    # A search that gave P3 and K3 the same bytes would map P3's two edges
    # onto edges of K3 and its non-edge onto K3's third edge; the witness
    # check must refuse it.
    monkeypatch.setattr(graphs, "_search", lambda adj: (b"", list(range(len(adj)))))
    p3 = graphs.make_graph(3, [(0, 1), (1, 2)])
    with pytest.raises(AssertionError):
        graphs.graph_isomorphic(p3, graphs.complete_graph(3))
