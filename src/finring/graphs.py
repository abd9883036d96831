"""Zero-divisor graphs and canonical forms for small simple graphs.

Canonicalization runs color refinement to a fixed point and then branches
over the smallest non-singleton color class, keeping the lexicographically
least adjacency bit matrix.  When the stable partition relates every pair of
classes trivially (complete or empty), any class-respecting order gives the
same matrix, which short-circuits highly symmetric graphs like cliques.

Two leaves with the same matrix give an automorphism of the graph, and the
search prunes by the ones it has found (McKay & Piperno, "Practical graph
isomorphism, II", arXiv:1301.1493): at each node it skips a vertex of the
target class that some stored automorphism fixing the individualized
vertices maps onto an explored sibling.  The skipped subtree is the image of
the explored one, so it holds the same matrices and can only tie; as the
first strict minimum is kept, certificates, orderings and isomorphism
witnesses are those of the full search.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Sequence

from . import structure
from .errors import FormatError, GraphCapExceeded
from .rings import FiniteRing

GRAPH_CAP = 64


@dataclass(frozen=True)
class SimpleGraph:
    vertex_count: int
    edges: frozenset[tuple[int, int]]
    labels: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        # Each edge is stored once, as (a, b) with a < b: edge counts and
        # the canonical form must agree.  `make_graph` normalizes any list.
        for a, b in self.edges:
            if not 0 <= a < b < self.vertex_count:
                raise ValueError(
                    f"edge ({a}, {b}) is not a normalized pair a < b of vertices "
                    f"below {self.vertex_count}"
                )
        if self.labels is not None and len(self.labels) != self.vertex_count:
            raise ValueError("label count must match vertex count")

    def adjacency(self) -> list[set[int]]:
        adj: list[set[int]] = [set() for _ in range(self.vertex_count)]
        for a, b in self.edges:
            adj[a].add(b)
            adj[b].add(a)
        return adj


def make_graph(
    vertex_count: int,
    edges: Iterable[tuple[int, int]],
    labels: Sequence[str] | None = None,
) -> SimpleGraph:
    """Normalize and validate an edge list into a simple graph."""
    if vertex_count < 0:
        raise ValueError("vertex count must be nonnegative")
    normalized = set()
    for a, b in edges:
        if a == b:
            raise ValueError(f"self-loop at vertex {a}")
        if not (0 <= a < vertex_count and 0 <= b < vertex_count):
            raise ValueError(f"edge ({a}, {b}) out of range")
        normalized.add((min(a, b), max(a, b)))
    lab = None if labels is None else tuple(labels)
    return SimpleGraph(vertex_count, frozenset(normalized), lab)


def complete_graph(n: int) -> SimpleGraph:
    return make_graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def zero_divisor_graph(ring: FiniteRing) -> SimpleGraph:
    """Graph on the nonzero one- or two-sided zero divisors of a ring.

    Two distinct divisors are adjacent when their product vanishes in at
    least one order.
    """
    divisors = sorted(structure.zero_divisors(ring))
    position = {x: i for i, x in enumerate(divisors)}
    edges = []
    for i, x in enumerate(divisors):
        for y in divisors[i + 1 :]:
            if ring.mul[x][y] == 0 or ring.mul[y][x] == 0:
                edges.append((position[x], position[y]))
    labels = tuple(ring.element_name(x) for x in divisors)
    return make_graph(len(divisors), edges, labels)


def is_complete(graph: SimpleGraph) -> int | None:
    """The clique size n if the graph is complete on its n vertices."""
    n = graph.vertex_count
    if len(graph.edges) == n * (n - 1) // 2:
        return n
    return None


def _refine(n: int, adj: list[set[int]], colors: list[int]) -> list[int]:
    while True:
        keys = [
            (colors[v], tuple(sorted(colors[u] for u in adj[v]))) for v in range(n)
        ]
        rank = {key: i for i, key in enumerate(sorted(set(keys)))}
        fresh = [rank[k] for k in keys]
        if fresh == colors:
            return colors
        colors = fresh


def _classes(n: int, colors: list[int]) -> list[list[int]]:
    buckets: dict[int, list[int]] = {}
    for v in range(n):
        buckets.setdefault(colors[v], []).append(v)
    return [buckets[c] for c in sorted(buckets)]


def _all_pairs_trivial(adj: list[set[int]], classes: list[list[int]]) -> bool:
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


def _emit(n: int, adj: list[set[int]], order: list[int]) -> bytes:
    bits = bytearray((n * (n - 1) // 2 + 7) // 8)
    pos = 0
    for i in range(n):
        vi = order[i]
        for j in range(i + 1, n):
            if order[j] in adj[vi]:
                bits[pos >> 3] |= 0x80 >> (pos & 7)
            pos += 1
    return bytes(bits)


def _orbit_roots(n: int, autos: list[list[int]], fixed: list[int]) -> list[int]:
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


def _search(n: int, adj: list[set[int]]) -> tuple[bytes, list[int]]:
    # Leaves seen so far, keyed by their adjacency bytes.  Two leaves with
    # the same bytes give the automorphism old_order[i] -> new_order[i].
    leaves: dict[bytes, list[int]] = {}
    autos: list[list[int]] = []

    def leaf(colors: list[int]) -> tuple[bytes, list[int]]:
        order = sorted(range(n), key=lambda v: (colors[v], v))
        body = _emit(n, adj, order)
        seen = leaves.setdefault(body, order)
        if seen != order:
            auto = [0] * n
            for a, b in zip(seen, order):
                auto[a] = b
            autos.append(auto)
        return body, order

    def visit(colors: list[int], prefix: list[int]) -> tuple[bytes, list[int]]:
        colors = _refine(n, adj, colors)
        classes = _classes(n, colors)
        if len(classes) == n or _all_pairs_trivial(adj, classes):
            return leaf(colors)
        target = min(
            (cls for cls in classes if len(cls) > 1),
            key=lambda cls: (len(cls), colors[cls[0]]),
        )
        best: tuple[bytes, list[int]] | None = None
        pivot_color = colors[target[0]]
        explored: list[int] = []
        known = -1
        roots: list[int] = []
        for v in target:
            if explored:
                if known != len(autos):
                    known = len(autos)
                    roots = _orbit_roots(n, autos, prefix)
                # The subtree under v is the image of an explored sibling's
                # under an automorphism fixing the prefix: it can only tie.
                if any(roots[u] == roots[v] for u in explored):
                    continue
            explored.append(v)
            branched = [
                c + 1 if c > pivot_color or (c == pivot_color and u != v) else c
                for u, c in enumerate(colors)
            ]
            cand = visit(branched, prefix + [v])
            if best is None or cand[0] < best[0]:
                best = cand
        assert best is not None
        return best

    return visit([0] * n, [])


def _check_graph_cap(n: int) -> None:
    if n > GRAPH_CAP:
        raise GraphCapExceeded(f"graph has {n} vertices, cap is {GRAPH_CAP}")


def _canonical(graph: SimpleGraph) -> tuple[bytes, list[int]]:
    n = graph.vertex_count
    _check_graph_cap(n)
    header = f"G1;n={n};".encode()
    if n == 0:
        return header, []
    body, order = _search(n, graph.adjacency())
    return header + body, order


def canonical_form(graph: SimpleGraph) -> bytes:
    """Certificate equal for two graphs exactly when they are isomorphic."""
    return _canonical(graph)[0]


def graph_isomorphic(g: SimpleGraph, h: SimpleGraph) -> list[int] | None:
    """An adjacency-preserving vertex bijection g -> h, or None.

    Agrees with canonical-form equality by construction: both graphs are
    mapped onto their shared canonical ordering.
    """
    if g.vertex_count != h.vertex_count:
        return None
    cg, og = _canonical(g)
    ch, oh = _canonical(h)
    if cg != ch:
        return None
    mapping = [0] * g.vertex_count
    for p in range(g.vertex_count):
        mapping[og[p]] = oh[p]
    adj_h = h.adjacency()
    for a, b in g.edges:
        assert mapping[b] in adj_h[mapping[a]]
    return mapping


# A label is written with these characters escaped, so that it stays on its
# line and inside its quotes; parse_dot undoes them.
_DOT_ESCAPES = {"\\": "\\\\", '"': '\\"', "\n": "\\n", "\r": "\\r"}
_DOT_UNESCAPES = {"\\": "\\", '"': '"', "n": "\n", "r": "\r"}


def export_dot(graph: SimpleGraph) -> str:
    """Stable DOT text: vertices in index order, edges sorted; a label has
    its backslashes, quotes and line breaks escaped."""
    lines = ["graph {"]
    for v in range(graph.vertex_count):
        if graph.labels is not None:
            escaped = "".join(_DOT_ESCAPES.get(ch, ch) for ch in graph.labels[v])
            lines.append(f'  {v} [label="{escaped}"];')
        else:
            lines.append(f"  {v};")
    for a, b in sorted(graph.edges):
        lines.append(f"  {a} -- {b};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def parse_dot(text: str) -> SimpleGraph:
    """Read the subset of DOT that export_dot emits."""
    # Split at \n alone, as parse_ringtab does, so a form feed or another
    # Unicode line break inside a statement or a label stays in it.
    lines = [line for line in map(str.strip, text.split("\n")) if line]
    if not lines or lines[0] not in ("graph {", "graph{"):
        raise FormatError("expected a 'graph {' header")
    if lines[-1] != "}":
        raise FormatError("missing closing brace")
    nodes: dict[int, str | None] = {}
    edges = []
    for line in lines[1:-1]:
        if not line.endswith(";"):
            raise FormatError(f"unterminated statement: {line!r}")
        stmt = line[:-1].strip()
        # Only the text before a label decides the kind: a label may hold "--".
        if "--" in stmt.partition("[")[0]:
            left, _, right = stmt.partition("--")
            try:
                edges.append((int(left), int(right)))
            except ValueError:
                raise FormatError(f"bad edge statement: {line!r}") from None
        else:
            name, _, attrs = stmt.partition("[")
            try:
                v = int(name)
            except ValueError:
                raise FormatError(f"bad node statement: {line!r}") from None
            label = None
            if attrs:
                attrs = attrs.rstrip("]").strip()
                if not (attrs.startswith('label="') and attrs.endswith('"')):
                    raise FormatError(f"unsupported attributes: {line!r}")
                label = re.sub(r'\\(["\\nr])', lambda esc: _DOT_UNESCAPES[esc[1]],
                               attrs[len('label="') : -1])
            nodes[v] = label
    n = len(nodes)
    if sorted(nodes) != list(range(n)):
        raise FormatError("node ids must be exactly 0..n-1")
    labels = None
    if any(lab is not None for lab in nodes.values()):
        labels = tuple(nodes[v] if nodes[v] is not None else str(v) for v in range(n))
    try:
        return make_graph(n, edges, labels)
    except ValueError as exc:
        raise FormatError(str(exc)) from None
