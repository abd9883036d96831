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

The search runs on one dense bool adjacency matrix, built once per graph.  A
refinement round ranks the vertices by rows of big-endian uint16, the color
then the sorted neighbour colors, whose bytes order as the tuples of the
colors do; the trivial-pairs test is one count matrix of class
representatives against classes; and a leaf's bits are one `np.packbits` of
the upper triangle of the reordered matrix.  A key entry is at most the
vertex count, so uint16 keys hold graphs of 256 vertices and more.  The
orbits that pruning reads come from the stored automorphisms as one integer
array: every vertex takes the least label among its own and its images'
until the labels are constant on each orbit, the least vertex of it.
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


def _refine(adj, colors):
    # A vertex's key is the row (color, sorted neighbour colors + 1, 0, ...)
    # of big-endian uint16: its bytes order as the tuple (color, sorted
    # neighbour colors) does, a shorter neighbour list first.  The new color
    # is the key's rank among the distinct keys.
    import numpy as np

    n = len(colors)
    rows = np.empty((n, n + 1), ">u2")
    keys = rows.view(f"V{2 * (n + 1)}").ravel()
    # 0 at neighbours and 0xFFFF elsewhere: or-ed with the colors, the
    # non-neighbours sort last, and the += 1 wraps them to 0.
    pad = adj.astype(np.uint16) - 1
    count = len(set(colors.tolist()))
    while True:
        rows[:, 0] = colors
        neighbours = colors | pad
        neighbours.sort(axis=1)
        neighbours += 1
        rows[:, 1:] = neighbours
        row_keys = keys.tolist()
        rank = {key: i for i, key in enumerate(sorted(set(row_keys)))}
        colors = np.array(list(map(rank.__getitem__, row_keys)), np.uint16)
        # The keys start with the color, so no class split exactly when
        # there are as many keys as colors.
        if len(rank) == count:
            return colors
        count = len(rank)


def _all_pairs_trivial(adj, colors, sizes) -> bool:
    # In an equitable partition every member of a class has the same number
    # of neighbours in any class, so one representative decides: row i counts
    # the neighbours of class i's first vertex in each class.
    import numpy as np

    k = len(sizes)
    classes = colors[:, None] == np.arange(k)
    reps = classes.argmax(axis=0)
    # Entry (i, v) of `cells` is the flat index of (i, color of v); the
    # neighbours of class i's representative count in those cells.
    cells = np.arange(0, k * k, k)[:, None] + colors
    counts = np.bincount(cells[adj.take(reps, 0)], minlength=k * k).reshape(k, k)
    # The representatives' rows of `classes` are the identity matrix.
    full = sizes - classes.take(reps, 0)
    return not np.count_nonzero(counts * (full - counts))


def _emit(adj, order) -> bytes:
    # The strict upper triangle of the reordered matrix, row by row, packed
    # most significant bit first.
    import numpy as np

    r = np.arange(len(order))
    return np.packbits(adj.take(order, 0).take(order, 1)[r[:, None] < r]).tobytes()


def _orbit_roots(n: int, autos: list, fixed: list[int]) -> list[int]:
    # Entry v is the least vertex of the orbit of v under the group that the
    # automorphisms fixing every vertex in `fixed` generate.
    import numpy as np

    gens = np.array(autos, np.intp).reshape(-1, n)
    gens = gens[(gens[:, fixed] == fixed).all(axis=1)]
    roots = np.arange(n)
    while True:
        # Each vertex takes the least root among its own and its images',
        # then that root's; a fixed point is constant on every orbit.
        least = np.minimum(roots, roots[gens].min(axis=0, initial=n))
        least = least[least]
        if (least == roots).all():
            return roots.tolist()
        roots = least


def _search(adj) -> tuple[bytes, list[int]]:
    import numpy as np

    n = len(adj)
    # Leaves seen so far, keyed by their adjacency bytes.  Two leaves with
    # the same bytes give the automorphism old_order[i] -> new_order[i].
    leaves: dict[bytes, list[int]] = {}
    autos = []

    def leaf(colors) -> tuple[bytes, list[int]]:
        order = colors.argsort(kind="stable")
        body = _emit(adj, order)
        order = order.tolist()
        seen = leaves.setdefault(body, order)
        if seen != order:
            auto = np.empty(n, np.intp)
            auto[seen] = order
            autos.append(auto)
        return body, order

    def visit(colors, prefix: list[int]) -> tuple[bytes, list[int]]:
        colors = _refine(adj, colors)
        sizes = np.bincount(colors)
        if len(sizes) == n or _all_pairs_trivial(adj, colors, sizes):
            return leaf(colors)
        # The smallest non-singleton class, the first color among equals.
        pivot_color = int(np.where(sizes > 1, sizes, n + 1).argmin())
        target = (colors == pivot_color).nonzero()[0].tolist()
        # Branching on v moves every other member of the class and every
        # higher class up by one.
        shifted = colors + (colors >= pivot_color)
        best: tuple[bytes, list[int]] | None = None
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
            branched = shifted.copy()
            branched[v] = pivot_color
            cand = visit(branched, prefix + [v])
            if best is None or cand[0] < best[0]:
                best = cand
        assert best is not None
        return best

    return visit(np.zeros(n, np.uint16), [])


def _check_graph_cap(n: int) -> None:
    if n > GRAPH_CAP:
        raise GraphCapExceeded(f"graph has {n} vertices, cap is {GRAPH_CAP}")


def _canonical(graph: SimpleGraph):
    """Certificate, canonical vertex order and the dense bool adjacency
    matrix of a graph."""
    import numpy as np

    n = graph.vertex_count
    _check_graph_cap(n)
    adj = np.zeros(n * n, bool)
    adj[[a * n + b for a, b in graph.edges] + [b * n + a for a, b in graph.edges]] = True
    adj = adj.reshape(n, n)
    header = f"G1;n={n};".encode()
    body, order = _search(adj)
    return header + body, order, adj


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
    cg, og, adj_g = _canonical(g)
    ch, oh, adj_h = _canonical(h)
    if cg != ch:
        return None
    mapping = [0] * g.vertex_count
    for p in range(g.vertex_count):
        mapping[og[p]] = oh[p]
    # Edges and non-edges alike.
    assert (adj_h.take(mapping, 0).take(mapping, 1) == adj_g).all()
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


def _dot_id(text: str) -> int:
    """A node id as export_dot writes it: ASCII digits, spaces around them
    allowed; ValueError otherwise, where int() would also take a sign, an
    underscore or another script's digits."""
    if re.fullmatch(r"\s*[0-9]+\s*", text) is None:
        raise ValueError(text)
    return int(text)


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
                edges.append((_dot_id(left), _dot_id(right)))
            except ValueError:
                raise FormatError(f"bad edge statement: {line!r}") from None
        else:
            name, bracket, attrs = stmt.partition("[")
            try:
                v = _dot_id(name)
            except ValueError:
                raise FormatError(f"bad node statement: {line!r}") from None
            label = None
            if bracket:
                # One quoted label, its escapes whole, and one closing bracket.
                match = re.fullmatch(r'\s*label="((?:[^"\\]|\\.)*)"\s*\]', attrs, re.DOTALL)
                if match is None:
                    raise FormatError(f"unsupported attributes: {line!r}")
                label = re.sub(r'\\(["\\nr])', lambda esc: _DOT_UNESCAPES[esc[1]], match[1])
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
