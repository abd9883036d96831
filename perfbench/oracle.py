"""Small ring computations the benchmark makes on its own, to check outputs.

Nothing here imports finring: these are the independent references the
workload oracles compare the program's answers against.  Tables are tuples
of row tuples with element 0 the additive zero, as in the ringtab format.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

Table = tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class Tables:
    label: str | None
    add: Table
    mul: Table

    @property
    def order(self) -> int:
        return len(self.add)


def relabeling(n: int, rng: random.Random) -> list[int]:
    """A random permutation of 0..n-1 that fixes the zero element."""
    rest = list(range(1, n))
    rng.shuffle(rest)
    return [0] + rest


def relabel(t: Tables, perm: list[int]) -> Tables:
    """The same ring with element x renamed perm[x]."""
    n = t.order
    inv = [0] * n
    for old, new in enumerate(perm):
        inv[new] = old

    def move(table: Table) -> Table:
        return tuple(
            tuple(perm[table[inv[a]][inv[b]]] for b in range(n)) for a in range(n)
        )

    return Tables(t.label, move(t.add), move(t.mul))


def matrix_ring_zn(m: int, label: str) -> Tables:
    """2x2 matrices over Z_m; (a, b, c, d) has index ((a*m + b)*m + c)*m + d."""
    quads = list(itertools.product(range(m), repeat=4))
    index = {q: i for i, q in enumerate(quads)}
    add = tuple(
        tuple(index[tuple((u + v) % m for u, v in zip(p, q))] for q in quads) for p in quads
    )
    mul = tuple(
        tuple(
            index[((a * e + b * g) % m, (a * f + b * h) % m, (c * e + d * g) % m, (c * f + d * h) % m)]
            for (e, f, g, h) in quads
        )
        for (a, b, c, d) in quads
    )
    return Tables(label, add, mul)


def format_ringtab(t: Tables) -> str:
    lines = ["ringtab 1", f"order {t.order}"]
    if t.label is not None:
        lines.append(f"label {t.label}")
    lines.append("add")
    lines.extend(" ".join(map(str, row)) for row in t.add)
    lines.append("mul")
    lines.extend(" ".join(map(str, row)) for row in t.mul)
    return "\n".join(lines) + "\n"


def parse_ringtab(text: str) -> Tables:
    lines = [ln.strip() for ln in text.splitlines() if ln.strip() and not ln.strip().startswith("#")]
    if lines[0] != "ringtab 1" or not lines[1].startswith("order "):
        raise ValueError("not a ringtab block")
    n = int(lines[1].split()[1])
    pos = 2
    label = None
    if lines[pos].startswith("label "):
        label = lines[pos].split(None, 1)[1]
        pos += 1

    def table(header: str, start: int) -> Table:
        if lines[start] != header:
            raise ValueError(f"expected {header!r}")
        return tuple(tuple(int(v) for v in lines[start + 1 + i].split()) for i in range(n))

    add = table("add", pos)
    mul = table("mul", pos + n + 1)
    return Tables(label, add, mul)


def relabel_atlas(text: str, rng: random.Random) -> str:
    """An atlas file with every ring block relabeled; header and certificate
    lines are kept, since certificates do not depend on labels."""
    head, _, body = text.partition("\n\n")
    blocks = [b for b in body.split("\n\n") if b.strip()]
    moved = []
    for block in blocks:
        t = parse_ringtab(block)
        moved.append(format_ringtab(relabel(t, relabeling(t.order, rng))))
    out = head + "\n"
    if moved:
        out += "\n" + "\n".join(moved)
    return out


def identity_element(t: Tables) -> int | None:
    n = t.order
    for e in range(n):
        if all(t.mul[e][x] == x == t.mul[x][e] for x in range(n)):
            return e
    return None


def zero_divisors(t: Tables) -> list[int]:
    n = t.order
    return [
        x
        for x in range(1, n)
        if any(t.mul[x][y] == 0 or t.mul[y][x] == 0 for y in range(1, n))
    ]


def zero_divisor_graph(t: Tables) -> tuple[int, set[tuple[int, int]]]:
    """Vertex count and edge set, vertices numbered by ascending element."""
    divisors = zero_divisors(t)
    edges = set()
    for i, x in enumerate(divisors):
        for j in range(i + 1, len(divisors)):
            y = divisors[j]
            if t.mul[x][y] == 0 or t.mul[y][x] == 0:
                edges.add((i, j))
    return len(divisors), edges


def is_graph_isomorphism(
    mapping: list[int], n: int, edges_a: set[tuple[int, int]], edges_b: set[tuple[int, int]]
) -> bool:
    if sorted(mapping) != list(range(n)) or len(edges_a) != len(edges_b):
        return False
    return all(tuple(sorted((mapping[a], mapping[b]))) in edges_b for a, b in edges_a)


def standard_polynomial(k: int) -> tuple[str, list[tuple[int, tuple[int, ...]]]]:
    """The standard polynomial s_k as text and as (sign, word) terms."""
    terms = []
    parts = []
    for perm in itertools.permutations(range(1, k + 1)):
        inversions = sum(1 for i in range(k) for j in range(i + 1, k) if perm[i] > perm[j])
        sign = -1 if inversions % 2 else 1
        terms.append((sign, perm))
        word = "".join(f"x{v}" for v in perm)
        parts.append(word if not parts and sign > 0 else ("- " if sign < 0 else "+ ") + word)
    return " ".join(parts), terms


def _multiple(t: Tables, coeff: int, x: int) -> int:
    order = 1
    cur = x
    while cur != 0:
        cur = t.add[cur][x]
        order += 1
    acc = 0
    for _ in range(coeff % order):
        acc = t.add[acc][x]
    return acc


def evaluate(t: Tables, terms: list[tuple[int, tuple[int, ...]]], assignment: dict[int, int]) -> int:
    """Value of a sum of coefficient-times-word terms under `assignment`."""
    total = 0
    for coeff, word in terms:
        value = assignment[word[0]]
        for v in word[1:]:
            value = t.mul[value][assignment[v]]
        total = t.add[total][_multiple(t, coeff, value)]
    return total


def least_counterexample(t: Tables, terms: list[tuple[int, tuple[int, ...]]]) -> dict[int, int] | None:
    """The first assignment, in lexicographic order over the sorted variables,
    on which the terms do not vanish; None if they vanish on all."""
    variables = sorted({v for _, word in terms for v in word})
    for values in itertools.product(range(t.order), repeat=len(variables)):
        assignment = dict(zip(variables, values))
        if evaluate(t, terms, assignment):
            return assignment
    return None


def parse_assignment(text: str) -> dict[int, int]:
    """Read 'x=1 y=0 z=3 x4=2' as {1: 1, 2: 0, 3: 3, 4: 2}."""
    named = {"x": 1, "y": 2, "z": 3}
    out = {}
    for item in text.split():
        name, value = item.split("=")
        out[named[name] if name in named else int(name[1:])] = int(value)
    return out
