"""Finite abelian-group helpers shared by canonicalization and enumeration.

Groups show up in two guises here: as the additive structure of an existing
ring (given by its addition table) and as the standard model of an invariant
type, which lays out Z_{m1} x ... x Z_{mk} in mixed-radix index order with
the first factor most significant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, Sequence

Table = tuple[tuple[int, ...], ...]


def prime_factors(n: int) -> list[int]:
    """Distinct prime divisors of n, ascending."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def additive_orders(add: Sequence[Sequence[int]]) -> list[int]:
    """Order of each element in the group described by `add` (index 0 is zero)."""
    n = len(add)
    orders = []
    for x in range(n):
        cur = x
        k = 1
        while cur != 0:
            cur = add[cur][x]
            k += 1
        orders.append(k)
    return orders


def generators(add: Sequence[Sequence[int]]) -> list[int]:
    """A generating set of the group, chosen greedily in ascending index order.

    x is kept when it lies outside the span of the elements kept before it,
    and the span is then closed under +x.  So the result is ascending, each
    generator lies outside the span of the ones before it, and every element
    is a sum of the generators at or below it.  The trivial group has none.

    Only table entries are read, and every step of the inner loop but the
    last for each x marks a new element, so this stops after O(n^2) lookups
    on any n x n table, group or not.  Every element it marks is a sum,
    bracketed as the lookups ran, of the generators kept up to that point;
    `rings._check_axioms` relies on this before it knows that + is
    associative.
    """
    inside = [False] * len(add)
    inside[0] = True
    span = [0]
    gens = []
    for x in range(len(add)):
        if inside[x]:
            continue
        gens.append(x)
        # The span H is a subgroup, so H + mx is H itself or disjoint from it;
        # its first element is mx, since span[0] is zero.  Outside a group a
        # coset can meet H or repeat itself, and only new elements join H.
        coset = span
        while True:
            coset = [add[s][x] for s in coset]
            if inside[coset[0]]:
                break
            for s in coset:
                if not inside[s]:
                    inside[s] = True
                    span.append(s)
    return gens


def _scalar(add: Sequence[Sequence[int]], c: int, x: int) -> int:
    acc = 0
    for _ in range(c):
        acc = add[acc][x]
    return acc


def additive_type(add: Sequence[Sequence[int]]) -> tuple[int, ...]:
    """Invariant cyclic decomposition: prime-power orders, sorted descending.

    Works from the subgroup sizes |{x : p^i x = 0}|, which determine the
    number of cyclic factors of each order p^i.
    """
    n = len(add)
    typ: list[int] = []
    for p in prime_factors(n):
        pmul = [_scalar(add, p, x) for x in range(n)]
        sizes = [1]
        action = list(range(n))
        while True:
            action = [pmul[v] for v in action]
            killed = sum(1 for x in range(n) if action[x] == 0)
            if killed == sizes[-1]:
                break
            sizes.append(killed)
        ranks = []
        for i in range(1, len(sizes)):
            q, r = sizes[i] // sizes[i - 1], 0
            while q > 1:
                q //= p
                r += 1
            ranks.append(r)
        for i, r in enumerate(ranks):
            exact = r - (ranks[i + 1] if i + 1 < len(ranks) else 0)
            typ.extend([p ** (i + 1)] * exact)
    typ.sort(reverse=True)
    return tuple(typ)


def iter_basis_perms(add: Sequence[Sequence[int]], typ: tuple[int, ...]) -> Iterator[list[int]]:
    """Yield one index permutation per ordered decomposition basis matching `typ`.

    A yielded permutation maps the standard mixed-radix index of a coordinate
    tuple to the group element carrying it; the set of all of them is a torsor
    under the automorphism group.  A certificate takes only the first basis
    and reaches the rest through `automorphism_perms`; no isomorphism search
    iterates over this generator.  Generators are tried in ascending index
    order within each cyclic order.
    """
    if not typ:
        yield [0]
        return
    orders = additive_orders(add)
    pools = {m: [x for x in range(len(add)) if orders[x] == m] for m in set(typ)}
    multiples: dict[int, list[int]] = {}

    def mults(b: int, m: int) -> list[int]:
        cached = multiples.get(b)
        if cached is None:
            cached = [0]
            cur = 0
            for _ in range(m - 1):
                cur = add[cur][b]
                cached.append(cur)
            multiples[b] = cached
        return cached

    def rec(i: int, sums: list[int]) -> Iterator[list[int]]:
        if i == len(typ):
            yield sums
            return
        m = typ[i]
        for b in pools[m]:
            new = [add[s][t] for s in sums for t in mults(b, m)]
            if len(set(new)) == len(new):
                yield from rec(i + 1, new)

    yield from rec(0, [0])


@dataclass(frozen=True)
class StdGroup:
    """Standard model of an abelian type with precomputed lookup tables."""

    typ: tuple[int, ...]
    order: int
    add: Table
    digits: tuple[tuple[int, ...], ...]
    gens: tuple[int, ...]
    smul: Table  # smul[c][x] = c*x for 0 <= c <= max(typ)

    def annihilated_by(self, d: int) -> tuple[int, ...]:
        return tuple(x for x in range(self.order) if self.smul[d][x] == 0)


@lru_cache(maxsize=None)
def std_group(typ: tuple[int, ...]) -> StdGroup:
    """Build (and memoize) the standard group for an abelian type."""
    import numpy as np

    order, k = math.prod(typ), len(typ)
    # Mixed radix, first factor most significant: x = digits(x) @ weights.
    radix = np.array(typ, dtype=np.int64)
    weights = np.array([math.prod(typ[i + 1:]) for i in range(k)], dtype=np.int64)
    digits = np.indices(typ).reshape(k, order).T
    add = (digits[:, None, :] + digits[None, :, :]) % radix @ weights
    top = max(typ) if typ else 0
    smul = np.arange(top + 1)[:, None, None] * digits % radix @ weights

    def tuples(table) -> Table:
        return tuple(map(tuple, table.tolist()))

    return StdGroup(typ, order, tuples(add), tuples(digits), tuple(weights.tolist()), tuples(smul))


@lru_cache(maxsize=None)
def std_arrays(typ: tuple[int, ...]):
    """The standard group's add, smul and digit tables as read-only int32
    arrays; the digits have shape (order, len(typ))."""
    import numpy as np

    group = std_group(typ)
    arrays = tuple(np.array(t, dtype=np.int32) for t in (group.add, group.smul, group.digits))
    for array in arrays:
        array.flags.writeable = False
    return arrays


@lru_cache(maxsize=None)
def automorphism_count(typ: tuple[int, ...]) -> int:
    """|Aut| of the standard group of `typ`, in closed form.

    Per prime p with exponents e_1 <= ... <= e_k, Hillar & Rhea
    ("Automorphisms of finite abelian groups", arXiv:math/0605185, Thm 4.1)
    give prod_j (p^d_j - p^(j-1)) * p^(e_j (k - d_j)) * p^((e_j - 1)(k - c_j + 1)),
    with d_j the largest and c_j the smallest (1-based) index whose exponent
    equals e_j.  The group is the product of its primary parts.
    """
    total = 1
    for p in prime_factors(math.prod(typ)):
        exps = []
        for m in typ:
            if m % p == 0:
                e = 0
                while m > 1:
                    m //= p
                    e += 1
                exps.append(e)
        exps.sort()
        k = len(exps)
        for j, e in enumerate(exps, start=1):
            c = exps.index(e) + 1
            d = c + exps.count(e) - 1
            total *= (p**d - p ** (j - 1)) * p ** (e * (k - d)) * p ** ((e - 1) * (k - c + 1))
    return total


@lru_cache(maxsize=None)
def automorphism_perms(typ: tuple[int, ...]):
    """All automorphisms of the standard group, one index permutation per row.

    A read-only uint8 array of shape (|Aut|, order), rows in the order
    `iter_basis_perms` yields them.
    """
    import numpy as np

    group = std_group(typ)
    perms = np.array(list(iter_basis_perms(group.add, typ)), dtype=np.uint8)
    perms.flags.writeable = False
    return perms


@lru_cache(maxsize=None)
def automorphism_inverses(typ: tuple[int, ...]):
    """Row i is the inverse permutation of row i of `automorphism_perms(typ)`."""
    import numpy as np

    inverses = np.argsort(automorphism_perms(typ), axis=1).astype(np.uint8)
    inverses.flags.writeable = False
    return inverses
