"""Finite abelian-group helpers shared by canonicalization and enumeration.

Groups show up in two guises here: as the additive structure of an existing
ring (given by its addition table) and as the standard model of an invariant
type, which lays out Z_{m1} x ... x Z_{mk} in mixed-radix index order with
the first factor most significant.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator, Sequence

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


def multiples(add: Sequence[Sequence[int]], x: int) -> list[int]:
    """The multiples 0, x, 2x, ... of x below its order, in the abelian group
    described by `add` (index 0 is zero).  Their count is the order of x, and
    c*x is m[c % len(m)] for any integer c."""
    row = add[x]
    m = [0]
    cur = x
    while cur != 0:
        m.append(cur)
        cur = row[cur]
    return m


def additive_orders(add: Sequence[Sequence[int]]) -> list[int]:
    """Order of each element in the group described by `add` (index 0 is zero)."""
    return [len(multiples(add, x)) for x in range(len(add))]


def span(add: Sequence[Sequence[int]], seeds: Iterable[int]) -> tuple[list[int], list[int]]:
    """The subgroup generated by `seeds`, reached greedily in the order given.

    A seed x is kept when it lies outside the span of the seeds kept before
    it, and the span is then closed under +x.  Returns the kept seeds, in order,
    and the members of the span, zero first.  So each kept seed lies outside
    the span of the ones before it, and every member is a sum of the seeds
    kept up to the point it joined.

    Only table entries are read, and every step of the inner loop marks a
    new element, so this stops after O(n^2 + len(seeds)) lookups on any
    n x n table, group or not.  Every element it marks is a sum, bracketed
    as the lookups ran, of the seeds kept up to that point;
    `rings._check_axioms` relies on this before it knows that + is
    associative.
    """
    inside = [False] * len(add)
    inside[0] = True
    members = [0]
    kept = []
    for x in seeds:
        if inside[x]:
            continue
        kept.append(x)
        # The span H is a subgroup, so H + mx is H itself or disjoint from it;
        # its first element is mx, since members[0] is zero, so mx alone
        # decides.  Outside a group a coset can meet H or repeat itself, and
        # only new elements join H.
        coset = members
        while not inside[add[coset[0]][x]]:
            coset = [add[s][x] for s in coset]
            for s in coset:
                if not inside[s]:
                    inside[s] = True
                    members.append(s)
    return kept, members


def generators(add: Sequence[Sequence[int]]) -> list[int]:
    """A generating set of the group, chosen greedily in ascending index order:
    the seeds `span` keeps from every element.  So every element is a sum of
    the generators at or below it, and `span`'s guarantees on tables that are
    not groups hold here too.  The trivial group has none.
    """
    return span(add, range(len(add)))[0]


def additive_type(add: Sequence[Sequence[int]]) -> tuple[int, ...]:
    """Invariant cyclic decomposition: prime-power orders, sorted descending.

    Read off the element orders: in the p-part, the elements whose order
    divides p^i number p^(r_1 + ... + r_i), where r_i counts the cyclic
    factors of order at least p^i, so r_i - r_(i+1) factors have order p^i.
    """
    orders = Counter(additive_orders(add))
    typ: list[int] = []
    for p in prime_factors(len(add)):
        ranks = []
        killed, size, q = 1, 1, p
        while orders[q]:
            killed += orders[q]
            r = 0
            while size < killed:
                size *= p
                r += 1
            ranks.append(r)
            q *= p
        for i, (r, above) in enumerate(zip(ranks, ranks[1:] + [0]), start=1):
            typ.extend([p**i] * (r - above))
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
    mults = [multiples(add, x) for x in range(len(add))]
    pools = {m: [x for x in range(len(add)) if len(mults[x]) == m] for m in set(typ)}

    def rec(i: int, sums: list[int]) -> Iterator[list[int]]:
        if i == len(typ):
            yield sums
            return
        m = typ[i]
        for b in pools[m]:
            new = [add[s][t] for s in sums for t in mults[b]]
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
def axpy_arrays(typ: tuple[int, ...]):
    """The standard group's flat table of a + d*v and its digit columns, as
    read-only uint8 arrays.

    With n the order and m = max(typ), entry (a*m + d)*n + v of the table
    is a + d*v for every digit d < m, and row t of the (len(typ), n) digit
    array holds digit t of each element.  So a sum of d_t * v_t is one read
    of the table per term (`combination`)."""
    import numpy as np

    add, smul, digits = std_arrays(typ)
    n, m = len(add), max(typ)
    table = add[np.arange(n)[:, None, None], smul[None, :m, :]].astype(np.uint8).ravel()
    arrays = table, np.ascontiguousarray(digits.T, dtype=np.uint8)
    for array in arrays:
        array.flags.writeable = False
    return arrays


def combination(typ: tuple[int, ...], x, images):
    """sum_t x_t * images[t] on the standard group of `typ`, with x_t digit t
    of the element x: the image of x under the additive map that sends
    generator t to images[t].  Elementwise over arrays of elements that
    broadcast together, as uint8; each term is one read of the
    `axpy_arrays` table, with an int32 index."""
    import numpy as np

    table, digits = axpy_arrays(typ)
    n, m = digits.shape[1], max(typ)
    acc = None
    for digit, image in zip(digits, images):
        if acc is None:
            idx = np.multiply(digit.take(x), n, dtype=np.int32) + image
        else:
            idx = np.multiply(acc, m, dtype=np.int32)
            idx += digit.take(x)
            idx *= n
            idx += image
        acc = table.take(idx)
    return acc


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
