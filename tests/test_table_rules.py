"""Each table rule has one owner; these tests hold it to the copies it replaced.

`addgroup.multiples` replaced four walks along 0, x, 2x, ...: the loop of
`additive_orders`, the `mults` closure of `iter_basis_perms`,
`freealg._scalar_action` and the repeated multiplication by p of
`additive_type`.  The atlas's orbit dedup now reads the orbit of a
scanned table through the certificate's action phi^-1 . T instead of its own
phi . T gather, and the structure-constant scan reads the flat a + d*v table
of `addgroup.axpy_arrays` over uint8 columns instead of add[., smul[., .]]
gathers over an int32 frontier.  The references below are the replaced
copies, verbatim but for their names.
"""

import itertools
import random
import tracemalloc

import numpy as np
import pytest

from finring import addgroup, atlas, rings, structure
from finring import freealg as fa
from finring.atlas import _allowed, _scan_positions, _schedule

from test_certificates import power, relabel

COEFFICIENTS = (-(10**18) - 1, -257, -256, -7, -1, 0, 1, 2, 3, 5, 255, 256, 257, 10**20 + 3)


def reference_additive_orders(add):
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


def reference_scan_tensors(
    typ: tuple[int, ...], first_rows: tuple[tuple[int, ...], ...]
) -> list[tuple[int, ...]]:
    """Associative structure-constant assignments whose first row
    (e0*e0, ..., e0*e_{k-1}) is one of `first_rows`, an (r, k) sequence of
    allowed rows in ascending order, in lexicographic scan order."""
    import numpy as np

    k = len(typ)
    positions = _scan_positions(k)
    index = {pos: t for t, pos in enumerate(positions)}
    plan = _schedule(k, positions)
    allowed = _allowed(typ)
    add_np, smul_np, dig_np = addgroup.std_arrays(typ)

    frontier = np.array(first_rows, dtype=np.int32)
    for t in range(len(positions)):
        if t >= k:
            vals = np.array(allowed[t], dtype=np.int32)
            rows = len(frontier)
            ext = np.empty((rows * len(vals), t + 1), dtype=np.int32)
            ext[:, :t] = np.repeat(frontier, len(vals), axis=0)
            ext[:, t] = np.tile(vals, rows)
            frontier = ext
        for (i, j, kk) in plan[t]:
            p_ij = frontier[:, index[(i, j)]]
            p_jk = frontier[:, index[(j, kk)]]
            left = np.zeros(len(frontier), dtype=np.int32)
            right = np.zeros(len(frontier), dtype=np.int32)
            for tt in range(k):
                left = add_np[left, smul_np[dig_np[p_ij, tt], frontier[:, index[(tt, kk)]]]]
                right = add_np[right, smul_np[dig_np[p_jk, tt], frontier[:, index[(i, tt)]]]]
            frontier = frontier[left == right]
            if len(frontier) == 0:
                return []
    order_cols = [index[(i, j)] for i in range(k) for j in range(k)]
    return list(map(tuple, frontier[:, order_cols].tolist()))


def reference_basis_perms(add, typ):
    if not typ:
        yield [0]
        return
    orders = reference_additive_orders(add)
    pools = {m: [x for x in range(len(add)) if orders[x] == m] for m in set(typ)}
    multiples = {}

    def mults(b, m):
        cached = multiples.get(b)
        if cached is None:
            cached = [0]
            cur = 0
            for _ in range(m - 1):
                cur = add[cur][b]
                cached.append(cur)
            multiples[b] = cached
        return cached

    def rec(i, sums):
        if i == len(typ):
            yield sums
            return
        m = typ[i]
        for b in pools[m]:
            new = [add[s][t] for s in sums for t in mults(b, m)]
            if len(set(new)) == len(new):
                yield from rec(i + 1, new)

    yield from rec(0, [0])


def reference_additive_type(add):
    n = len(add)
    typ = []
    for p in addgroup.prime_factors(n):
        pmul = [0] * n
        for _ in range(p):
            pmul = [add[v][x] for x, v in enumerate(pmul)]
        sizes = [1]
        action = list(range(n))
        while True:
            action = [pmul[v] for v in action]
            killed = action.count(0)
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


def abelian_types_up_to(n_max):
    """Every abelian type of order at most n_max, one partition of each
    prime's exponent per factor."""

    def partitions(e, top):
        if e == 0:
            yield ()
        for k in range(min(e, top), 0, -1):
            for rest in partitions(e - k, k):
                yield (k,) + rest

    types = []
    for n in range(1, n_max + 1):
        parts = []
        for p in addgroup.prime_factors(n):
            e = 0
            while n % p**(e + 1) == 0:
                e += 1
            parts.append([[p**k for k in part] for part in partitions(e, e)])
        types += [tuple(sorted(sum(combo, []), reverse=True)) for combo in itertools.product(*parts)]
    return types


def reference_scalar_action(ring, coeff, x):
    order = 1
    cur = x
    while cur != 0:
        cur = ring.add[cur][x]
        order += 1
    acc = 0
    for _ in range(coeff % order):
        acc = ring.add[acc][x]
    return acc


@pytest.fixture(scope="module")
def sample_rings(atlas_by_order):
    rng = random.Random(14)
    classes = [e.ring for n in range(1, 10) for e in atlas_by_order[n]]
    classes += [e.ring for n in range(10, 16) for e in atlas.enumerate_rings(n)]
    copies = [relabel(ring, rng) for ring in classes if ring.order > 2]
    large = [rings.zn(64), rings.zn(256), rings.gf(2, 6), rings.matrix_ring(rings.zn(4), 2)]
    large += [relabel(ring, rng) for ring in large]
    return classes + copies + large


def test_multiples_match_the_replaced_walks(sample_rings):
    rng = random.Random(15)
    for ring in sample_rings:
        add = ring.add
        orders = reference_additive_orders(add)
        assert addgroup.additive_orders(add) == orders
        for x in range(ring.order):
            m = addgroup.multiples(add, x)
            assert len(m) == orders[x] and m[0] == 0 and len(set(m)) == len(m)
        points = range(ring.order) if ring.order <= 16 else rng.sample(range(ring.order), 16)
        for x in points:
            m = addgroup.multiples(add, x)
            for c in COEFFICIENTS:
                expected = reference_scalar_action(ring, c, x)
                assert m[c % len(m)] == expected, (ring.label, x, c)
                poly = fa.NcPoly({(1,): c})
                assert fa.evaluate(poly, ring, {1: x}) == expected


def test_basis_perms_match_the_mults_closure(sample_rings):
    # GF(64) and M2(Z4) have far too many bases to list, so compare a prefix.
    for ring in sample_rings:
        typ = addgroup.additive_type(ring.add)
        got = itertools.islice(addgroup.iter_basis_perms(ring.add, typ), 200)
        want = itertools.islice(reference_basis_perms(ring.add, typ), 200)
        assert list(got) == list(want), ring.label


def test_both_actions_give_one_orbit_set():
    # phi . T relabels T by phi, and phi^-1 . T by phi^-1; over all of Aut the
    # two sets are equal, which is what the atlas's orbit dedup relies on.
    # Every associative tensor is checked: the scan starts from every
    # allowed first row here.
    for n in (4, 8, 9):
        for typ in atlas.abelian_group_types(n):
            group = addgroup.std_group(typ)
            autos = addgroup.automorphism_perms(typ)
            inv_gens = addgroup.automorphism_inverses(typ)[:, group.gens]
            rows = np.arange(len(autos))[:, None]
            first_rows = tuple(itertools.product(*atlas._allowed(typ)[: len(typ)]))
            for products in atlas._scan_tensors(typ, first_rows):
                table = np.array(rings.from_products(typ, products).mul, dtype=np.uint8)
                cells = table[inv_gens[:, :, None], inv_gens[:, None, :]]
                forward = autos[rows, cells.reshape(len(autos), -1)]
                backward = structure._aut_action(typ, table, slice(None))[:, ::-1]
                assert set(map(tuple, forward.tolist())) == set(map(tuple, backward.tolist()))
                assert tuple(products) in set(map(tuple, backward.tolist()))


def test_additive_type_matches_the_replaced_walk(sample_rings):
    types = abelian_types_up_to(256)
    assert len(types) == len(set(types)) == 516
    for typ in types:
        # Unmemoized, so the 516 standard groups are not kept for the session.
        add = addgroup.std_group.__wrapped__(typ).add
        assert addgroup.additive_type(add) == reference_additive_type(add) == typ
    rng = random.Random(25)
    extra = [rings.gf(2, 4), rings.gf(3, 3), rings.gf(2, 5), rings.gf(7, 2),
             rings.matrix_ring(rings.zn(2), 2), power(rings.zn(2), 6)]
    for ring in sample_rings + [relabel(ring, rng) for ring in extra]:
        assert addgroup.additive_type(ring.add) == reference_additive_type(ring.add), ring.label


def test_axpy_table_and_combination_read_add_of_smul():
    rng = random.Random(26)
    for typ in [(2,), (13,), (3, 2), (4, 2, 2), (7, 7), (16,), (2, 2, 2, 2)]:
        group = addgroup.std_group(typ)
        add, smul, digits = addgroup.std_arrays(typ)
        table, columns = addgroup.axpy_arrays(typ)
        n, m = len(add), max(typ)
        assert table.dtype == columns.dtype == np.uint8
        assert (table.reshape(n, m, n) == add[np.arange(n)[:, None, None], smul[None, :m]]).all()
        assert (columns == digits.T).all()
        images = [rng.randrange(n) for _ in typ]
        expected = []
        for x in range(n):
            acc = 0
            for d, image in zip(group.digits[x], images):
                acc = group.add[acc][group.smul[d][image]]
            expected.append(acc)
        got = addgroup.combination(typ, np.arange(n), [np.full(n, v, np.uint8) for v in images])
        assert got.dtype == np.uint8 and got.tolist() == expected, typ


def test_scan_matches_the_replaced_scan():
    # Every additive type of orders 2-15, and the types of order 25, 49 and
    # 16 the atlas tests scan, from three sets of first rows: the kept rows,
    # their halves as a two-worker build splits them, and every allowed row.
    types = [typ for n in range(2, 16) for typ in atlas.abelian_group_types(n)]
    types += [(5, 5), (7, 7), (8, 2), (4, 4), (4, 2, 2)]
    for typ in types:
        kept = atlas._first_rows(typ)
        row_sets = [kept, kept[0::2], kept[1::2]]
        if typ in ((2, 2), (3, 3)):
            row_sets.append(tuple(itertools.product(*atlas._allowed(typ)[: len(typ)])))
        for rows in row_sets:
            assert atlas._scan_tensors(typ, rows) == reference_scan_tensors(typ, rows), typ
    # The uint8 columns, filtered after each constraint, peak no higher than
    # the int32 frontier did.  Both scans ran above, so every table is cached.
    peaks = []
    for scan in (reference_scan_tensors, atlas._scan_tensors):
        tracemalloc.start()
        scan((2, 2, 2), atlas._first_rows((2, 2, 2)))
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()
    assert peaks[1] <= peaks[0]


@pytest.mark.parametrize("typ", [(3,), (2, 2), (2, 2, 2)])
def test_scan_of_no_first_rows_is_empty(typ):
    assert atlas._scan_tensors(typ, ()) == []
