"""Derived rings and standard groups against per-cell reference loops.

The direct sum, matrix ring, quotient, generated subring and standard group
builders fill their tables with numpy gathers.  The loops below compute the
same tables one cell at a time; they are compared on seeded random inputs.
"""

import itertools
import math
import random

import pytest

from finring import addgroup, atlas, rings, structure


def _pairs_loop(r, s):
    so = s.order
    pairs = [(i // so, i % so) for i in range(r.order * so)]
    add = tuple(
        tuple(r.add[a1][a2] * so + s.add[b1][b2] for (a2, b2) in pairs) for (a1, b1) in pairs
    )
    mul = tuple(
        tuple(r.mul[a1][a2] * so + s.mul[b1][b2] for (a2, b2) in pairs) for (a1, b1) in pairs
    )
    names = tuple(f"({r.element_name(a)},{s.element_name(b)})" for a, b in pairs)
    return add, mul, names


def _matrix_loop(r, k):
    ro, cells = r.order, k * k

    def entries(i):
        return [i // ro ** c % ro for c in range(cells)]

    def index(es):
        return sum(e * ro ** c for c, e in enumerate(es))

    mats = [entries(i) for i in range(ro ** cells)]
    add = tuple(tuple(index([r.add[x][y] for x, y in zip(a, b)]) for b in mats) for a in mats)
    mul = []
    for a in mats:
        row = []
        for b in mats:
            prod = []
            for i in range(k):
                for j in range(k):
                    acc = 0
                    for l in range(k):
                        acc = r.add[acc][r.mul[a[i * k + l]][b[l * k + j]]]
                    prod.append(acc)
            row.append(index(prod))
        mul.append(tuple(row))
    return add, tuple(mul)


def _restricted_loop(ring, elements, image):
    add = tuple(tuple(image[ring.add[a][b]] for b in elements) for a in elements)
    mul = tuple(tuple(image[ring.mul[a][b]] for b in elements) for a in elements)
    return add, mul


def _quotient_loop(ring, members):
    coset_rep = [min(ring.add[x][m] for m in members) for x in range(ring.order)]
    reps = sorted(set(coset_rep))
    index_of = {rep: i for i, rep in enumerate(reps)}
    names = tuple(f"[{ring.element_name(rep)}]" for rep in reps)
    image = {x: index_of[coset_rep[x]] for x in range(ring.order)}
    return (*_restricted_loop(ring, reps, image), names)


def _closure_loop(ring, gens):
    members = {0} | set(gens)
    while True:
        new = {c for a in members for b in members for c in (ring.add[a][b], ring.mul[a][b])}
        new |= {ring.add[a].index(0) for a in members}
        if new <= members:
            break
        members |= new
    emb = tuple(sorted(members))
    names = tuple(ring.element_name(x) for x in emb)
    return (*_restricted_loop(ring, emb, {x: i for i, x in enumerate(emb)}), names, emb)


def _std_group_loop(typ):
    digits = tuple(itertools.product(*(range(m) for m in typ)))
    index_of = {d: i for i, d in enumerate(digits)}
    k = len(typ)

    def reduce(d):
        return index_of[tuple(d[i] % typ[i] for i in range(k))]

    add = tuple(tuple(reduce([a[i] + b[i] for i in range(k)]) for b in digits) for a in digits)
    gens = tuple(index_of[tuple(int(j == i) for j in range(k))] for i in range(k))
    top = max(typ) if typ else 0
    smul = tuple(
        tuple(reduce([c * d[i] for i in range(k)]) for d in digits) for c in range(top + 1)
    )
    return addgroup.StdGroup(typ, math.prod(typ), add, digits, gens, smul)


@pytest.fixture(scope="module")
def sample_rings(atlas_by_order):
    """Every atlas ring of orders 1..9 and labeled family rings up to order 16."""
    families = [rings.zn(n) for n in (1, 6, 12, 16)]
    families += [rings.gf(2, 2), rings.gf(2, 3), rings.gf(3, 2), rings.gf(2, 4), rings.n0(2, 2)]
    pair_rings = (rings.np2, rings.npp, rings.ap, rings.ap0, rings.zpx_mod_x2)
    families += [build(p) for build in pair_rings for p in (2, 3)]
    families.append(rings.matrix_ring(rings.zn(2), 2))
    return [e.ring for n in sorted(atlas_by_order) for e in atlas_by_order[n]] + families


def test_direct_sums_match_the_loop(sample_rings):
    rng = random.Random(1)
    checked = 0
    while checked < 120:
        r, s = rng.choice(sample_rings), rng.choice(sample_rings)
        if r.order * s.order > 256:
            continue
        ring = rings.direct_sum(r, s)
        assert (ring.add, ring.mul, ring.element_names) == _pairs_loop(r, s)
        assert ring.label == (f"{r.label}+{s.label}" if r.label and s.label else None)
        checked += 1


def test_matrix_rings_match_the_loop(sample_rings):
    rng = random.Random(2)
    small = [r for r in sample_rings if 1 < r.order <= 3]
    fours = [r for r in sample_rings if r.order == 4]
    cases = [(r, 2) for r in small + rng.sample(fours, 2)]
    cases += [(r, 1) for r in rng.sample(sample_rings, 20)]
    for r, k in cases:
        ring = rings.matrix_ring(r, k)
        assert (ring.add, ring.mul) == _matrix_loop(r, k)
        assert ring.label == (f"M{k}({r.label})" if r.label else None)


def test_quotients_by_every_ideal_match_the_loop(sample_rings):
    rng = random.Random(3)
    for ring in rng.sample(sample_rings, 40):
        for ideal in structure.ideals(ring):
            quotient = rings.quotient(ring, ideal)
            assert (quotient.add, quotient.mul, quotient.element_names) == \
                _quotient_loop(ring, ideal.members)


def test_generated_subrings_match_the_loop(sample_rings):
    rng = random.Random(4)
    for _ in range(300):
        ring = rng.choice(sample_rings)
        gens = rng.sample(range(ring.order), rng.randint(0, min(3, ring.order)))
        sub, emb = rings.subring_generated(ring, gens)
        assert (sub.add, sub.mul, sub.element_names, emb) == _closure_loop(ring, gens)


def test_std_groups_match_the_loop():
    types = [typ for n in range(1, 17) for typ in atlas.abelian_group_types(n)]
    types += [(8, 4), (2,) * 6, (9, 3), (3, 3, 3), (7, 7), (5, 5, 5), (2,) * 8, (3,) * 5, (16, 16)]
    for typ in types:
        assert addgroup.std_group.__wrapped__(typ) == _std_group_loop(typ)
