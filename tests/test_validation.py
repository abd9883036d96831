"""Axiom validation against the per-triple reference it replaced.

`_reference_violation` is the validator `make_ring` used before numpy took
every order: a pure-Python loop over all triples below order 32, which
reports the least (x, y, z) and then the first failing law there, and a
chunked numpy scan from 32 up, which reports the first failing law in a chunk
and then its least triple.  The axiom and witness are printed by the CLI, so
the new path must name the same ones on valid and corrupted tables alike.
"""

import random

import numpy as np
import pytest

from finring import atlas, rings
from finring.errors import AxiomViolation


def _reference_triples(n, add, mul):
    rng = range(n)
    for x in rng:
        for y in rng:
            for z in rng:
                if add[add[x][y]][z] != add[x][add[y][z]]:
                    return "add-associative", (x, y, z)
                if mul[mul[x][y]][z] != mul[x][mul[y][z]]:
                    return "mul-associative", (x, y, z)
                if mul[x][add[y][z]] != add[mul[x][y]][mul[x][z]]:
                    return "left-distributive", (x, y, z)
                if mul[add[x][y]][z] != add[mul[x][z]][mul[y][z]]:
                    return "right-distributive", (x, y, z)
    return None


def _reference_triples_fast(n, add, mul):
    a = np.array(add, dtype=np.min_scalar_type(n - 1))
    m = np.array(mul, dtype=a.dtype)
    step = max(1, (1 << 22) // (n * n))
    for x0 in range(0, n, step):
        xs = np.arange(x0, min(n, x0 + step))
        for axiom, mismatch in (
            ("add-associative", lambda: a[a[xs], :] != a[xs][:, a]),
            ("mul-associative", lambda: m[m[xs], :] != m[xs][:, m]),
            ("left-distributive",
             lambda: m[xs][:, a] != a[m[xs][:, :, None], m[xs][:, None, :]]),
            ("right-distributive",
             lambda: m[a[xs], :] != a[m[xs][:, None, :], m[None, :, :]]),
        ):
            hits = np.argwhere(mismatch())
            if len(hits):
                i, y, z = (int(v) for v in hits[0])
                return axiom, (x0 + i, y, z)
    return None


def _reference_violation(add, mul):
    """(axiom, witness) of the first violation, or None for a ring."""
    n = len(add)
    for x in range(n):
        if add[0][x] != x:
            return "zero-identity", (x,)
    for x in range(n):
        for y in range(n):
            if add[x][y] != add[y][x]:
                return "add-commutative", (x, y)
        if 0 not in add[x]:
            return "add-inverse", (x,)
    if n >= 32:
        return _reference_triples_fast(n, add, mul)
    return _reference_triples(n, add, mul)


def _violation(add, mul):
    try:
        rings.make_ring(add, mul)
    except AxiomViolation as exc:
        return exc.axiom, exc.witness
    return None


def _corruptions(ring, rnd, count):
    """Seeded one-defect copies (kind, add, mul) of a valid ring's tables."""
    n = ring.order
    for _ in range(count):
        add = [list(row) for row in ring.add]
        mul = [list(row) for row in ring.mul]
        i, j, v = rnd.randrange(n), rnd.randrange(n), rnd.randrange(n)
        cell = [row[:] for row in mul]
        cell[i][j] = v
        yield "mul-cell", add, cell
        sym = [row[:] for row in add]
        sym[i][j] = sym[j][i] = v
        yield "add-symmetric", sym, mul
        asym = [row[:] for row in add]
        asym[i][j] = v
        yield "add-asymmetric", asym, mul
        swapped = [row[:] for row in mul]
        swapped[i], swapped[j] = swapped[j], swapped[i]
        yield "mul-row-swap", add, swapped
        zero = [row[:] for row in add]
        zero[0][j] = zero[j][0] = v
        yield "zero-row", zero, mul
        neg = add[i].index(0)
        no_zero = [row[:] for row in add]
        no_zero[i][neg] = no_zero[neg][i] = v if v else n - 1
        yield "add-row-without-0", no_zero, mul


def _base_rings(n):
    """Z_n, and for n = p^k also GF(n), and the row ring A_p when k = 2."""
    out = [rings.zn(n)]
    p = next((d for d in range(2, n + 1) if n % d == 0), n)
    k = next(k for k in range(n + 1) if p ** k >= n)
    if k > 1 and p ** k == n:
        out.append(rings.gf(p, k))
        if k == 2:
            out.append(rings.ap(p))
    return out


def test_valid_atlas_rings_of_orders_1_to_15():
    for n in range(1, 16):
        for entry in atlas.enumerate_rings(n, cap=15):
            ring = entry.ring
            assert _reference_violation(ring.add, ring.mul) is None
            assert _violation(ring.add, ring.mul) is None


@pytest.mark.parametrize("n", range(1, 32))
def test_seeded_corruptions_below_32(n):
    rnd = random.Random(n)
    for ring in _base_rings(n):
        for kind, add, mul in _corruptions(ring, rnd, 4):
            assert _violation(add, mul) == _reference_violation(add, mul), (ring.label, kind)


@pytest.mark.parametrize(
    "build, count",
    [
        (lambda: rings.zn(32), 3),
        (lambda: rings.gf(7, 2), 3),
        (lambda: rings.gf(2, 6), 2),
        (lambda: rings.matrix_ring(rings.zn(3), 2), 2),
        (lambda: rings.ap(7), 3),
    ],
)
def test_seeded_corruptions_from_32(build, count):
    ring = build()
    rnd = random.Random(ring.order)
    for kind, add, mul in _corruptions(ring, rnd, count):
        assert _violation(add, mul) == _reference_violation(add, mul), (ring.label, kind)


def test_seeded_corruptions_at_256():
    ring = rings.matrix_ring(rings.zn(4), 2)
    rnd = random.Random(256)
    for kind, add, mul in _corruptions(ring, rnd, 1):
        assert _violation(add, mul) == _reference_violation(add, mul), kind


def test_least_triple_order_below_32():
    # Z4 with 1*1 = 2: the least failing triple is (1, 1, 1), where only left
    # distributivity fails; the first failing law, mul-associative, first
    # fails at (1, 1, 2).
    mul = [list(row) for row in rings.zn(4).mul]
    mul[1][1] = 2
    assert _violation(rings.zn(4).add, mul) == ("left-distributive", (1, 1, 1))
