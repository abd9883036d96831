"""Axiom validation against the per-triple reference it replaced.

`_reference_violation` is the validator `make_ring` used before numpy took
every order: a pure-Python loop over all triples below order 32, which
reports the least (x, y, z) and then the first failing law there, and a
chunked numpy scan from 32 up, which reports the first failing law in a chunk
and then its least triple.  The axiom and witness are printed by the CLI, so
the new path must name the same ones on valid and corrupted tables alike.

`make_ring` first checks the cubic laws on the additive generators only and
runs the full scan, `rings._scan_axioms`, when that check fails.  The oracle
tests hold the two to the same verdict.  `_reference_as_table` is the
per-entry loop that checked the table entries before they went to numpy.
"""

import functools
import itertools
import random
import time
import tracemalloc
from unittest import mock

import numpy as np
import pytest

from finring import addgroup, atlas, cli, rings
from finring.errors import AxiomViolation, FinringError, FormatError

from test_certificates import relabel
from test_golden import FAMILY_GRID_SHA256


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
        for entry in atlas.enumerate_rings(n):
            ring = entry.ring
            assert _reference_violation(ring.add, ring.mul) is None
            assert _violation(ring.add, ring.mul) is None
            assert _verdicts(ring.add, ring.mul) == (True, None)


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


# --- the check on additive generators ----------------------------------------


def _arrays(add, mul):
    n = len(add)
    (add_t, a), (_, m) = rings._as_table(add, n, "add"), rings._as_table(mul, n, "mul")
    return add_t, a, m


def _passes_on_generators(add_t, a, m):
    """Whether `_check_axioms` accepts the tables, as a stack of one, without
    the full scan."""
    with mock.patch.object(rings, "_scan_axioms") as full_scan:
        passed = rings._check_axioms((add_t,), a[None], m[None])
    assert not full_scan.called
    return passed


def _verdicts(add, mul):
    """(generator check, full scan) on one pair of tables: True or False, and
    None or the (axiom, witness) the full scan raises."""
    add_t, a, m = _arrays(add, mul)
    try:
        rings._scan_axioms(a, m)
    except AxiomViolation as exc:
        full = exc.axiom, exc.witness
    else:
        full = None
    return _passes_on_generators(add_t, a, m), full


def _direct_power(ring, k):
    return functools.reduce(rings.direct_sum, [ring] * k)


# Rings of orders 4..256, with fewer corrupted copies at the largest orders,
# where one full scan takes about a tenth of a second.
ORACLE_RINGS = [
    (lambda: rings.zn(4), 20), (lambda: rings.gf(2, 2), 20), (lambda: rings.ap(2), 20),
    (lambda: rings.npp(2), 20), (lambda: rings.gf(2, 3), 20), (lambda: rings.zn(12), 20),
    (lambda: rings.matrix_ring(rings.zn(2), 2), 20), (lambda: rings.gf(3, 2), 20),
    (lambda: rings.zpx_mod_x2(5), 20), (lambda: rings.zn(27), 12), (lambda: rings.gf(2, 5), 12),
    (lambda: rings.gf(7, 2), 8), (lambda: _direct_power(rings.zn(2), 6), 8),
    (lambda: rings.matrix_ring(rings.zn(3), 2), 6), (lambda: rings.gf(2, 7), 4),
    (lambda: rings.matrix_ring(rings.zn(4), 2), 2), (lambda: rings.gf(2, 8), 2),
]
ORACLE_KINDS = ("mul-cell", "mul-row-swap", "add-symmetric")


@pytest.mark.parametrize("build, count", ORACLE_RINGS)
def test_generator_check_agrees_with_the_full_scan(build, count):
    ring = build()
    rnd = random.Random(ring.order * 7 + count)
    seen = 0
    for kind, add, mul in _corruptions(ring, rnd, count):
        if kind not in ORACLE_KINDS:
            continue
        on_generators, full = _verdicts(add, mul)
        assert on_generators == (full is None), (ring.label, kind)
        seen += full is not None
        assert _violation(add, mul) == full, (ring.label, kind)
    assert seen, ring.label


def _stack(pairs):
    """The add tables as rows and the (b, n, n) add and mul stacks."""
    arrays = [_arrays(add, mul) for add, mul in pairs]
    return [t[0] for t in arrays], np.stack([t[1] for t in arrays]), np.stack([t[2] for t in arrays])


@pytest.mark.parametrize("n", [1, 2, 4, 8, 9, 12])
def test_stacked_check_stops_at_the_first_table_that_is_no_ring(n):
    # The check is all or nothing: a stack of rings passes, and one table
    # that is no ring, at a seeded position, fails the whole stack.  The
    # rings of order n have from 0 to 3 generators, so the stack pads them.
    rnd = random.Random(n)
    valid = [(e.ring.add, e.ring.mul) for e in atlas.enumerate_rings(n)]
    adds, a, m = _stack(valid)
    assert rings._check_axioms(adds, a, m) is True
    faulty = [(add, mul) for ring in _base_rings(n) for _, add, mul in _corruptions(ring, rnd, 3)
              if _violation(add, mul)]
    assert faulty or n == 1
    for add, mul in faulty:
        pos = rnd.randrange(len(valid) + 1)
        adds, a, m = _stack(valid[:pos] + [(add, mul)] + valid[pos:])
        assert rings._check_axioms(adds, a, m) is False


def _magma_closure(add, elements):
    """Every bracketed sum of the elements and 0."""
    closure = {0, *elements}
    while True:
        sums = {add[x][y] for x in closure for y in closure} - closure
        if not sums:
            return closure
        closure |= sums


@pytest.mark.parametrize("build", [lambda: rings.zn(8), lambda: rings.gf(2, 3),
                                   lambda: rings.matrix_ring(rings.zn(2), 2), lambda: rings.gf(3, 2),
                                   lambda: rings.zn(27), lambda: rings.gf(2, 5)])
def test_generators_mark_only_sums_of_earlier_generators(build):
    # A symmetric change of an add entry keeps + commutative, but + is then no
    # longer associative: `generators` runs on a magma.  Every element is
    # still a sum of the generators at or below it, which is what makes the
    # generators a generating set for Light's associativity test.
    ring = build()
    rnd = random.Random(ring.order)
    for kind, add, _ in _corruptions(ring, rnd, 12):
        if kind != "add-symmetric":
            continue
        gens = addgroup.generators(add)
        assert gens == sorted(set(gens))
        bounds = gens[1:] + [ring.order]
        for i, bound in enumerate(bounds):
            closure = _magma_closure(add, gens[:i + 1])
            assert set(range(bound)) <= closure, (ring.label, gens)


def test_generators_stop_on_any_table():
    # x + y = max(x, y), x + x = 0 and 0 + x = x: commutative with a zero and
    # inverses, but no group.  Every element from 1 up is kept as a generator,
    # more than a group of order 256 can need, so the check on generators
    # hands the table to the full scan before it builds any n x n x |S| array.
    n = 256
    add = [[max(x, y) if x != y else 0 for y in range(n)] for x in range(n)]
    for x in range(n):
        add[0][x] = add[x][0] = x
    mul = [[0] * n for _ in range(n)]
    start = time.perf_counter()
    assert addgroup.generators(add) == list(range(1, n))
    assert time.perf_counter() - start < 2
    add_t, a, m = _arrays(add, mul)
    tracemalloc.start()
    try:
        assert not _passes_on_generators(add_t, a, m)
        assert tracemalloc.get_traced_memory()[1] < 1 << 20
    finally:
        tracemalloc.stop()
    assert _verdicts(add, mul) == (False, ("add-associative", (1, 2, 2)))
    assert _violation(add, mul) == _reference_violation(add, mul)


def _symmetric_group(k):
    """S_k with the zero product; + is composition, so index 0, the identity
    permutation, is its zero.  Every cubic law holds."""
    perms = list(itertools.permutations(range(k)))
    index = {p: i for i, p in enumerate(perms)}
    add = [[index[tuple(p[q[i]] for i in range(k))] for q in perms] for p in perms]
    return add, [[0] * len(perms) for _ in perms]


def _dihedral(k):
    """The dihedral group of order 2k, as rotations i and reflections k + i,
    with the zero product.  Its greedy generators are 1 and k, few enough for
    a group of its order, so only commutativity fails."""
    def element(i, j):
        return j * k + i % k

    add = [[element(i1 + (-1) ** j1 * i2, (j1 + j2) % 2) for j2 in range(2) for i2 in range(k)]
           for j1 in range(2) for i1 in range(k)]
    return add, [[0] * (2 * k) for _ in range(2 * k)]


def _moved_zero(ring, shift):
    """The tables of `ring` with element x renamed x + shift mod n: a ring
    whose additive identity is not index 0."""
    n = ring.order

    def table(t):
        return [[(t[(x - shift) % n][(y - shift) % n] + shift) % n for y in range(n)]
                for x in range(n)]

    return table(ring.add), table(ring.mul)


@pytest.mark.parametrize("add, mul", [
    _symmetric_group(3), _symmetric_group(4), _dihedral(4), _dihedral(16),
    _moved_zero(rings.zn(6), 1), _moved_zero(rings.gf(2, 3), 5),
    _moved_zero(rings.matrix_ring(rings.zn(2), 2), 3),
])
def test_tables_whose_only_fault_is_the_zero_or_commutativity(add, mul):
    # Every cubic law holds, so only the zero and commutativity checks tell
    # these tables from rings.
    on_generators, full = _verdicts(add, mul)
    assert full[0] in ("zero-identity", "add-commutative")
    assert not on_generators
    assert _violation(add, mul) == full == _reference_violation(add, mul)


@pytest.mark.parametrize("build", [lambda: rings.matrix_ring(rings.zn(4), 2),
                                   lambda: rings.gf(7, 2),
                                   lambda: _direct_power(rings.zn(2), 6)])
def test_valid_rings_never_reach_the_full_scan(monkeypatch, build):
    def full_scan(a, m):
        raise AssertionError("full scan reached")

    monkeypatch.setattr(rings, "_scan_axioms", full_scan)
    ring = build()
    parsed = rings.parse_ringtab(rings.format_ringtab(ring))
    assert (parsed.add, parsed.mul) == (ring.add, ring.mul)


# --- table entries ---------------------------------------------------------------


def _reference_as_table(raw, n, which):
    """The per-entry check that ran before the entries went to numpy."""
    if len(raw) != n:
        raise AxiomViolation("table-shape", (len(raw), n), f"{which} table must be {n}x{n}")
    rows = []
    for i, row in enumerate(raw):
        row = tuple(row)
        if len(row) != n:
            raise AxiomViolation("table-shape", (i, len(row)), f"{which} row {i} has wrong length")
        for j, v in enumerate(row):
            if not isinstance(v, int) or isinstance(v, bool) or not 0 <= v < n:
                raise AxiomViolation("entry-range", (i, j), f"{which}[{i}][{j}] = {v!r} not in [0, {n})")
        rows.append(row)
    return tuple(rows)


def _outcome(check, raw, n):
    try:
        rows = check(raw, n, "mul")
    except AxiomViolation as exc:
        return exc.axiom, exc.witness, str(exc)
    except TypeError as exc:
        return "TypeError", str(exc)
    return rows


def _bad_tables():
    """(name, n, rows): tables with a bad entry or row somewhere."""
    base = [list(row) for row in rings.zn(4).mul]
    for name, v in [("bool", True), ("float", 1.0), ("numpy int", np.int64(1)),
                    ("huge", 2 ** 70), ("negative", -1), ("equal to n", 4), ("none", None)]:
        for i, j in [(0, 0), (2, 3), (3, 1)]:
            rows = [row[:] for row in base]
            rows[i][j] = v
            yield f"{name} at {(i, j)}", 4, rows
    for short in (0, 2):
        rows = [row[:] for row in base]
        rows[short] = rows[short][:3]
        bad = [row[:] for row in rows]
        bad[1][2] = -1
        yield f"row {short} short, bad entry in row 1", 4, bad
        extra = [row[:] for row in rows]
        extra[1] = extra[1] + [0]
        yield f"row {short} short, row 1 long", 4, extra
    yield "too few rows", 4, base[:3]
    for i in (0, 3):
        rows = [row[:] for row in base]
        rows[1][1] = 1.0
        rows[i] = 7
        yield f"row {i} not iterable, float in row 1", 4, rows
    yield "one empty row", 1, [[]]
    table = rings.gf(2, 4).mul
    yield "bytes rows", 16, [bytes(row) for row in table]
    yield "bytes row out of range", 16, [bytes(row) for row in table[:5]] + [bytes([16] * 16)] + [
        bytes(row) for row in table[6:]]
    yield "bytes row short", 16, [bytes(row) for row in table[:15]] + [bytes(15)]
    yield "order 256", 256, [list(row) for row in rings.gf(2, 8).mul]
    wide = [list(row) for row in rings.gf(2, 8).mul]
    wide[200][17] = 256
    yield "order 256 out of range", 256, wide


@pytest.mark.parametrize("name, n, rows", list(_bad_tables()), ids=lambda v: v if isinstance(v, str) else "")
def test_entry_check_matches_the_per_entry_loop(name, n, rows):
    expected = _outcome(_reference_as_table, rows, n)
    got = _outcome(lambda raw, n, which: rings._as_table(raw, n, which)[0], rows, n)
    assert got == expected
    if isinstance(expected[0], tuple):
        array = rings._as_table(rows, n, "mul")[1]
        assert array.shape == (n, n)
        assert array.tolist() == [list(row) for row in expected]


@pytest.mark.parametrize("token", ["1.5", "x", "1e3", "0x2", "--1", "1/2"])
@pytest.mark.parametrize("section", ["add", "mul"])
def test_non_integer_ringtab_tokens(token, section):
    text = rings.format_ringtab(rings.zn(4))
    lines = text.splitlines()
    row = lines.index(section) + 3
    lines[row] = " ".join([token] + lines[row].split()[1:])
    with pytest.raises(FormatError) as exc:
        rings.parse_ringtab("\n".join(lines) + "\n")
    assert str(exc.value) == f"non-integer entry in {section} table"


def test_ringtab_tokens_read_as_int_reads_them():
    # int() takes a sign, underscores and other Unicode digits; an entry it
    # reads out of range is an entry-range violation, as before.
    text = rings.format_ringtab(rings.zn(4)).replace("\n0 1 2 3\n", "\n+0 0_1 \u0662 3\n", 1)
    parsed = rings.parse_ringtab(text)
    assert (parsed.add, parsed.mul) == (rings.zn(4).add, rings.zn(4).mul)
    text = rings.format_ringtab(rings.zn(4)).replace("\n0 1 2 3\n", "\n1_0 1 2 3\n", 1)
    with pytest.raises(AxiomViolation) as exc:
        rings.parse_ringtab(text)
    assert str(exc.value) == "entry-range fails at (0, 0): add[0][0] = 10 not in [0, 4)"


@pytest.mark.parametrize("dtype", [np.int64, np.int8, np.uint8, np.uint16, bool, np.float64])
@pytest.mark.parametrize("i, j, v", [(None, None, None), (0, 0, 4), (2, 3, -1), (3, 1, 1)])
def test_array_tables_match_the_per_entry_loop(dtype, i, j, v):
    # An integer array is checked in numpy; any other array, and any array
    # that fails, names the same fault as its rows given as lists.
    table = np.array(rings.zn(4).mul)
    if i is not None:
        table[i, j] = v
    array = table.astype(dtype)
    expected = _outcome(_reference_as_table, array.tolist(), 4)
    assert _outcome(lambda raw, n, which: rings._as_table(raw, n, which)[0], array, 4) == expected
    if isinstance(expected[0], tuple):
        rows, checked = rings._as_table(array, 4, "mul")
        assert {type(x) for row in rows for x in row} == {int}
        assert checked.dtype == np.uint8 and checked.tolist() == [list(row) for row in expected]


# --- the ringtab block read ------------------------------------------------------
#
# A text whose tables are both in the written form is read as one block, as an
# atlas of one entry; anything else goes through `rings._ringtab_row`, token by
# token.


def _z4_edit(section, i, new_row):
    lines = rings.format_ringtab(rings.zn(4)).splitlines()
    lines[lines.index(section) + 1 + i] = new_row
    return "\n".join(lines) + "\n"


def _entry_edit(ring, section, i, j, token):
    lines = rings.format_ringtab(ring).splitlines()
    row = lines.index(section) + 1 + i
    tokens = lines[row].split(" ")
    tokens[j] = token
    lines[row] = " ".join(tokens)
    return "\n".join(lines) + "\n"


def _ragged(section, short, long):
    lines = rings.format_ringtab(rings.zn(4)).splitlines()
    at = lines.index(section)
    lines[at + 1], lines[at + 2] = short, long
    return "\n".join(lines) + "\n"


# What each input gave before the block read existed: None for a ring equal
# to Z4, else the exception type and its text.
MALFORMED_RINGTABS = {
    "ragged add rows": (_ragged("add", "0 1 2", "3 1 2 3 0"), AxiomViolation,
                        "table-shape fails at (0, 3): add row 0 has wrong length"),
    "ragged mul rows": (_ragged("mul", "0 0 0", "0 0 1 2 3"), AxiomViolation,
                        "table-shape fails at (0, 3): mul row 0 has wrong length"),
    "20-digit token": (_z4_edit("add", 1, "1 2 3 99999999999999999999"), AxiomViolation,
                       "entry-range fails at (1, 3): add[1][3] = 99999999999999999999 not in [0, 4)"),
    "20-digit token at order 16": (
        _entry_edit(rings.gf(2, 4), "mul", 15, 15, "1" * 20), AxiomViolation,
        "entry-range fails at (15, 15): mul[15][15] = 11111111111111111111 not in [0, 16)"),
    "entry equal to n": (_z4_edit("add", 1, "1 2 3 4"), AxiomViolation,
                         "entry-range fails at (1, 3): add[1][3] = 4 not in [0, 4)"),
    "entry equal to n at order 256": (
        _entry_edit(rings.gf(2, 8), "add", 200, 17, "256"), AxiomViolation,
        "entry-range fails at (200, 17): add[200][17] = 256 not in [0, 256)"),
    "double spaces": (_z4_edit("add", 1, "1 2  3 0"), None, None),
    "tab": (_z4_edit("add", 1, "1\t2 3 0"), None, None),
    "CRLF": (rings.format_ringtab(rings.zn(4)).replace("\n", "\r\n"), None, None),
    # Rows split at "\n" only, so a form feed inside a row is whitespace.
    "form feed": (_z4_edit("add", 1, "1\x0c2 3 0"), None, None),
    "negative token": (_z4_edit("add", 1, "1 2 3 -1"), AxiomViolation,
                       "entry-range fails at (1, 3): add[1][3] = -1 not in [0, 4)"),
    "negative token at order 16": (_entry_edit(rings.gf(2, 4), "mul", 3, 0, "-5"), AxiomViolation,
                                   "entry-range fails at (3, 0): mul[3][0] = -5 not in [0, 16)"),
}


@pytest.mark.parametrize("name", sorted(MALFORMED_RINGTABS))
def test_malformed_ringtabs_read_as_before(name):
    text, error, message = MALFORMED_RINGTABS[name]
    if error is None:
        parsed = rings.parse_ringtab(text)
        assert (parsed.add, parsed.mul, parsed.label) == (rings.zn(4).add, rings.zn(4).mul, "Z4")
    else:
        with pytest.raises(error) as exc:
            rings.parse_ringtab(text)
        assert type(exc.value) is error and str(exc.value) == message


def _token_by_token(text):
    """`text` with a plus sign on every table entry and tabs between them,
    a form that only the per-token reader takes."""
    return rings.parse_ringtab("\n".join(
        "\t".join("+" + v for v in line.split(" ")) if line[:1].isdigit() else line
        for line in text.splitlines()))


def _assert_block_read_matches(monkeypatch, texts):
    rows_read = []
    original = rings._ringtab_row

    def counted(line, header):
        rows_read.append(line)
        return original(line, header)

    monkeypatch.setattr(rings, "_ringtab_row", counted)
    for text in texts:
        block = rings.parse_ringtab(text)
        assert not rows_read
        ring = _token_by_token(text)
        assert len(rows_read) == 2 * ring.order
        rows_read.clear()
        assert block == ring
        assert {type(x) for t in (block.add, block.mul) for row in t for x in row} == {int}


def test_block_read_matches_per_token_read_on_family_tables(monkeypatch):
    _assert_block_read_matches(monkeypatch, (
        rings.format_ringtab(cli._INT_FAMILIES[family][0](*args))
        for family, (grid, _) in sorted(FAMILY_GRID_SHA256.items()) for args in grid))


def test_block_read_matches_per_token_read_on_atlas_blocks(monkeypatch, atlas_dir):
    texts = []
    for n in range(1, 10):
        # The layout that `atlas.load_atlas` reads: three header lines, one
        # certificate line per entry, then the ringtab blocks.
        lines = (atlas_dir / f"atlas-{n}.txt").read_text(encoding="utf-8").splitlines()
        body = "\n".join(lines[3 + int(lines[2].split()[1]):])
        texts.extend(block for block in body.split("\n\n") if block.strip())
    assert len(texts) == 1 + 2 + 2 + 11 + 2 + 4 + 2 + 52 + 11
    _assert_block_read_matches(monkeypatch, texts)


def test_block_read_matches_per_token_read_on_relabelings(monkeypatch):
    rng = random.Random(16)
    built = [rings.matrix_ring(rings.zn(4), 2), rings.gf(7, 2),
             _direct_power(rings.zn(2), 6), _direct_power(rings.zn(2), 5)]
    _assert_block_read_matches(monkeypatch, (
        rings.format_ringtab(relabel(ring, rng)) for ring in built for _ in range(2)))


@pytest.mark.parametrize("build", [lambda: rings.matrix_ring(rings.zn(4), 2),
                                   lambda: rings.gf(7, 2), lambda: rings.zn(1)])
def test_written_ringtabs_never_reach_the_per_token_read(monkeypatch, build):
    def per_token(line, header):
        raise AssertionError("per-token read reached")

    reads = []
    fromstring = np.fromstring

    def counted(*args, **kwargs):
        reads.append(args)
        return fromstring(*args, **kwargs)

    monkeypatch.setattr(rings, "_ringtab_row", per_token)
    monkeypatch.setattr(np, "fromstring", counted)
    ring = build()
    parsed = rings.parse_ringtab(rings.format_ringtab(ring))
    assert (parsed.add, parsed.mul, parsed.label) == (ring.add, ring.mul, ring.label)
    # Both sections in one read, as an atlas of one entry.
    assert len(reads) == 1


# --- the token read against the reader it replaced -------------------------------
#
# The references are `rings._ringtab_row`, `_ringtab_head` and `_read_ringtab`
# as they were when each line was stripped twice and the sections were read by a
# closure that moved a cursor one row at a time: verbatim but for their names.


def _reference_ringtab_row(line: str, header: str) -> list[int]:
    """One row of a ringtab table, read token by token through int()."""
    try:
        return list(map(int, line.split()))
    except ValueError:
        raise FormatError(f"non-integer entry in {header} table") from None


def _reference_ringtab_head(text: str) -> tuple[str | None, int, list[str], int]:
    lines = [
        line.strip()
        for line in text.split("\n")
        if line.strip() and not line.lstrip().startswith("#")
    ]
    if not lines:
        raise FormatError("unexpected end of ringtab input")
    if lines[0] != "ringtab 1":
        raise FormatError("missing 'ringtab 1' magic line")
    if len(lines) < 2:
        raise FormatError("unexpected end of ringtab input")
    if not lines[1].startswith("order "):
        raise FormatError("expected 'order <n>' line")
    try:
        n = int(lines[1].split(None, 1)[1])
    except (IndexError, ValueError):
        raise FormatError("bad order line") from None
    pos = 2
    label = None
    if pos < len(lines) and lines[pos].startswith("label "):
        label = lines[pos].split(None, 1)[1]
        pos += 1
    if pos >= len(lines):
        raise FormatError("unexpected end of ringtab input")
    return label, n, lines, pos


def _reference_read_ringtab(text: str):
    label, n, lines, pos = _reference_ringtab_head(text)

    def read_table(header: str):
        nonlocal pos
        if pos >= len(lines):
            raise FormatError("unexpected end of ringtab input")
        got = lines[pos]
        pos += 1
        if got != header:
            raise FormatError(f"expected '{header}' section, found {got!r}")
        table = []
        for _ in range(n):
            if pos >= len(lines):
                raise FormatError("unexpected end of ringtab input")
            table.append(_reference_ringtab_row(lines[pos], header))
            pos += 1
        return table

    add = read_table("add")
    mul = read_table("mul")
    if pos != len(lines):
        raise FormatError(f"trailing content after mul table: {lines[pos]!r}")
    return label, add, mul


def _reference_parse_ringtab(text):
    label, add, mul = _reference_read_ringtab(text)
    return rings.make_ring(add, mul, label=label)


def _read_outcome(read, text):
    """What `read` makes of `text`: its value, or the exception type and text."""
    try:
        return read(text)
    except FinringError as exc:
        return type(exc), str(exc)


# Characters a mutation inserts: digits, whitespace that str.strip and
# str.split take (only "\n" ends a line), the signs and underscore that int()
# reads, the comment mark, a letter and a non-ASCII digit that int() reads.
_MUTATION_ALPHABET = "0123456789 \t\x0c\r\n_+-#x\u0662"


def _mutated(text, rng):
    """`text` after one to three character inserts or deletes, line drops or
    line duplicates."""
    for _ in range(rng.randint(1, 3)):
        kind = rng.randrange(4)
        i = rng.randrange(len(text) + 1)
        lines = text.split("\n")
        j = rng.randrange(len(lines))
        if kind == 0:
            text = text[:i] + rng.choice(_MUTATION_ALPHABET) + text[i:]
        elif kind == 1:
            text = text[:i] + text[i + 1:]
        else:
            lines[j:j + 1] = [] if kind == 2 else [lines[j], lines[j]]
            text = "\n".join(lines)
    return text


def test_seeded_ringtab_mutations_read_as_before():
    seeds = [rings.format_ringtab(ring) for ring in (
        rings.zn(4), rings.gf(2, 2), rings.zn(1), rings.zn(3), rings.matrix_ring(rings.zn(2), 2))]
    # Heads of orders no ring has, over the 34 table lines of M2(Z2): an order
    # of -20 must read no rows, though a slice that ends 20 lines before the
    # section line would hold 16.
    body = seeds[-1][seeds[-1].index("\nadd\n"):]
    seeds += [f"ringtab 1\norder {n}{body}" for n in (-1, -20, 0, 99999999999)]
    seeds.append("# Z2, laid out by hand\nringtab 1\n\n  order 2\nlabel Z2\n\t# sums\nadd\n"
                 " 0 1\n1 0  \n\nmul\n  # products\n0 0\n\t0 1\n\n# end\n")
    rng = random.Random(24)
    texts = seeds + [_mutated(text, rng) for text in seeds for _ in range(200)]
    parsed = 0
    for text in texts:
        expected = _read_outcome(_reference_parse_ringtab, text)
        got = _read_outcome(rings.parse_ringtab, text)
        if isinstance(expected, rings.FiniteRing):
            parsed += 1
            expected = expected.add, expected.mul, expected.label
            got = (got.add, got.mul, got.label) if isinstance(got, rings.FiniteRing) else got
        assert got == expected, text
        assert _read_outcome(rings._read_ringtab, text) == \
            _read_outcome(_reference_read_ringtab, text), text
    # Both outcomes occur: some texts are rings and most are faults.
    assert 0 < parsed < len(texts) // 2
