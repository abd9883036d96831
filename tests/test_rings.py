import math
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finring import addgroup, atlas, rings, structure
from finring.errors import AxiomViolation, FormatError, NotPrime, OrderCapExceeded


def test_zn_basics():
    z9 = rings.zn(9)
    assert z9.order == 9
    assert z9.mul[3][6] == 0
    assert z9.add[4][7] == 2
    assert rings.zn(1).order == 1


def test_prime_fields_match_modular_rings():
    assert structure.ring_isomorphic(rings.zn(2), rings.gf(2, 1)) is not None
    assert structure.ring_isomorphic(rings.gf(3, 1), rings.zn(3)) is not None


def test_zn9_zero_divisors():
    assert structure.zero_divisors(rings.zn(9)) == {3, 6}


def test_make_ring_rejects_broken_add():
    z2 = rings.zn(2)
    bad_add = ((0, 1), (1, 1))  # 1 has no additive inverse
    with pytest.raises(AxiomViolation) as exc:
        rings.make_ring(bad_add, z2.mul)
    assert exc.value.axiom in ("add-inverse", "add-commutative")


def test_make_ring_rejects_nonassociative_mul():
    add = rings.zn(3).add
    mul = [[0, 0, 0], [0, 1, 2], [0, 0, 1]]
    with pytest.raises(AxiomViolation):
        rings.make_ring(add, mul)


def test_make_ring_rejects_out_of_range():
    with pytest.raises(AxiomViolation) as exc:
        rings.make_ring([[0, 1], [1, 5]], [[0, 0], [0, 0]])
    assert exc.value.axiom == "entry-range"


def test_null_ring_all_products_zero():
    n = rings.n0(2, 1)
    assert all(v == 0 for row in n.mul for v in row)
    assert structure.is_nilpotent_ring(n) == 2


def test_gf4_field_facts():
    g = rings.gf(2, 2)
    assert g.order == 4
    assert structure.zero_divisors(g) == set()
    # the multiplicative group is cyclic of order 3: some element has
    # cube equal to 1 and square different from 1
    e = structure.has_identity(g)
    found = False
    for x in range(1, 4):
        sq = g.mul[x][x]
        if sq != x and g.mul[sq][x] == e:
            found = True
    assert found


def test_gf4_matches_matrix_model():
    # companion-matrix copy of the same field inside M2(Z2)
    m = rings.matrix_ring(rings.zn(2), 2)
    e = structure.has_identity(m)
    # companion matrix of the degree-2 modulus: [[0,1],[1,1]]
    companion = next(
        x
        for x in range(m.order)
        if m.mul[x][x] == m.add[x][e] and x not in (0, e)
    )
    sub = rings.subring_generated(m, {e, companion})
    assert sub.ring.order == 4
    assert structure.ring_isomorphic(sub.ring, rings.gf(2, 2)) is not None


def test_gf_requires_prime():
    with pytest.raises(NotPrime):
        rings.gf(4, 1)
    with pytest.raises(NotPrime):
        rings.n0(6, 1)


def test_np2_relations():
    n4 = rings.np2(2)
    assert n4.mul[1][1] == 2  # a*a = 2a
    assert structure.is_nilpotent_ring(rings.np2(2)) == 3
    assert structure.is_nilpotent_ring(rings.np2(3)) == 3


def test_npp_relations():
    n22 = rings.npp(2)
    gen = 2  # (1, 0)
    assert n22.mul[gen][gen] != 0
    assert structure.is_nilpotent_ring(n22) == 3
    assert rings.characteristic(rings.npp(3)) == 3


def test_ap_left_annihilator():
    a2 = rings.ap(2)
    # (0, 1) multiplied by anything is zero
    assert all(a2.mul[1][x] == 0 for x in range(4))
    assert structure.has_identity(a2) is None
    # but (1, 0) is a left identity
    assert all(a2.mul[2][x] == x for x in range(4))


def test_ap_not_isomorphic_to_ap0():
    assert structure.ring_isomorphic(rings.ap(2), rings.ap0(2)) is None
    r0 = rings.ap0(2)
    # (1, 0) is a right identity there
    assert all(r0.mul[x][2] == x for x in range(4))


def test_zpx2_units_and_divisors():
    r = rings.zpx_mod_x2(3)
    assert structure.zero_divisors(r) == {3, 6}  # x and 2x
    assert len(structure.units(r)) == 6
    r2 = rings.zpx_mod_x2(2)
    x = 2  # index of x when p = 2
    assert r2.mul[x][x] == 0


def test_direct_sum_orders_and_identity():
    s = rings.direct_sum(rings.zn(2), rings.zn(3))
    assert s.order == 6
    assert rings.characteristic(s) == 6
    one = rings.zn(1)
    assert structure.ring_isomorphic(rings.direct_sum(rings.zn(4), one), rings.zn(4))


@pytest.mark.parametrize(
    "a,b",
    [(rings.zn(2), rings.zn(3)), (rings.n0(2, 1), rings.zn(4)), (rings.gf(2, 2), rings.n0(3, 1))],
)
def test_direct_sum_commutative_up_to_iso(a, b):
    assert structure.ring_isomorphic(rings.direct_sum(a, b), rings.direct_sum(b, a))


def test_direct_sum_associative_up_to_iso():
    a, b, c = rings.zn(2), rings.zn(2), rings.n0(2, 1)
    left = rings.direct_sum(rings.direct_sum(a, b), c)
    right = rings.direct_sum(a, rings.direct_sum(b, c))
    assert structure.ring_isomorphic(left, right) is not None


def test_direct_sum_cap():
    with pytest.raises(OrderCapExceeded):
        rings.direct_sum(rings.zn(100), rings.zn(3))


def test_matrix_ring_facts():
    m = rings.matrix_ring(rings.zn(2), 2)
    assert m.order == 16
    assert structure.has_identity(m) is not None
    assert structure.ring_isomorphic(rings.matrix_ring(rings.zn(3), 1), rings.zn(3))
    # orthogonal idempotents multiply to zero, so both are zero divisors
    e11, e22 = 1, 8  # cell (0,0) and cell (1,1), little-endian packing
    assert m.mul[e11][e11] == e11 and m.mul[e22][e22] == e22
    assert m.mul[e11][e22] == 0
    divisors = structure.zero_divisors(m)
    assert e11 in divisors and e22 in divisors
    with pytest.raises(OrderCapExceeded):
        rings.matrix_ring(rings.zn(2), 3)


def test_quotient_examples():
    z9 = rings.zn(9)
    q = rings.quotient(z9, [0, 3, 6])
    assert structure.ring_isomorphic(q, rings.zn(3)) is not None
    assert structure.ring_isomorphic(rings.quotient(z9, [0]), z9) is not None
    zx = rings.zpx_mod_x2(3)
    q2 = rings.quotient(zx, [0, 3, 6])
    assert structure.ring_isomorphic(q2, rings.zn(3)) is not None


def test_quotient_rejects_non_ideal():
    from finring.errors import NotAnIdeal

    with pytest.raises(NotAnIdeal):
        rings.quotient(rings.zn(9), [0, 1])
    with pytest.raises(NotAnIdeal):
        rings.quotient(rings.zn(9), [3, 6])  # missing zero


def test_subring_generated():
    sub = rings.subring_generated(rings.zn(4), {2})
    assert structure.ring_isomorphic(sub.ring, rings.n0(2, 1)) is not None
    empty = rings.subring_generated(rings.zn(4), set())
    assert empty.ring.order == 1
    sub9 = rings.subring_generated(rings.zn(9), {3})
    assert structure.ring_isomorphic(sub9.ring, rings.n0(3, 1)) is not None


def test_subring_embedding_preserves_tables():
    for ambient, gens in [
        (rings.zn(12), {2}),
        (rings.matrix_ring(rings.zn(2), 2), {1, 8}),
        (rings.zpx_mod_x2(3), {3}),
    ]:
        sub, emb = rings.subring_generated(ambient, gens)
        for i in range(sub.order):
            for j in range(sub.order):
                assert emb[sub.add[i][j]] == ambient.add[emb[i]][emb[j]]
                assert emb[sub.mul[i][j]] == ambient.mul[emb[i]][emb[j]]


def test_characteristic():
    assert rings.characteristic(rings.zn(9)) == 9
    assert rings.characteristic(rings.direct_sum(rings.zn(2), rings.zn(3))) == 6
    assert rings.characteristic(rings.zn(1)) == 1


@pytest.mark.parametrize("p", [2, 3, 5])
def test_family_orders(p):
    assert rings.n0(p, 1).order == p
    assert rings.n0(p, 2).order == p * p
    for make in (rings.np2, rings.npp, rings.ap, rings.ap0):
        assert make(p).order == p * p


def test_constructors_revalidate():
    for ring in (
        rings.zn(6),
        rings.gf(3, 2),
        rings.np2(3),
        rings.npp(2),
        rings.ap(3),
        rings.direct_sum(rings.zn(2), rings.np2(2)),
    ):
        rebuilt = rings.make_ring(ring.add, ring.mul)
        assert rebuilt.add == ring.add and rebuilt.mul == ring.mul


def test_large_order_uses_fast_validation():
    # 81 elements exercises the vectorized axiom checks
    m = rings.matrix_ring(rings.zn(3), 2)
    assert m.order == 81
    bad_mul = [list(row) for row in m.mul]
    bad_mul[5][7] = (bad_mul[5][7] + 1) % 81
    with pytest.raises(AxiomViolation):
        rings.make_ring(m.add, bad_mul)


def _power(ring, k):
    out = ring
    for _ in range(k - 1):
        out = rings.direct_sum(out, ring)
    return out


def _corrupted(ring, which, cells):
    tables = {"add": [list(r) for r in ring.add], "mul": [list(r) for r in ring.mul]}
    for i, j, v in cells:
        tables[which][i][j] = v
    return tables["add"], tables["mul"]


@pytest.mark.parametrize(
    "build, which, cells, axiom, witness",
    [
        (lambda: rings.zn(32), "mul", [(3, 5, 16)], "mul-associative", (2, 3, 5)),
        (lambda: rings.gf(2, 6), "mul", [(40, 41, 7)], "mul-associative", (2, 20, 41)),
        (lambda: _power(rings.zn(2), 6), "add", [(9, 20, 3), (20, 9, 3)],
         "add-associative", (1, 8, 20)),
        (lambda: rings.matrix_ring(rings.zn(4), 2), "mul", [(200, 100, 1)],
         "mul-associative", (1, 200, 100)),
        (lambda: rings.matrix_ring(rings.zn(4), 2), "add", [(77, 150, 0), (150, 77, 0)],
         "add-associative", (1, 76, 150)),
    ],
    ids=["Z32-mul", "GF64-mul", "Z2^6-add", "M2(Z4)-mul", "M2(Z4)-add"],
)
def test_fast_validation_reports_first_violation(build, which, cells, axiom, witness):
    # Orders 32, 64 and 256 take the vectorized path; the axiom and witness
    # are the ones the int32 tables reported.
    add, mul = _corrupted(build(), which, cells)
    with pytest.raises(AxiomViolation) as info:
        rings.make_ring(add, mul)
    assert (info.value.axiom, info.value.witness) == (axiom, witness)


# --- ringtab format ---


def test_ringtab_round_trip_exact():
    ring = rings.np2(2)
    text = rings.format_ringtab(ring)
    again = rings.parse_ringtab(text)
    assert again.add == ring.add and again.mul == ring.mul and again.label == ring.label
    assert rings.format_ringtab(again) == text


def test_ringtab_golden():
    expected = (
        "ringtab 1\n"
        "order 2\n"
        "label Z2\n"
        "add\n"
        "0 1\n"
        "1 0\n"
        "mul\n"
        "0 0\n"
        "0 1\n"
    )
    assert rings.format_ringtab(rings.zn(2)) == expected


def test_ringtab_comments_and_errors():
    text = "# a comment\nringtab 1\norder 2\nadd\n0 1\n1 0\nmul\n0 0\n0 1\n"
    assert rings.parse_ringtab(text).order == 2
    with pytest.raises(FormatError):
        rings.parse_ringtab("ringtab 2\norder 1\nadd\n0\nmul\n0\n")
    with pytest.raises(FormatError):
        rings.parse_ringtab("ringtab 1\norder 2\nadd\n0 1\nmul\n0 0\n0 0\n")
    with pytest.raises(FormatError):
        rings.parse_ringtab("ringtab 1\norder 1\nadd\nzero\nmul\n0\n")
    # table entries out of range surface as axiom violations, like make_ring
    with pytest.raises(AxiomViolation):
        rings.parse_ringtab("ringtab 1\norder 2\nadd\n0 1\n1 9\nmul\n0 0\n0 0\n")


@settings(max_examples=40, deadline=None)
@given(st.permutations(list(range(1, 6))))
def test_relabeling_zn6_is_isomorphic(perm):
    z6 = rings.zn(6)
    sigma = [0] + list(perm)
    inv = [0] * 6
    for i, v in enumerate(sigma):
        inv[v] = i
    add = [[sigma[z6.add[inv[x]][inv[y]]] for y in range(6)] for x in range(6)]
    mul = [[sigma[z6.mul[inv[x]][inv[y]]] for y in range(6)] for x in range(6)]
    shuffled = rings.make_ring(add, mul)
    assert structure.ring_canonical_certificate(shuffled) == structure.ring_canonical_certificate(z6)


def test_families_check_the_order_cap_before_building(monkeypatch):
    z2 = rings.zn(2)
    monkeypatch.setattr(rings, "make_ring", lambda *a, **k: pytest.fail("table built"))
    for build in (
        lambda: rings.zn(300),
        lambda: rings.n0(2, 9),
        lambda: rings.np2(17),
        lambda: rings.npp(17),
        lambda: rings.ap(17),
        lambda: rings.ap0(17),
        lambda: rings.zpx_mod_x2(17),
        lambda: rings.gf(2, 9),
        lambda: rings.matrix_ring(z2, 3),
    ):
        with pytest.raises(OrderCapExceeded):
            build()


def test_order_cap_messages():
    with pytest.raises(OrderCapExceeded, match=r"^order 300 exceeds the cap of 256$"):
        rings.zn(300)
    with pytest.raises(OrderCapExceeded, match=r"^order 2048 exceeds the cap of 256$"):
        rings.gf(2, 11)
    # Too long to print in decimal: named as a power.  Over 2^16 bits the
    # order is not even computed.
    with pytest.raises(OrderCapExceeded, match=r"^order 2\^20000 exceeds the cap of 256$"):
        rings.gf(2, 20000)
    with pytest.raises(OrderCapExceeded, match=r"^order 2\^1000000 exceeds"):
        rings.gf(2, 10**6)
    with pytest.raises(OrderCapExceeded, match=r"^combined order 300 exceeds"):
        rings.direct_sum(rings.zn(100), rings.zn(3))


def test_nilpotency_index_matches_power_loop(atlas_by_order):
    def oracle(ring):
        # Every k-fold product is a product of k elements; run n + 1 rounds.
        current, power = set(range(ring.order)), 1
        for _ in range(ring.order + 1):
            if current == {0}:
                return power
            current = {ring.mul[a][b] for a in current for b in range(ring.order)}
            power += 1
        return None

    for entries in atlas_by_order.values():
        for entry in entries:
            assert structure.is_nilpotent_ring(entry.ring) == oracle(entry.ring)


def test_prime_test_matches_trial_division():
    def trial(p):
        return p >= 2 and all(p % d for d in range(2, math.isqrt(p) + 1))

    for p in range(-3, 20000):
        try:
            rings._require_prime(p)
            verdict = True
        except NotPrime as exc:
            assert str(exc) == f"{p} is not prime"
            verdict = False
        assert verdict == trial(p), p


def test_prime_test_refuses_pseudoprimes():
    # 561 is a Carmichael number; 3215031751 is a strong pseudoprime to the
    # bases 2, 3, 5 and 7.
    for p in (561, 3215031751):
        with pytest.raises(NotPrime, match=rf"^{p} is not prime$"):
            rings._require_prime(p)
        with pytest.raises(NotPrime):
            rings.npp(p)


def test_large_prime_is_refused_by_the_cap_at_once():
    start = time.perf_counter()
    with pytest.raises(OrderCapExceeded, match=r"^order 100000000000740000000001369 exceeds"):
        rings.npp(10000000000037)
    assert time.perf_counter() - start < 0.01


def test_unprintable_orders_are_cap_errors():
    # str() refuses ints of more than 4300 digits, so such an order is named
    # by its bit length.  From psi_12 up a family checks the cap before it
    # tests primality, so p need not be prime.
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        p = 10**4999 + 7
        cases = [
            (lambda: rings.zn(10**5000), "of 16610 bits"),
            (lambda: rings.zn(2**70000 + 1), "of over 70000 bits"),
            (lambda: rings.n0(p), f"of {p.bit_length()} bits"),
            (lambda: rings.gf(p), f"of {p.bit_length()} bits"),
            (lambda: rings.gf(p, 5), f"of over {5 * (p.bit_length() - 1)} bits"),
        ]
        cases += [(lambda f=f: f(p), f"of {(p * p).bit_length()} bits")
                  for f in (rings.np2, rings.npp, rings.ap, rings.ap0, rings.zpx_mod_x2)]
        for build, name in cases:
            with pytest.raises(OrderCapExceeded) as info:
                build()
            assert str(info.value) == f"order {name} exceeds the cap of 256"
    finally:
        sys.set_int_max_str_digits(limit)


def test_matrix_ring_over_zero_ring(monkeypatch):
    for k in range(1, 5):
        ring = rings.matrix_ring(rings.zn(1), k)
        assert (ring.order, ring.add, ring.mul, ring.label, ring.element_names) == (
            1, ((0,),), ((0,),), f"M{k}(Z1)", None)
    start = time.perf_counter()
    assert rings.matrix_ring(rings.zn(1), 10**6).label == "M1000000(Z1)"
    assert time.perf_counter() - start < 1
    unlabeled = rings.make_ring([[0]], [[0]])
    assert rings.matrix_ring(unlabeled, 3).label is None
    with pytest.raises(ValueError):
        rings.matrix_ring(rings.zn(1), 0)
    monkeypatch.setattr(rings, "ORDER_CAP", 0)
    with pytest.raises(OrderCapExceeded):
        rings.matrix_ring(rings.zn(1), 2)


def _tensor_loop(typ, products):
    """The bilinear extension as a per-entry loop over generator pairs."""
    group = addgroup.std_group(typ)
    k = len(typ)
    rows = []
    for dx in group.digits:
        row = []
        for dy in group.digits:
            acc = 0
            for i in range(k):
                for j in range(k):
                    c = dx[i] * dy[j] % math.gcd(typ[i], typ[j])
                    acc = group.add[acc][group.smul[c][products[i * k + j]]]
            row.append(acc)
        rows.append(tuple(row))
    return tuple(rows)


def test_from_products_matches_the_per_entry_loop():
    checked = 0
    for n in (2, 3, 4, 8, 9):
        for typ in atlas.abelian_group_types(n):
            for products in atlas._scan_tensors(typ, tuple(range(n))):
                ring = rings.from_products(typ, products)
                assert ring.mul == _tensor_loop(typ, products)
                assert ring.add == addgroup.std_group(typ).add
                checked += 1
    assert checked > 1000


def test_from_products_families():
    assert rings.from_products((6,), (1,)).mul == rings.zn(6).mul
    assert rings.from_products((), ()).mul == ((0,),)
    # GF(4) on x^2 = x + 1: generators x (index 2) and 1 (index 1).
    gf4 = rings.from_products((2, 2), (3, 2, 2, 1), "GF(4)")
    assert (gf4.mul, gf4.label) == (rings.gf(2, 2).mul, "GF(4)")
    # e*e = f and f*e = e for e = (1, 0), f = (0, 1): (ee)e = e but e(ee) = 0.
    with pytest.raises(AxiomViolation, match="mul-associative"):
        rings.from_products((2, 2), (1, 0, 2, 0))
    with pytest.raises(ValueError, match="expected 4 element names"):
        rings.from_products((2, 2), (0, 0, 0, 0), element_names=("0",))


def test_from_products_checks_the_cap_first(monkeypatch):
    monkeypatch.setattr(addgroup, "std_group", lambda typ: pytest.fail("group built"))
    with pytest.raises(OrderCapExceeded, match=r"^order 512 exceeds the cap of 256$"):
        rings.from_products((2,) * 9, (0,) * 81)
    monkeypatch.setattr(rings, "ORDER_CAP", 8)
    with pytest.raises(OrderCapExceeded, match=r"^order 9 exceeds the cap of 8$"):
        rings.from_products((3, 3), (0,) * 4)


def test_gf_builds_up_to_its_order_cap(monkeypatch):
    monkeypatch.setattr(rings, "ORDER_CAP", 257)
    assert rings.gf(257, 1).order == 257
    monkeypatch.setattr(rings, "ORDER_CAP", 4)
    with pytest.raises(OrderCapExceeded, match=r"^order 8 exceeds the cap of 4$"):
        rings.gf(2, 3)
