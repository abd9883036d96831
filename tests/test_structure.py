import collections
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finring import atlas, rings, structure
from finring.errors import NoIdentity, OrderCapExceeded

from test_certificates import counting, relabel


def test_zero_divisor_examples():
    assert structure.zero_divisors(rings.zn(9)) == {3, 6}
    assert structure.zero_divisors(rings.gf(2, 2)) == set()
    assert structure.zero_divisors(rings.ap(2)) == {1, 2, 3}


def test_unit_sets():
    assert structure.idempotents(rings.zn(6)) == {0, 1, 3, 4}
    assert structure.nilpotent_elements(rings.gf(3, 1)) == {0}
    assert len(structure.units(rings.zn(9))) == 6
    with pytest.raises(NoIdentity):
        structure.units(rings.n0(2, 1))


def test_has_identity():
    assert structure.has_identity(rings.zn(12)) == 1
    assert structure.has_identity(rings.n0(3, 1)) is None
    assert structure.has_identity(rings.ap(2)) is None


def test_ideals_examples():
    z9_ideals = structure.ideals(rings.zn(9))
    assert [i.members for i in z9_ideals] == [(0,), (0, 3, 6), tuple(range(9))]
    assert len(structure.ideals(rings.gf(2, 2))) == 2
    # every additive subgroup of a null ring is an ideal
    assert len(structure.ideals(rings.n0(2, 2))) == 3
    null8 = rings.direct_sum(rings.n0(2, 1), rings.direct_sum(rings.n0(2, 1), rings.n0(2, 1)))
    assert len(structure.ideals(null8)) == 16  # subspace count of GF(2)^3


def test_ideal_cap():
    with pytest.raises(OrderCapExceeded):
        structure.ideals(rings.zn(65))


def test_jacobson_radical():
    assert structure.jacobson_radical(rings.zn(9)).members == (0, 3, 6)
    assert structure.jacobson_radical(rings.gf(3, 2)).members == (0,)
    assert structure.jacobson_radical(rings.npp(2)).members == (0, 1, 2, 3)
    assert structure.jacobson_radical(rings.ap(2)).members == (0, 1)


def test_nilpotency_index():
    assert structure.is_nilpotent_ring(rings.n0(5, 1)) == 2
    assert structure.is_nilpotent_ring(rings.npp(3)) == 3
    assert structure.is_nilpotent_ring(rings.zn(4)) is None
    assert structure.is_nilpotent_ring(rings.zn(1)) == 1


def test_subdirect_irreducibility():
    assert structure.is_subdirectly_irreducible(rings.zn(5))
    assert structure.is_subdirectly_irreducible(rings.zn(9))
    assert not structure.is_subdirectly_irreducible(
        rings.direct_sum(rings.zn(2), rings.zn(2))
    )
    assert not structure.is_subdirectly_irreducible(rings.zn(1))


def test_locality():
    assert structure.is_local(rings.zpx_mod_x2(3))
    assert structure.is_local(rings.zn(9))
    assert not structure.is_local(rings.zn(6))
    with pytest.raises(NoIdentity):
        structure.is_local(rings.n0(2, 1))


def test_field_recognition():
    assert structure.is_field(rings.gf(5, 1))
    assert structure.is_field(rings.gf(2, 3))
    assert not structure.is_field(rings.zn(9))
    assert not structure.is_field(rings.matrix_ring(rings.zn(2), 2))


def test_decompose():
    assert [len(i.members) for i in structure.decompose(rings.zn(6))] == [2, 3]
    assert [len(i.members) for i in structure.decompose(rings.zn(9))] == [9]
    mixed = rings.direct_sum(rings.n0(2, 1), rings.zn(2))
    assert [len(i.members) for i in structure.decompose(mixed)] == [2, 2]


def test_ring_isomorphic_examples():
    assert structure.ring_isomorphic(rings.zn(4), rings.n0(2, 2)) is None
    hom = structure.ring_isomorphic(rings.gf(2, 2), rings.gf(2, 2))
    assert hom is not None and hom.is_isomorphism
    assert structure.ring_isomorphic(rings.ap(2), rings.ap0(2)) is None
    assert structure.ring_isomorphic(rings.zn(4), rings.zn(9)) is None


def test_ring_isomorphic_witness_is_checked():
    hom = structure.ring_isomorphic(
        rings.direct_sum(rings.zn(2), rings.zn(3)), rings.zn(6)
    )
    assert hom is not None
    assert hom.preserves_structure()
    assert sorted(hom.images) == list(range(6))


def test_iso_symmetric_and_transitive_samples():
    a = rings.zn(6)
    b = rings.direct_sum(rings.zn(2), rings.zn(3))
    c = rings.direct_sum(rings.zn(3), rings.zn(2))
    assert structure.ring_isomorphic(a, b) and structure.ring_isomorphic(b, a)
    assert structure.ring_isomorphic(a, c) and structure.ring_isomorphic(b, c)


def test_certificates_separate_nonisomorphic():
    c_zn4 = structure.ring_canonical_certificate(rings.zn(4))
    c_null = structure.ring_canonical_certificate(rings.n0(2, 2))
    assert c_zn4 != c_null
    assert structure.ring_canonical_certificate(rings.zn(4)) == c_zn4


def test_order4_certificate_count():
    known = [
        rings.zn(4),
        rings.n0(2, 2),
        rings.np2(2),
        rings.npp(2),
        rings.gf(2, 2),
        rings.zpx_mod_x2(2),
        rings.ap(2),
        rings.ap0(2),
        rings.direct_sum(rings.zn(2), rings.zn(2)),
        rings.direct_sum(rings.n0(2, 1), rings.zn(2)),
        rings.direct_sum(rings.n0(2, 1), rings.n0(2, 1)),
    ]
    certs = {structure.ring_canonical_certificate(r) for r in known}
    assert len(certs) == 11


def test_report_text_golden():
    report = structure.structure_report(rings.zn(9))
    assert report.to_text() == (
        "label: Z9\n"
        "order: 9\n"
        "characteristic: 9\n"
        "has_identity: 1\n"
        "is_commutative: true\n"
        "is_field: false\n"
        "is_local: true\n"
        "is_nilpotent: none\n"
        "is_subdirectly_irreducible: true\n"
        "is_decomposable: false\n"
        "zero_divisor_count: 2\n"
        "jacobson_radical: 0 3 6\n"
    )


def test_report_flag_consistency(atlas_by_order):
    for n, entries in atlas_by_order.items():
        for entry in entries:
            rep = structure.structure_report(entry.ring)
            if rep.is_field:
                assert rep.zero_divisor_count == 0
            if rep.is_nilpotent is not None and rep.order > 1:
                assert not rep.is_field
            if rep.is_field:
                assert rep.has_identity is not None
            assert rep.order == n


def test_unit_divisor_partition_on_unital_atlas(atlas_by_order):
    # in a finite ring with identity, every nonzero element is a unit or a
    # zero divisor, and the two sets never meet
    for entries in atlas_by_order.values():
        for entry in entries:
            ring = entry.ring
            if structure.has_identity(ring) is None:
                continue
            unit_set = structure.units(ring)
            divisors = structure.zero_divisors(ring)
            assert unit_set & divisors == set()
            assert unit_set | divisors | {0} == set(range(ring.order))


def test_radical_invariants_on_unital_atlas(atlas_by_order):
    for entries in atlas_by_order.values():
        for entry in entries:
            ring = entry.ring
            radical = structure.jacobson_radical(ring)
            assert structure._ideal_is_nilpotent(ring, radical.members)
            if structure.has_identity(ring) is not None:
                quotient = rings.quotient(ring, radical)
                assert structure.jacobson_radical(quotient).members == (0,)


def test_subdirect_agreement_with_full_lattice(atlas_by_order):
    # independent second path: intersect every nonzero ideal from the lattice
    for entries in atlas_by_order.values():
        for entry in entries:
            ring = entry.ring
            nonzero = [set(i.members) for i in structure.ideals(ring) if len(i.members) > 1]
            if nonzero:
                meet = set.intersection(*nonzero)
                direct = len(meet) > 1
            else:
                direct = False
            assert structure.is_subdirectly_irreducible(ring) == direct


def test_quotient_order_formula_on_atlas(atlas_by_order):
    for entries in atlas_by_order.values():
        for entry in entries:
            ring = entry.ring
            for ideal in structure.ideals(ring):
                assert rings.quotient(ring, ideal).order * len(ideal.members) == ring.order


def test_certificate_iff_isomorphic_small_orders(atlas_by_order):
    for n in range(1, 10):
        for entry in atlas_by_order[n]:
            assert structure.ring_isomorphic(entry.ring, entry.ring) is not None
    entries = [e for n in range(1, 9) for e in atlas_by_order[n]]
    by_order: dict[int, list] = {}
    for e in entries:
        by_order.setdefault(e.ring.order, []).append(e)
    for group in by_order.values():
        for a, b in itertools.combinations(group, 2):
            assert a.certificate != b.certificate
            assert structure.ring_isomorphic(a.ring, b.ring) is None


@settings(max_examples=30, deadline=None)
@given(st.permutations(list(range(1, 4))), st.sampled_from(["np2", "ap", "zn4"]))
def test_relabeled_copy_is_isomorphic(perm, which):
    base = {"np2": rings.np2(2), "ap": rings.ap(2), "zn4": rings.zn(4)}[which]
    sigma = [0] + list(perm)
    inv = [0] * 4
    for i, v in enumerate(sigma):
        inv[v] = i
    add = [[sigma[base.add[inv[x]][inv[y]]] for y in range(4)] for x in range(4)]
    mul = [[sigma[base.mul[inv[x]][inv[y]]] for y in range(4)] for x in range(4)]
    copy = rings.make_ring(add, mul)
    assert structure.ring_canonical_certificate(copy) == structure.ring_canonical_certificate(base)
    hom = structure.ring_isomorphic(base, copy)
    assert hom is not None and hom.is_isomorphism


# --- the fixpoint closures that the additive spans replaced, as the reference ---


def _reference_ideal_closure(ring, seed):
    """Smallest two-sided ideal containing `seed`."""
    neg = [row.index(0) for row in ring.add]
    members = {0} | set(seed)
    frontier = list(members)
    while frontier:
        fresh = set()
        for a in frontier:
            if neg[a] not in members:
                fresh.add(neg[a])
            for b in members:
                for c in (ring.add[a][b], ring.add[b][a]):
                    if c not in members:
                        fresh.add(c)
            for r in range(ring.order):
                for c in (ring.mul[r][a], ring.mul[a][r]):
                    if c not in members:
                        fresh.add(c)
        members |= fresh
        frontier = list(fresh)
    return frozenset(members)


def _reference_join(ring, a, b):
    if a <= b:
        return b
    if b <= a:
        return a
    members = set()
    for x in a:
        if x not in members:
            row = ring.add[x]
            members.update(row[y] for y in b)
    return frozenset(members)


def _reference_ideals(ring):
    """The lattice by joining every pair of found ideals, in (size, members) order."""
    found = {frozenset({0})}
    for x in range(1, ring.order):
        found.add(_reference_ideal_closure(ring, {x}))
    worklist = list(found)
    while worklist:
        nxt = []
        for a in worklist:
            for b in list(found):
                join = _reference_join(ring, a, b)
                if join not in found:
                    found.add(join)
                    nxt.append(join)
        worklist = nxt
    return sorted(found, key=lambda s: (len(s), sorted(s)))


def _reference_radical(ring, lattice):
    """The join of every nilpotent ideal of the lattice."""
    acc = frozenset({0})
    for ideal in lattice:
        if structure._ideal_is_nilpotent(ring, ideal) is not None:
            acc = _reference_join(ring, acc, ideal)
    return structure.Ideal(ring, tuple(sorted(acc)))


def _reference_subring(ring, gens):
    """Closure of `gens` under +, - and * by a fixpoint over all pairs."""
    neg = [row.index(0) for row in ring.add]
    members = {0} | set(gens)
    while True:
        new = set()
        for a in members:
            if neg[a] not in members:
                new.add(neg[a])
            for b in members:
                for c in (ring.add[a][b], ring.mul[a][b]):
                    if c not in members:
                        new.add(c)
        if not new:
            break
        members |= new
    emb = tuple(sorted(members))
    image = [0] * ring.order
    for i, x in enumerate(emb):
        image[x] = i
    sub = rings._induced(ring, emb, image, tuple(ring.element_name(x) for x in emb))
    return rings.GeneratedSubring(sub, emb)


def _reference_decompose(ring, lattice):
    components = [frozenset(range(ring.order))]
    done = False
    while not done:
        done = True
        for ci, comp in enumerate(components):
            split = structure._find_split(ring, lattice, comp)
            if split:
                components[ci: ci + 1] = [split[0], split[1]]
                done = False
                break

    def sort_key(s):
        members = tuple(sorted(s))
        sub = _reference_subring(ring, members).ring
        return (len(s), structure.ring_canonical_certificate(sub), members)

    components.sort(key=sort_key)
    return [structure.Ideal(ring, tuple(sorted(s))) for s in components]


def test_spans_match_the_fixpoint_reference():
    rng = random.Random(11)
    classes = [e.ring for n in range(1, 16) for e in atlas.enumerate_rings(n, cap=16)]
    assert len(classes) == 125
    for ring in classes + [relabel(r, rng) for r in classes if r.order > 2]:
        n = ring.order
        closures = [_reference_ideal_closure(ring, {x}) for x in range(n)]
        assert [members for _, members in structure._principal_ideals(ring)] == closures
        lattice = _reference_ideals(ring)
        assert [i.members for i in structure.ideals(ring)] == [tuple(sorted(s)) for s in lattice]
        assert structure.jacobson_radical(ring) == _reference_radical(ring, lattice)
        nonzero = [c for c in closures if len(c) > 1]
        meet_nonzero = bool(nonzero) and len(frozenset.intersection(*nonzero)) > 1
        assert structure.is_subdirectly_irreducible(ring) == meet_nonzero
        assert structure.decompose(ring) == _reference_decompose(ring, lattice)
        for _ in range(4):
            gens = rng.sample(range(n), rng.randint(0, min(3, n)))
            assert rings.subring_generated(ring, gens) == _reference_subring(ring, gens)


def _gaussian_binomial(n, k, q):
    num = den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


def test_ideals_of_a_null_ring_are_its_subspaces():
    # Every subgroup of a null ring is an ideal, and GF(2)^6 has
    # [6 choose k]_2 subspaces of dimension k: 2825 in all.
    ring = rings.from_products((2,) * 6, (0,) * 36)
    sizes = collections.Counter(len(i) for i in structure.ideals(ring))
    assert sizes == {2 ** k: _gaussian_binomial(6, k, 2) for k in range(7)}
    assert sum(sizes.values()) == 2825


def _fixpoint_span(ring, seed):
    members = set(seed) | {0}
    frontier = list(members)
    while frontier:
        fresh = set()
        for a in frontier:
            for b in members:
                c = ring.add[a][b]
                if c not in members:
                    fresh.add(c)
        members |= fresh
        frontier = list(fresh)
    return frozenset(members)


def _fixpoint_lattice(ring):
    """Ideals by closing the principal ideals under the additive span of
    unions until nothing new appears, and the radical as the span of every
    nilpotent ideal (oracle)."""
    found = {frozenset({0})}
    for x in range(1, ring.order):
        found.add(_reference_ideal_closure(ring, {x}))
    worklist = list(found)
    while worklist:
        nxt = []
        for a in worklist:
            for b in list(found):
                join = _fixpoint_span(ring, a | b)
                if join not in found:
                    found.add(join)
                    nxt.append(join)
        worklist = nxt
    radical = frozenset({0})
    for ideal in found:
        if structure._ideal_is_nilpotent(ring, tuple(sorted(ideal))):
            radical = _fixpoint_span(ring, radical | ideal)
    lattice = sorted((tuple(sorted(s)) for s in found), key=lambda m: (len(m), m))
    return lattice, tuple(sorted(radical))


def test_ideals_and_radical_match_fixpoint_oracle():
    family = [e.ring for n in range(1, 16) for e in atlas.enumerate_rings(n, cap=16)]
    z2 = rings.zn(2)
    boolean = z2
    for _ in range(5):
        boolean = rings.direct_sum(boolean, z2)
    family += [boolean, rings.gf(7, 2), rings.matrix_ring(z2, 2)]
    for ring in family:
        lattice, radical = _fixpoint_lattice(ring)
        assert [i.members for i in structure.ideals(ring)] == lattice, ring.label
        assert structure.jacobson_radical(ring).members == radical, ring.label


def _is_local_by_quotient(ring):
    """Locality as R/J being a field, through the quotient ring."""
    return structure.is_field(rings.quotient(ring, structure.jacobson_radical(ring)))


def test_is_local_matches_the_quotient_field_test(atlas_by_order):
    entries = [e for n in range(1, 10) for e in atlas_by_order[n]]
    entries += [e for n in range(10, 16) for e in atlas.enumerate_rings(n, cap=16)]
    candidates = [e.ring for e in entries] + [
        rings.gf(2, 4), rings.gf(7, 2), rings.gf(2, 5), rings.matrix_ring(rings.zn(2), 2),
        rings.zn(64), rings.zn(49), rings.zpx_mod_x2(7), rings.zn(1),
    ]
    unital = [r for r in candidates if structure.has_identity(r) is not None]
    assert len(unital) == 42
    verdicts = [structure.is_local(r) for r in unital]
    assert verdicts == [_is_local_by_quotient(r) for r in unital]
    assert verdicts == [structure.structure_report(r).is_local for r in unital]
    assert 0 < sum(verdicts) < len(verdicts)
    assert structure.is_local(rings.zn(1))


def test_structure_report_computes_each_fact_once(monkeypatch):
    rng = random.Random(12)
    classes = [e.ring for n in range(1, 16) for e in atlas.enumerate_rings(n, cap=16)]
    assert len(classes) == 125
    samples = classes + [relabel(r, rng) for r in classes if r.order > 2]
    names = ("has_identity", "is_commutative", "zero_divisors", "_principal_ideals", "_units", "units")
    reports = []
    with monkeypatch.context() as patch:
        calls = {name: counting(patch, structure, name) for name in names}
        for ring in samples:
            for made in calls.values():
                made.clear()
            report = structure.structure_report(ring)
            counts = {name: len(made) for name, made in calls.items()}
            unital = report.has_identity is not None
            assert counts == {
                "has_identity": 1,
                "is_commutative": 1,
                "zero_divisors": 1,
                "_principal_ideals": 1,
                "_units": int(unital),
                "units": 0,
            }, (ring.label, counts)
            reports.append(report)
    for ring, report in zip(samples, reports):
        assert report.is_field == structure.is_field(ring)
        unital = report.has_identity is not None
        assert report.is_local == (unital and structure.is_local(ring))
        if not unital:
            with pytest.raises(NoIdentity):
                structure.is_local(ring)
        assert report.jacobson_radical == structure.jacobson_radical(ring)
        assert report.is_subdirectly_irreducible == structure.is_subdirectly_irreducible(ring)
        assert report.is_decomposable == (len(structure.decompose(ring)) > 1)
