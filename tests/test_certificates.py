import random

import numpy as np
import pytest

from finring import addgroup, atlas, cli, rings, structure
from finring.errors import BudgetExceeded


def std_mul(ring, perm):
    """The product table read in the basis `perm`, by a Python loop: the
    reference for the gather that standardizes a stack of tables."""
    n = ring.order
    inv = [0] * n
    for i, e in enumerate(perm):
        inv[e] = i
    mul = ring.mul
    return tuple(inv[mul[px][py]] for px in perm for py in perm)


def brute_force_certificate(ring):
    """The certificate by its definition: lexmin of the standardized table
    over every decomposition basis of the additive group."""
    typ = addgroup.additive_type(ring.add)
    best = min(
        std_mul(ring, perm) for perm in addgroup.iter_basis_perms(ring.add, typ)
    )
    return f"FR1;n={ring.order};t={','.join(map(str, typ))};".encode() + bytes(best)


def relabel(ring, rng):
    n = ring.order
    perm = [0] + rng.sample(range(1, n), n - 1)
    inv = [0] * n
    for i, v in enumerate(perm):
        inv[v] = i
    add = [[perm[ring.add[inv[x]][inv[y]]] for y in range(n)] for x in range(n)]
    mul = [[perm[ring.mul[inv[x]][inv[y]]] for y in range(n)] for x in range(n)]
    return rings.make_ring(add, mul)


def power(ring, k):
    out = ring
    for _ in range(k - 1):
        out = rings.direct_sum(out, ring)
    return out


def counting(monkeypatch, module, name):
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def refuse(monkeypatch, module, name):
    def fail(*args, **kwargs):
        raise AssertionError(f"{name} must not be called")

    monkeypatch.setattr(module, name, fail)


def reference_aut_action(typ, table, autos, points):
    """The action of Aut(typ) read with a 2-D broadcast index, then a
    row-wise index into the inverses."""
    phi = addgroup.automorphism_perms(typ)[autos][:, points]
    inverses = addgroup.automorphism_inverses(typ)[autos]
    cells = table[phi[:, :, None], phi[:, None, :]].reshape(len(phi), -1)
    return inverses[np.arange(len(phi))[:, None], cells]


def reference_canonical(ring):
    """The certificate and basis with each block's least row taken by Python
    min and list.index over the block's rows as bytes."""
    typ = addgroup.additive_type(ring.add)
    n = ring.order
    perm0 = next(addgroup.iter_basis_perms(ring.add, typ))
    table = np.frombuffer(bytes(std_mul(ring, perm0)), dtype=np.uint8).reshape(n, n)
    autos = addgroup.automorphism_perms(typ)
    width = n * n
    step = max(1, structure._CERTIFICATE_BLOCK // width)
    best = None
    best_row = 0
    for lo in range(0, len(autos), step):
        flat = reference_aut_action(typ, table, slice(lo, lo + step), slice(None)).tobytes()
        rows = [flat[i: i + width] for i in range(0, len(flat), width)]
        cand = min(rows)
        if best is None or cand < best:
            best = cand
            best_row = lo + rows.index(cand)
    header = f"FR1;n={ring.order};t={','.join(map(str, typ))};".encode()
    return header + best, [perm0[x] for x in autos[best_row].tolist()]


def generator_points(typ):
    """The generators of the standard group of `typ`, in ascending index."""
    return sorted(addgroup.std_group(typ).gens)


def minimal_blocks(ring):
    """How many certificate blocks, of _CERTIFICATE_BLOCK generator products
    each, reach the least relabeled table."""
    typ = addgroup.additive_type(ring.add)
    n = ring.order
    table = np.frombuffer(reference_canonical(ring)[0][-n * n:], dtype=np.uint8).reshape(n, n)
    autos = addgroup.automorphism_perms(typ)
    step = max(1, structure._CERTIFICATE_BLOCK // len(typ) ** 2)
    rows = reference_aut_action(typ, table, slice(None), slice(None))
    least = (rows == rows[np.lexsort(rows.T[::-1])[0]]).all(axis=1)
    return len({int(i) // step for i in np.flatnonzero(least)})


def test_certificate_and_basis_match_the_reference_on_atlas(atlas_by_order):
    rng = random.Random(23)
    for n in range(1, 10):
        for entry in atlas_by_order[n]:
            for ring in (entry.ring, relabel(entry.ring, rng), relabel(entry.ring, rng)):
                assert structure._canonical(ring) == reference_canonical(ring)


@pytest.mark.parametrize(
    "ring",
    [rings.gf(2, 4), power(rings.zn(2), 4), rings.gf(3, 3)],
    ids=["GF(16)", "Z2^4", "GF(27)"],
)
def test_certificate_and_basis_match_the_reference_across_blocks(ring):
    typ = addgroup.additive_type(ring.add)
    step = max(1, structure._CERTIFICATE_BLOCK // len(typ) ** 2)
    assert addgroup.automorphism_count(typ) > step
    copy = relabel(ring, random.Random(29))
    assert structure._canonical(copy) == reference_canonical(copy)


def test_certificate_keeps_the_first_of_tied_blocks():
    # Every block of the null ring on Z2^4 holds its least table, and the
    # 24 ring automorphisms of Z2^4 spread its minimum over several blocks.
    null = rings.make_ring(addgroup.std_group((2, 2, 2, 2)).add, [[0] * 16] * 16)
    for ring in (null, relabel(power(rings.zn(2), 4), random.Random(31))):
        assert minimal_blocks(ring) > 1
        assert structure._canonical(ring) == reference_canonical(ring)


def least_rows(typ, table, points):
    """The automorphism rows whose reading of `table` at `points` is least,
    compared as Python bytes."""
    count = addgroup.automorphism_count(typ)
    rows = np.concatenate([reference_aut_action(typ, table, slice(lo, lo + 2048), points)
                           for lo in range(0, count, 2048)])
    keys = [row.tobytes() for row in rows]
    least = min(keys)
    return {i for i, key in enumerate(keys) if key == least}


def test_generator_products_reach_the_least_full_tables(monkeypatch):
    # A bi-additive table is fixed by its generator products, and with the
    # generators in ascending index they are its first differing cells: the
    # automorphisms reaching the least k x k products are those reaching the
    # least n x n table.
    rng = random.Random(37)
    samples = [rings.make_ring([[0]], [[0]])]
    for n in range(1, 16):
        for entry in atlas.enumerate_rings(n, cap=15):
            samples += [entry.ring, relabel(entry.ring, rng), relabel(entry.ring, rng)]
    for ring in (rings.matrix_ring(rings.zn(2), 2), rings.gf(2, 4), power(rings.zn(2), 4),
                 rings.gf(3, 3), power(rings.zn(3), 3), rings.direct_sum(rings.zn(4), rings.zn(4))):
        samples.append(relabel(ring, rng))
    aut_action = structure._aut_action
    calls = counting(monkeypatch, structure, "_aut_action")
    for ring in samples:
        typ = addgroup.additive_type(ring.add)
        perm0 = next(addgroup.iter_basis_perms(ring.add, typ))
        n = ring.order
        table = np.frombuffer(bytes(std_mul(ring, perm0)), dtype=np.uint8).reshape(n, n)
        points = generator_points(typ)
        assert least_rows(typ, table, points) == least_rows(typ, table, list(range(n)))
        calls.clear()
        assert structure._canonical(ring) == reference_canonical(ring)
        # The minimum reads the k generators, never all n points.
        for args in calls:
            for stacked, rows in zip(args[1], aut_action(*args)):
                assert np.array_equal(rows, reference_aut_action(typ, stacked, args[2], points))
        assert len(calls) >= (1 if typ else 0)
    assert len(samples) == 1 + 3 * sum(atlas.CLASS_COUNTS[:15]) + 6


def test_orbit_action_matches_the_reference(atlas_by_order):
    samples = [e.ring for n in range(1, 10) for e in atlas_by_order[n]]
    samples.append(structure._canonical_ring(structure.ring_canonical_certificate(rings.gf(2, 4))))
    for ring in samples:
        typ = addgroup.additive_type(ring.add)
        table = np.array(ring.mul, dtype=np.uint8)
        got = structure._aut_action(typ, table, slice(None))
        assert np.array_equal(got, reference_aut_action(typ, table, slice(None), generator_points(typ)))


def test_certificate_matches_brute_force_on_atlas(atlas_by_order):
    rng = random.Random(11)
    for n in range(1, 10):
        for entry in atlas_by_order[n]:
            expected = brute_force_certificate(entry.ring)
            assert entry.certificate == expected
            assert structure.ring_canonical_certificate(entry.ring) == expected
            if n > 2:
                copy = relabel(entry.ring, rng)
                assert structure.ring_canonical_certificate(copy) == brute_force_certificate(copy)


@pytest.mark.parametrize(
    "ring", [rings.matrix_ring(rings.zn(2), 2), rings.gf(3, 3)], ids=["M2(Z2)", "GF(27)"]
)
def test_certificate_matches_brute_force_on_large_types(ring):
    copy = relabel(ring, random.Random(5))
    assert structure.ring_canonical_certificate(copy) == brute_force_certificate(ring)


def test_automorphism_count_closed_form():
    for typ in [(), (2,), (4,), (2, 2), (4, 2), (2, 2, 2), (3, 3), (9, 3), (4, 4), (4, 2, 2),
                (8, 2), (3, 3, 3), (3, 2), (4, 3), (4, 2, 3), (2, 2, 3), (5, 5)]:
        perms = addgroup.automorphism_perms(typ)
        assert addgroup.automorphism_count(typ) == len(perms)
        assert len({tuple(p) for p in perms.tolist()}) == len(perms)
        for phi, inv in zip(perms.tolist(), addgroup.automorphism_inverses(typ).tolist()):
            assert [phi[i] for i in inv] == list(range(len(phi)))
    assert addgroup.automorphism_count((2, 2, 2, 2, 2)) == 31 * 30 * 28 * 24 * 16
    assert addgroup.automorphism_count((2, 2, 2, 2)) <= structure.AUTOMORPHISM_BUDGET
    assert addgroup.automorphism_count((3, 3, 3)) <= structure.AUTOMORPHISM_BUDGET


def test_certificate_above_budget_is_refused_without_enumeration(monkeypatch):
    refuse(monkeypatch, addgroup, "automorphism_perms")
    refuse(monkeypatch, addgroup, "iter_basis_perms")
    with pytest.raises(BudgetExceeded):
        structure.ring_canonical_certificate(rings.gf(2, 5))


def test_ring_isomorphic_rejects_by_invariants_without_search(monkeypatch):
    gf32, z2_5 = rings.gf(2, 5), power(rings.zn(2), 5)
    refuse(monkeypatch, addgroup, "iter_basis_perms")
    assert structure.ring_isomorphic(gf32, z2_5) is None
    assert structure.ring_isomorphic(rings.gf(2, 2), power(rings.zn(2), 2)) is None


def test_ring_isomorphic_agrees_with_brute_force_certificates(atlas_by_order):
    rng = random.Random(17)
    for n in range(1, 9):
        samples = [e.ring for e in atlas_by_order[n]]
        samples += [relabel(ring, rng) for ring in samples if n > 2]
        oracle = [brute_force_certificate(ring) for ring in samples]
        for i, a in enumerate(samples):
            for j in range(i, len(samples)):
                hom = structure.ring_isomorphic(a, samples[j])
                assert (hom is not None) == (oracle[i] == oracle[j])
                if hom is not None:
                    assert hom.is_isomorphism


def test_ring_isomorphic_above_budget_is_refused_without_enumeration(monkeypatch):
    gf32 = rings.gf(2, 5)
    copy = relabel(gf32, random.Random(3))
    refuse(monkeypatch, addgroup, "iter_basis_perms")
    refuse(monkeypatch, addgroup, "automorphism_perms")
    with pytest.raises(BudgetExceeded):
        structure.ring_isomorphic(gf32, copy)


def test_ring_isomorphic_with_equal_tables_needs_no_certificate(monkeypatch):
    gf32 = rings.gf(2, 5)
    twin = rings.make_ring(gf32.add, gf32.mul)
    refuse(monkeypatch, structure, "_canonical")
    for other in (gf32, twin):
        hom = structure.ring_isomorphic(gf32, other)
        assert hom.images == tuple(range(32)) and hom.is_isomorphism


def test_decompose_certifies_only_components_of_shared_size(monkeypatch):
    gf32 = rings.gf(2, 5)
    refuse(monkeypatch, structure, "ring_canonical_certificate")
    assert [c.members for c in structure.decompose(gf32)] == [tuple(range(32))]
    z2_z3 = rings.direct_sum(rings.zn(2), rings.zn(3))
    assert [len(c) for c in structure.decompose(z2_z3)] == [2, 3]


def test_decompose_orders_equal_sizes_by_old_certificate():
    for ring in (
        rings.direct_sum(rings.n0(2, 1), rings.zn(2)),
        rings.direct_sum(rings.zn(2), rings.n0(2, 1)),
        rings.direct_sum(power(rings.zn(2), 2), rings.n0(2, 1)),
    ):
        def old_key(members):
            sub = rings.subring_generated(ring, members).ring
            return (len(members), brute_force_certificate(sub), members)

        got = [c.members for c in structure.decompose(ring)]
        assert got == sorted(got, key=old_key)


def test_structure_report_builds_one_lattice(monkeypatch, atlas_by_order):
    samples = [e.ring for n in (4, 6, 8) for e in atlas_by_order[n]]
    samples += [rings.matrix_ring(rings.zn(2), 2), power(rings.zn(2), 4)]
    with monkeypatch.context() as patch:
        calls = counting(patch, structure, "_lattice")
        refuse(patch, structure, "ring_canonical_certificate")
        reports = []
        for ring in samples:
            before = len(calls)
            reports.append(structure.structure_report(ring))
            assert len(calls) == before + 1
    for ring, report in zip(samples, reports):
        assert report.jacobson_radical == structure.jacobson_radical(ring)
        assert report.is_decomposable == (len(structure.decompose(ring)) > 1)
        assert report.is_subdirectly_irreducible == structure.is_subdirectly_irreducible(ring)
        if report.has_identity is not None:
            assert report.is_local == structure.is_local(ring)


@pytest.mark.parametrize("k", [5, 6])
def test_ring_info_answers_on_large_binary_fields(tmp_path, capsys, k):
    path = str(tmp_path / "gf.ring")
    assert cli.main(["ring", "build", "gf", "2", str(k), "--out", path]) == 0
    assert cli.main(["ring", "info", path]) == 0
    out = capsys.readouterr().out
    assert f"order: {2 ** k}" in out
    assert "is_field: true" in out
    assert "is_local: true" in out
    assert "jacobson_radical: 0\n" in out
    assert "zero_divisor_count: 0" in out


def test_enumeration_reuses_decoded_certificates(monkeypatch):
    decoded = []
    original = structure._canonical_ring

    def recording(cert):
        ring = original(cert)
        decoded.append(ring)
        return ring

    monkeypatch.setattr(structure, "_canonical_ring", recording)
    single = counting(monkeypatch, structure, "ring_canonical_certificate")
    stacks = counting(monkeypatch, structure, "_canonical_stack")
    for n in (4, 8, 9):
        entries = atlas.enumerate_rings(n)
        assert [e.certificate for e in entries] == sorted(e.certificate for e in entries)
    # A serial build scans each additive type as one job, which certifies
    # each class it meets once: the stacks hold one table per class, so no
    # decoded ring is certified again.
    assert not single
    assert sum(len(adds) for adds, _ in stacks) == len(decoded) == 11 + 52 + 11
    # Composite orders certify each direct sum once, in one stack.
    stacks.clear()
    entries = atlas.enumerate_rings(6)
    sums = [len(adds) for adds, mul in stacks if mul.shape[-1] == 6]
    assert sums == [len(entries)] == [4]
    assert not single


def test_serial_build_reads_each_add_table_once(monkeypatch):
    # Of the 154 tables a serial build of orders 1-15 certifies, the 24 scan
    # jobs share one standard group each, each of the 6 pairs of part types
    # of a composite order shares one direct-sum table, and the zero ring
    # has its own: 31 distinct add tables.  The automorphism rows of each
    # type are built first, as their bases are not reads of a ring.
    for n in range(1, 16):
        for typ in atlas.abelian_group_types(n, cap=15):
            addgroup.automorphism_perms(typ)
    types = counting(monkeypatch, addgroup, "additive_type")
    bases = counting(monkeypatch, addgroup, "iter_basis_perms")
    stacks = counting(monkeypatch, structure, "_canonical_stack")
    for n in range(1, 16):
        atlas.enumerate_rings(n, cap=15)
    assert sum(len(adds) for adds, _ in stacks) == 154
    assert len(types) == len(bases) == 31


def test_stack_with_shared_add_tables_matches_each_ring(atlas_by_order):
    # One scan job's tables share the standard group of (2, 2, 2), and the
    # copies relabeled by one permutation share one add table per type.
    typ = (2, 2, 2)
    add = addgroup.std_group(typ).add
    tensors = atlas._scan_tensors(typ, atlas._first_rows(typ))
    scanned = [rings.FiniteRing(8, add, tuple(map(tuple, mul)))
               for mul in rings._bilinear_tables(typ, tensors).tolist()]
    copies = [relabel(entry.ring, random.Random(9)) for entry in atlas_by_order[8]]
    stack = scanned + copies
    random.Random(10).shuffle(stack)
    assert len({ring.add for ring in stack}) == 4
    mul = np.array([ring.mul for ring in stack], dtype=np.uint8)
    got = structure._canonical_stack([ring.add for ring in stack], mul)
    assert got == [structure._canonical(ring) for ring in stack]


def test_stack_of_multi_block_types_matches_each_ring():
    # Each (2, 2, 2, 2) table reads its 20160 automorphisms over several
    # _aut_action blocks, and the least rows of these four tie across blocks;
    # the smaller types beside them run one block per chunk.
    null = rings.make_ring(addgroup.std_group((2, 2, 2, 2)).add, [[0] * 16] * 16)
    z2, z4 = rings.zn(2), rings.zn(4)
    multi = [rings.matrix_ring(z2, 2), rings.gf(2, 4), power(z2, 4), null]
    single = [rings.zn(16), power(z4, 2), rings.direct_sum(rings.zn(8), z2),
              rings.direct_sum(z4, power(z2, 2))]
    rng = random.Random(41)
    stack = [relabel(ring, rng) for ring in multi + single for _ in range(2)]
    random.Random(43).shuffle(stack)
    typ = (2, 2, 2, 2)
    assert addgroup.automorphism_count(typ) > structure._CERTIFICATE_BLOCK // len(typ) ** 2
    mul = np.array([ring.mul for ring in stack], dtype=np.uint8)
    got = structure._canonical_stack([ring.add for ring in stack], mul)
    assert got == [reference_canonical(ring) for ring in stack]
    assert got == [structure._canonical(ring) for ring in stack]
