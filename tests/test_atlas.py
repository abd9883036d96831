import dataclasses
import itertools
import math
import random

import numpy as np
import pytest

from finring import addgroup, atlas, freealg, graphs, rings, structure
from finring.errors import AxiomViolation, FormatError, OrderCapExceeded

from test_certificates import relabel


def test_abelian_group_types():
    assert atlas.abelian_group_types(4) == [(4,), (2, 2)]
    assert atlas.abelian_group_types(8) == [(8,), (4, 2), (2, 2, 2)]
    assert atlas.abelian_group_types(6) == [(3, 2)]
    assert atlas.abelian_group_types(12, cap=12) == [(4, 3), (3, 2, 2)]
    assert atlas.abelian_group_types(1) == [()]


def test_primary_parts():
    assert atlas._primary_parts(1) == []
    assert atlas._primary_parts(12) == [(2, 2), (3, 1)]
    for n in range(1, 300):
        parts = atlas._primary_parts(n)
        assert math.prod(p**e for p, e in parts) == n
        assert [p for p, _ in parts] == addgroup.prime_factors(n)
        assert all(e >= 1 for _, e in parts)


def test_abelian_group_types_caps():
    with pytest.raises(OrderCapExceeded):
        atlas.abelian_group_types(10)
    assert atlas.abelian_group_types(16, cap=16)[0] == (16,)
    with pytest.raises(OrderCapExceeded):
        atlas.abelian_group_types(17, cap=32)


def test_enumeration_counts_small(atlas_by_order):
    expected = {1: 1, 2: 2, 3: 2, 4: 11, 5: 2, 6: 4, 7: 2, 9: 11}
    for n, count in expected.items():
        assert len(atlas_by_order[n]) == count


def test_enumeration_cap():
    with pytest.raises(OrderCapExceeded):
        atlas.enumerate_rings(16)
    with pytest.raises(OrderCapExceeded):
        atlas.enumerate_rings(12)  # over the default cap without override


def test_order16_elementary_type_refused():
    # the elementary abelian scan space at order 16 is out of reach by design
    with pytest.raises(OrderCapExceeded):
        atlas.enumerate_rings(16, cap=16)


def test_entries_are_canonical_and_deduplicated(atlas_by_order):
    for n, entries in atlas_by_order.items():
        certs = [e.certificate for e in entries]
        assert len(set(certs)) == len(certs)
        assert certs == sorted(certs)
        for e in entries[: 3 if n > 4 else None]:
            assert structure.ring_canonical_certificate(e.ring) == e.certificate
            assert graphs.canonical_form(graphs.zero_divisor_graph(e.ring)) == e.graph_certificate


def test_known_constructions_hit_atlas(atlas_by_order):
    atlas4 = {e.certificate for e in atlas_by_order[4]}
    for ring in (
        rings.zn(4),
        rings.gf(2, 2),
        rings.np2(2),
        rings.npp(2),
        rings.ap(2),
        rings.ap0(2),
        rings.n0(2, 2),
        rings.zpx_mod_x2(2),
        rings.direct_sum(rings.zn(2), rings.zn(2)),
    ):
        assert structure.ring_canonical_certificate(ring) in atlas4


def test_random_relabeling_matches_exactly_one_entry(atlas_by_order):
    rng = random.Random(7)
    for n in (4, 6, 8):
        entries = atlas_by_order[n]
        for _ in range(5):
            entry = rng.choice(entries)
            base = entry.ring
            perm = [0] + rng.sample(range(1, n), n - 1)
            inv = [0] * n
            for i, v in enumerate(perm):
                inv[v] = i
            add = [[perm[base.add[inv[x]][inv[y]]] for y in range(n)] for x in range(n)]
            mul = [[perm[base.mul[inv[x]][inv[y]]] for y in range(n)] for x in range(n)]
            shuffled = rings.make_ring(add, mul)
            cert = structure.ring_canonical_certificate(shuffled)
            hits = [e for e in entries if e.certificate == cert]
            assert len(hits) == 1 and hits[0] is entry


def test_rings_with_graph_queries(atlas_by_order):
    provider = atlas_by_order.__getitem__
    k1 = atlas.rings_with_graph(4, graphs.complete_graph(1), provider=provider)
    names = {"N0_2": rings.n0(2, 1), "Z4": rings.zn(4), "Z2[x]/(x^2)": rings.zpx_mod_x2(2)}
    assert len(k1) == 3
    for name, ring in names.items():
        assert any(structure.ring_isomorphic(e.ring, ring) for e in k1), name
    empty = atlas.rings_with_graph(3, graphs.make_graph(0, []), provider=provider)
    assert sorted(e.ring.order for e in empty) == [1, 2, 3]
    k2 = atlas.rings_with_graph(6, graphs.complete_graph(2), provider=provider)
    assert len(k2) == 2


def test_graph_determinacy_report(atlas_by_order):
    entries = [e for n in range(1, 10) for e in atlas_by_order[n]]
    # the family cut out by the identities of the smallest null-ring variety
    # is graph-determined
    clean = atlas.graph_determinacy_report(entries, [freealg.parse("2x"), freealg.parse("xy")])
    assert clean == []
    # widening to a family containing both K2 sources surfaces the collision
    loose = atlas.graph_determinacy_report(
        entries, [freealg.parse("6x"), freealg.parse("x^2y - xy")]
    )
    assert any(
        structure.ring_isomorphic(a.ring, rings.n0(3, 1)) is not None
        and structure.ring_isomorphic(b.ring, rings.direct_sum(rings.zn(2), rings.zn(2)))
        is not None
        or structure.ring_isomorphic(b.ring, rings.n0(3, 1)) is not None
        and structure.ring_isomorphic(a.ring, rings.direct_sum(rings.zn(2), rings.zn(2)))
        is not None
        for a, b in loose
    )


def test_rings_with_graph_matches_the_unfiltered_definition(atlas_by_order):
    entries = [e for n in range(1, 10) for e in atlas_by_order[n]]
    targets = {e.graph_certificate: e.graph for e in entries}
    assert len(targets) > 1
    for target, graph in targets.items():
        got = atlas.rings_with_graph(9, graph, provider=atlas_by_order.__getitem__)
        expected = [e for e in entries if e.graph_certificate == target]
        assert len(got) == len(expected) and all(a is b for a, b in zip(got, expected))


def unfiltered_collisions(entries, identities):
    """The determinacy report by its definition: every kept entry grouped by
    graph certificate."""
    kept = [e for e in entries if all(freealg.satisfies_identity(e.ring, p).ok for p in identities)]
    by_graph = {}
    for e in kept:
        by_graph.setdefault(e.graph_certificate, []).append(e)
    out = []
    for gcert in sorted(by_graph):
        group = sorted(by_graph[gcert], key=lambda e: e.certificate)
        out += [(a, b) for i, a in enumerate(group) for b in group[i + 1:]
                if a.certificate != b.certificate]
    return out


@pytest.mark.parametrize("identities, count", [
    ([], 206), (["6x", "x^2y - xy"], 7), (["2x", "x^2"], 0),
])
def test_determinacy_report_matches_the_unfiltered_definition(atlas_by_order, identities, count):
    entries = [e for n in range(1, 10) for e in atlas_by_order[n]]
    polys = [freealg.parse(text) for text in identities]
    got = atlas.graph_determinacy_report(entries, polys or None)
    expected = unfiltered_collisions(entries, polys)
    assert len(got) == len(expected) == count
    assert all(a is c and b is d for (a, b), (c, d) in zip(got, expected))


def test_determinacy_report_on_shared_graph_family():
    family = [
        rings.np2(2),
        rings.npp(2),
        rings.ap(2),
        rings.ap0(2),
        rings.direct_sum(rings.n0(2, 1), rings.zn(2)),
    ]
    entries = [atlas.make_entry(r) for r in family]
    collisions = atlas.graph_determinacy_report(entries)
    # all five rings share one graph and are pairwise non-isomorphic
    assert len(collisions) == 10


def test_atlas_file_round_trip(tmp_path, atlas_by_order):
    path = tmp_path / "atlas-4.txt"
    atlas.save_atlas(atlas_by_order[4], path)
    loaded = atlas.load_atlas(path)
    assert len(loaded) == 11
    for a, b in zip(loaded, atlas_by_order[4]):
        assert a.certificate == b.certificate
        assert a.ring.add == b.ring.add and a.ring.mul == b.ring.mul
    # save(load(f)) reproduces the file byte for byte
    second = tmp_path / "again.txt"
    atlas.save_atlas(loaded, second)
    assert second.read_bytes() == path.read_bytes()


def test_atlas_empty_round_trip(tmp_path):
    path = tmp_path / "empty.txt"
    atlas.save_atlas([], path)
    assert atlas.load_atlas(path) == []


def test_atlas_save_refuses_mixed_orders(tmp_path, atlas_by_order):
    path = tmp_path / "mixed.txt"
    with pytest.raises(ValueError, match="^an atlas file holds entries of a single order$"):
        atlas.save_atlas(atlas_by_order[2] + atlas_by_order[3], path)
    assert not path.exists()


def test_atlas_load_errors(tmp_path, atlas_by_order):
    path = tmp_path / "atlas.txt"
    atlas.save_atlas(atlas_by_order[4], path)
    text = path.read_text()
    bad_magic = tmp_path / "m.txt"
    bad_magic.write_text(text.replace("atlas v1", "atlas v9", 1))
    with pytest.raises(FormatError):
        atlas.load_atlas(bad_magic)
    # corrupt one multiplication entry inside a block: axiom failure surfaces
    corrupted = tmp_path / "c.txt"
    lines = text.splitlines()
    mul_row = next(
        i for i in range(len(lines) - 1, 0, -1) if lines[i] and lines[i][0].isdigit()
    )
    row = lines[mul_row].split()
    row[0] = "3" if row[0] != "3" else "2"
    lines[mul_row] = " ".join(row)
    corrupted.write_text("\n".join(lines) + "\n")
    with pytest.raises((AxiomViolation, FormatError)):
        atlas.load_atlas(corrupted)
    # swapped certificate lines are out of order
    swapped = tmp_path / "s.txt"
    swap = text.splitlines()
    swap[3], swap[4] = swap[4], swap[3]
    swapped.write_text("\n".join(swap) + "\n")
    with pytest.raises(FormatError):
        atlas.load_atlas(swapped)
    # swapped ringtab blocks are caught by recomputation
    blocks = text.split("\n\n")
    blocks[1], blocks[2] = blocks[2], blocks[1]
    swapped.write_text("\n\n".join(blocks))
    with pytest.raises(FormatError, match="^stored certificate does not match its ring$"):
        atlas.load_atlas(swapped)


def test_atlas_header_is_exactly_order_and_count(tmp_path, atlas_by_order):
    path = tmp_path / "atlas-2.txt"
    atlas.save_atlas(atlas_by_order[2], path)
    text = path.read_text(encoding="utf-8")
    assert text.startswith("atlas v1\norder 2\ncount 2\n")
    for old, new in (
        ("order 2", "ordr 2"),
        ("count 2", "cnt 2"),
        ("order 2", "order 2 junk"),
        ("count 2", "count 2 junk"),
        ("order 2", "order 02"),
        ("order 2", "order"),
        ("count 2", "count -1"),
        ("order 2", "order -2"),
    ):
        bad = tmp_path / "bad.txt"
        bad.write_text(text.replace(old, new, 1), encoding="utf-8")
        with pytest.raises(FormatError, match="^bad atlas header$"):
            atlas.load_atlas(bad)


def atlas_text(entries):
    """An atlas file in save_atlas's layout, written without its checks."""
    lines = ["atlas v1", f"order {entries[0].ring.order}", f"count {len(entries)}"]
    lines.extend(e.certificate.hex() for e in entries)
    return "\n".join(lines) + "\n\n" + "\n".join(rings.format_ringtab(e.ring) for e in entries)


def test_atlas_lists_each_class_once_by_ascending_certificate(tmp_path, atlas_by_order):
    entries = atlas_by_order[4]
    path = tmp_path / "atlas-4.txt"
    atlas.save_atlas(entries, path)
    assert path.read_text(encoding="utf-8") == atlas_text(entries)
    bad = tmp_path / "bad.txt"
    for listed in ([entries[1], entries[1]], entries[::-1], entries[:3] + entries[2:]):
        with pytest.raises(ValueError, match="^an atlas file holds each class once"):
            atlas.save_atlas(listed, bad)
        assert not bad.exists()
        bad.write_text(atlas_text(listed), encoding="utf-8")
        with pytest.raises(FormatError, match="^certificate lines are not strictly ascending$"):
            atlas.load_atlas(bad)
        bad.unlink()
    # A file with only some of the classes, in order, lists fewer than the
    # class count of its order (OEIS A027623).
    subset = tmp_path / "subset.txt"
    subset.write_text(atlas_text(entries[::3]), encoding="utf-8")
    with pytest.raises(FormatError, match="^an atlas of order 4 lists 11 classes, not 4$"):
        atlas.load_atlas(subset)
    # The empty file save_atlas([]) writes has order 0 and no classes.
    for header, message in (
        ("atlas v1\norder 0\ncount 1\n00\n", "an atlas of order 0 lists 0 classes, not 1"),
        ("atlas v1\norder 32\ncount 0\n", "no class count is known for order 32"),
    ):
        subset.write_text(header, encoding="utf-8")
        with pytest.raises(FormatError, match=f"^{message}$"):
            atlas.load_atlas(subset)
    assert atlas.CLASS_COUNTS[:15] == tuple(len(atlas.enumerate_rings(n, cap=15)) for n in range(1, 16))


def test_atlas_rows_split_only_at_newlines(tmp_path, atlas_by_order):
    # A form feed inside a row is whitespace, as parse_ringtab reads it;
    # text mode reads \r\n and \r line ends as \n.
    path = tmp_path / "atlas-2.txt"
    atlas.save_atlas(atlas_by_order[2], path)
    text = path.read_text(encoding="utf-8")
    assert "add\n0 1\n" in text
    variants = {
        "form-feed": text.replace("add\n0 1\n", "add\n0\x0c1\n", 1),
        "crlf": text.replace("\n", "\r\n"),
        "cr": text.replace("\n", "\r"),
    }
    expected = [(e.certificate, e.ring.add, e.ring.mul) for e in atlas_by_order[2]]
    for name, variant in variants.items():
        variant_path = tmp_path / f"{name}.txt"
        variant_path.write_bytes(variant.encode("utf-8"))
        loaded = atlas.load_atlas(variant_path)
        assert [(e.certificate, e.ring.add, e.ring.mul) for e in loaded] == expected, name


def test_worker_count_invariance_small():
    one = atlas.enumerate_rings(6, workers=1)
    two = atlas.enumerate_rings(6, workers=2)
    assert [e.certificate for e in one] == [e.certificate for e in two]
    assert [e.ring.add for e in one] == [e.ring.add for e in two]


# Every type of orders 4, 8 and 9, and four more within the scan budget.
FIRST_ROW_TYPES = [typ for n in (4, 8, 9) for typ in atlas.abelian_group_types(n)] + [
    (4, 4), (8, 2), (9, 3), (4, 2, 2)
]


def _every_first_row(typ):
    """The scan without first-row pruning: every allowed first row."""
    return tuple(itertools.product(*atlas._allowed(typ)[: len(typ)]))


def _by_first_product(rows):
    """Ascending rows grouped by e0*e0, the unit of a scan job before first
    rows."""
    return [tuple(group) for _, group in itertools.groupby(rows, key=lambda row: row[0])]


def test_each_chunk_certifies_each_class_once():
    # An orbit that misses a presentation certifies its class twice; one
    # that overreaches drops a class, which the class counts catch.  Chunks
    # of one e0*e0 value and of one first row are checked with the first-row
    # pruning, and chunks of one e0*e0 value without it.
    for n in (4, 8, 9):
        for typ in atlas.abelian_group_types(n):
            kept = atlas._first_rows(typ)
            chunks = _by_first_product(kept) + [(row,) for row in kept]
            chunks += _by_first_product(_every_first_row(typ))
            for rows in chunks:
                certs = atlas._chunk_certificates((typ, rows))
                assert len(certs) == len(set(certs)), (typ, rows)


def test_representative_scan_matches_the_full_first_product_scan():
    # Oracle: the scan without first-row pruning.  A class met at any first
    # row is also met at the least row of its Stab(e0) orbit, so the kept
    # rows certify the same classes as every allowed row with the same
    # e0*e0 values, and as unpruned chunks of one e0*e0 value over every
    # allowed e0*e0, each exactly once.
    for typ in FIRST_ROW_TYPES:
        kept = atlas._first_rows(typ)
        strided = [c for i in (0, 1) for c in atlas._chunk_certificates((typ, kept[i::2]))]
        whole = atlas._chunk_certificates((typ, kept))
        firsts = {row[0] for row in kept}
        rows = tuple(row for row in _every_first_row(typ) if row[0] in firsts)
        unpruned = atlas._chunk_certificates((typ, rows))
        assert set(strided) == set(whole) == set(unpruned), typ
        assert len(whole) == len(set(whole)) == len(unpruned) == len(set(unpruned)), typ
        if typ not in ((8, 2), (4, 2, 2)):
            full: set[bytes] = set()
            for chunk in _by_first_product(_every_first_row(typ)):
                full.update(atlas._chunk_certificates((typ, chunk)))
            assert full == set(whole), typ


def test_first_row_pruning_covers_every_tensor():
    # Over all first rows, the Aut(typ) orbits of the pruned scan's tensors
    # are exactly the tensors of the unpruned scan.
    for typ in FIRST_ROW_TYPES:
        tensors = atlas._scan_tensors(typ, atlas._first_rows(typ))
        orbits: set[tuple[int, ...]] = set()
        for products in tensors:
            table = np.array(rings.from_products(typ, products).mul, dtype=np.uint8)
            orbits.update(map(tuple, structure._aut_action(typ, table, slice(None))[:, ::-1].tolist()))
        unpruned = atlas._scan_tensors(typ, _every_first_row(typ))
        assert orbits == set(unpruned), typ
        if len(typ) > 1:
            assert len(tensors) < len(unpruned), typ


def test_first_row_mask_is_a_transversal_of_the_stab_orbits():
    # Rows are relabelled here by a plain loop: under phi fixing e0 the first
    # row L becomes phi^-1[e0*phi(e_j)], with e0*y = sum_t y_t L_t.
    kept_counts = {}
    for typ in FIRST_ROW_TYPES:
        group = addgroup.std_group(typ)
        k, e0 = len(typ), group.gens[0]
        stab = [phi for phi in addgroup.automorphism_perms(typ).tolist() if phi[e0] == e0]

        def relabel(row, phi):
            inverse = {x: i for i, x in enumerate(phi)}
            image = []
            for g in group.gens:
                acc = 0
                for t in range(k):
                    acc = group.add[acc][group.smul[group.digits[phi[g]][t]][row[t]]]
                image.append(inverse[acc])
            return tuple(image)

        first_rows = atlas._first_rows(typ)
        assert first_rows == tuple(sorted(set(first_rows))), typ
        assert all(type(row) is tuple for row in first_rows), typ
        kept = set(first_rows)
        allowed = set(itertools.product(*(group.annihilated_by(math.gcd(typ[0], m)) for m in typ)))
        assert kept <= allowed, typ
        seen: set[tuple[int, ...]] = set()
        orbits = 0
        for row in sorted(allowed):
            if row in seen:
                continue
            orbit = {relabel(row, phi) for phi in stab}
            assert row in orbit and orbit <= allowed, typ
            assert [r for r in sorted(orbit) if r in kept] == [min(orbit)], (typ, row)
            seen |= orbit
            orbits += 1
        assert len(kept) == orbits, typ
        kept_counts[typ] = orbits
        # The least e0*e0 of each Stab(e0) orbit, by the same loop.
        least = [v for v in group.annihilated_by(typ[0]) if v == min(phi[v] for phi in stab)]
        assert sorted({row[0] for row in first_rows}) == least, typ
    assert (kept_counts[(2, 2, 2)], kept_counts[(4, 2, 2)]) == (38, 84)
    assert kept_counts[(3, 3)] == 21
    for typ, firsts in (
        ((2, 2, 2), [0, 1, 4]),
        ((3, 3), [0, 1, 3, 6]),
        ((4, 2, 2), [0, 1, 4, 5, 8, 12]),
        ((8,), list(range(8))),
    ):
        assert sorted({row[0] for row in atlas._first_rows(typ)}) == firsts, typ


def test_serial_build_certifies_each_class_once(monkeypatch):
    # Machine-independent counts of a serial build of orders 1..15: one
    # certificate per class of each prime-power part and per direct sum,
    # each scan job's kept tables and each order's direct sums certified as
    # one stack, and one make_ring, for zn(1): the enumeration builds every
    # other table from rings or from a proof.
    def counting(module, name):
        calls = []
        original = getattr(module, name)

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
        return calls

    certificates = counting(structure, "ring_canonical_certificate")
    validations = counting(rings, "make_ring")
    stacks = counting(structure, "_canonical_stack")
    # Tensors the scan keeps, one first row per Stab(e0) orbit, and one scan
    # per job: each type of a serial build is one job.
    kept = []
    scan = atlas._scan_tensors

    def counted_scan(*args):
        tensors = scan(*args)
        kept.append(len(tensors))
        return tensors

    monkeypatch.setattr(atlas, "_scan_tensors", counted_scan)

    def counts():
        return (len(certificates), len(validations), len(stacks),
                sum(len(adds) for adds, _ in stacks))

    assert len(atlas.enumerate_rings(8)) == 52
    # Order 8 has three additive types, one scan job each.
    assert counts() == (0, 0, 3, 52)
    assert len(kept) == 3
    for n in range(1, 16):
        if n != 8:
            atlas.enumerate_rings(n, cap=15)
    assert counts() == (1, 1, 30, 154)
    assert (len(kept), sum(kept)) == (24, 744)


def test_enumeration_builds_only_rings(monkeypatch):
    # The oracle for the tables the enumeration builds without make_ring:
    # make_ring accepts every row of every scan job's stack (all kept
    # tensors, not only class representatives), every decoded certificate
    # and every direct sum of a build of orders 1..15, and the decoded
    # certificates and direct sums of seeded relabelings of its classes.
    def recording(module, name):
        calls = []
        original = getattr(module, name)

        def recorded(*args):
            result = original(*args)
            calls.append((args, result))
            return result

        monkeypatch.setattr(module, name, recorded)
        return calls

    stacks = recording(rings, "_bilinear_tables")
    decoded = recording(structure, "_canonical_ring")
    sums = recording(rings, "direct_sum")
    by_order = {n: atlas.enumerate_rings(n, cap=15) for n in range(1, 16)}
    monkeypatch.undo()

    def assert_ring(ring):
        assert rings.make_ring(ring.add, ring.mul, ring.label, ring.element_names) == ring

    # The 744 kept tensors of the 24 scan jobs, and zn(1).
    assert sum(len(tables) for _, tables in stacks) == 745
    for (typ, tensors), tables in stacks:
        assert len(tables) == len(tensors)
        for products, table in zip(tensors, tables):
            # from_products checks the table with make_ring, on a stack of one.
            assert rings.from_products(typ, products).mul == tuple(map(tuple, table.tolist()))
    # Each order decodes the classes of each of its prime-power parts.
    assert (len(decoded), len(sums)) == (116, 38)
    for _, ring in decoded + sums:
        assert_ring(ring)
    rng = random.Random(22)
    relabeled = {n: [relabel(e.ring, rng) for e in entries] for n, entries in by_order.items()}
    for n, copies in relabeled.items():
        for ring in copies:
            assert_ring(structure._canonical_ring(structure.ring_canonical_certificate(ring)))
        for m in range(2, 15 // n + 1):
            for r, s in itertools.product(copies, relabeled[m]):
                assert_ring(rings.direct_sum(r, s))


@pytest.fixture
def serial_pool(monkeypatch):
    """Run scan jobs in this process; returns the worker counts asked for."""
    pools = []

    class SerialPool:
        def __init__(self, max_workers):
            pools.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs):
            return map(fn, jobs)

    monkeypatch.setattr(atlas, "ProcessPoolExecutor", SerialPool)
    return pools


def test_worker_count_is_clamped_before_any_pool_starts(monkeypatch, serial_pool):
    serial = atlas.enumerate_rings(4)
    # Order 4 splits into fourteen scan jobs, one per first row: four for
    # (4) and ten for (2, 2).
    for cpus, expected in ((4, 4), (64, 14)):
        monkeypatch.setattr(atlas.os, "cpu_count", lambda: cpus)
        entries = atlas.enumerate_rings(4, workers=10**6)
        assert serial_pool[-1] == expected
        assert [e.certificate for e in entries] == [e.certificate for e in serial]
    monkeypatch.setattr(atlas.os, "cpu_count", lambda: None)
    atlas.enumerate_rings(4, workers=10**6)
    assert len(serial_pool) == 2


def test_one_job_per_first_row_matches_the_serial_build(monkeypatch, serial_pool):
    # The finest partition: no type of orders 1..15 has more than 64 first
    # rows, so every first row is its own job.
    serial = {n: atlas.enumerate_rings(n, cap=15) for n in range(1, 16)}
    jobs = []
    chunk = atlas._chunk_certificates

    def recorded_chunk(job):
        jobs.append(job)
        return chunk(job)

    monkeypatch.setattr(atlas, "_chunk_certificates", recorded_chunk)
    monkeypatch.setattr(atlas.os, "cpu_count", lambda: 64)
    for n in range(1, 16):
        entries = atlas.enumerate_rings(n, cap=15, workers=10**6)
        assert [e.certificate for e in entries] == [e.certificate for e in serial[n]], n
        assert [e.ring.mul for e in entries] == [e.ring.mul for e in serial[n]], n
    assert {len(rows) for _, rows in jobs} == {1}
    assert {(typ, rows[0]) for typ, rows in jobs} == {
        (typ, row) for typ, _ in jobs for row in atlas._first_rows(typ)
    }


def test_worker_counts_below_one_build_serially():
    serial = [e.certificate for e in atlas.enumerate_rings(8)]
    for workers in (0, -3):
        entries = atlas.enumerate_rings(8, workers=workers)
        assert [e.certificate for e in entries] == serial


def test_generator_presentation_products_respect_annihilators():
    typ = (4, 2)
    group = addgroup.std_group(typ)
    tensors = atlas._scan_tensors(typ, _every_first_row(typ))
    assert tensors
    for products in tensors:
        for i in range(2):
            for j in range(2):
                g = math.gcd(typ[i], typ[j])
                assert group.smul[g][products[i * 2 + j]] == 0


def _refuse(*_args, **_kwargs):
    raise AssertionError("called")


def test_entries_store_only_ring_and_certificate(tmp_path, monkeypatch, atlas_by_order):
    assert [f.name for f in dataclasses.fields(atlas.AtlasEntry)] == ["ring", "certificate"]
    path = tmp_path / "atlas-8.txt"
    atlas.save_atlas(atlas_by_order[8], path)
    monkeypatch.setattr(structure, "structure_report", _refuse)
    monkeypatch.setattr(graphs, "canonical_form", _refuse)
    for n in (4, 6, 8):
        entries = atlas.enumerate_rings(n)
        assert [e.certificate for e in entries] == [e.certificate for e in atlas_by_order[n]]
    loaded = atlas.load_atlas(path)
    assert [e.certificate for e in loaded] == [e.certificate for e in atlas_by_order[8]]


def test_entry_invariants_match_direct_computation(atlas_by_order):
    for entries in atlas_by_order.values():
        for entry in entries:
            graph = graphs.zero_divisor_graph(entry.ring)
            assert entry.graph_certificate == graphs.canonical_form(graph)


def test_entry_invariants_are_computed_once(monkeypatch):
    entry = atlas.make_entry(rings.zn(6))
    graph_certificate = entry.graph_certificate
    monkeypatch.setattr(graphs, "zero_divisor_graph", _refuse)
    monkeypatch.setattr(graphs, "canonical_form", _refuse)
    assert entry.graph_certificate is graph_certificate


# --- atlas files read as one batch ----------------------------------------------


def reference_load(path):
    """The per-entry loop `load_atlas` ran before it read a file as one
    batch: each block parsed and validated alone, then its order and its
    recomputed certificate checked.  It is the oracle for which entry, and
    which check, a faulty file fails first."""
    lines = path.read_text(encoding="utf-8").split("\n")
    count = int(lines[2].removeprefix("count "))
    order = int(lines[1].removeprefix("order "))
    certs = [bytes.fromhex(line) for line in lines[3:3 + count]]
    blocks = [b for b in "\n".join(lines[3 + count:]).split("\n\n") if b.strip()]
    entries = []
    for cert, block in zip(certs, blocks):
        ring = rings.parse_ringtab(block)
        if ring.order != order:
            raise FormatError(f"entry order {ring.order} does not match header {order}")
        if structure.ring_canonical_certificate(ring) != cert:
            raise FormatError("stored certificate does not match its ring")
        entries.append(atlas.make_entry(ring, certificate=cert))
    return entries


def failure(load, path):
    try:
        load(path)
    except (AxiomViolation, FormatError) as exc:
        return type(exc).__name__, str(exc), getattr(exc, "witness", None)
    return None


def relabeled_atlas_text(entries, rng):
    """An atlas file of the classes in `entries` whose blocks hold seeded
    relabelings of the stored rings, under their labels."""
    copies = [dataclasses.replace(relabel(e.ring, rng), label=e.ring.label) for e in entries]
    return atlas_text([atlas.AtlasEntry(r, e.certificate) for r, e in zip(copies, entries)])


def test_batch_load_matches_each_block_read_alone(tmp_path):
    rng = random.Random(21)
    path = tmp_path / "atlas.txt"
    for n in range(1, 16):
        entries = atlas.enumerate_rings(n, cap=15)
        for text in (atlas_text(entries), relabeled_atlas_text(entries, rng)):
            path.write_text(text, encoding="utf-8")
            loaded = atlas.load_atlas(path)
            body = text.split("\n\n", 1)[1]
            parsed = [rings.parse_ringtab(block) for block in body.split("\n\n")]
            assert [e.ring for e in loaded] == parsed
            assert [e.certificate for e in loaded] == [e.certificate for e in entries]
            assert [e.certificate for e in loaded] == [
                structure.ring_canonical_certificate(ring) for ring in parsed]


def _faults(entries):
    """name -> function that puts one fault into ringtab block i of the
    blocks of `entries`."""
    order2 = rings.format_ringtab(rings.zn(2))

    def bad_token(blocks, i):
        lines = blocks[i].split("\n")
        row = lines.index("add") + 2
        lines[row] = lines[row].replace("1", "x", 1)
        blocks[i] = "\n".join(lines)

    def axioms(blocks, i):
        lines = blocks[i].split("\n")
        row = lines.index("mul") + 2
        cells = lines[row].split()
        cells[1] = str((int(cells[1]) + 1) % len(cells))
        lines[row] = " ".join(cells)
        blocks[i] = "\n".join(lines)

    def order(blocks, i):
        blocks[i] = order2

    def certificate(blocks, i):
        blocks[i] = rings.format_ringtab(entries[(i + 1) % len(entries)].ring)

    return {"bad token": bad_token, "axioms": axioms, "order": order, "certificate": certificate}


@pytest.mark.parametrize("written_form", [True, False], ids=["block", "token"])
def test_batch_load_reports_the_first_faulty_entry(tmp_path, atlas_by_order, written_form):
    entries = atlas_by_order[4]
    faults = _faults(entries)
    path = tmp_path / "atlas-4.txt"
    head, body = atlas_text(entries).split("\n\n", 1)
    seen = set()
    for (first, put_first), (second, put_second) in itertools.product(faults.items(), repeat=2):
        for i, j in ((2, 7), (7, 2), (0, 10)):
            blocks = body.split("\n\n")
            put_first(blocks, i)
            put_second(blocks, j)
            if not written_form:
                # A tab inside a row takes every block off the one-read path.
                lines = blocks[5].split("\n")
                row = lines.index("add") + 1
                lines[row] = lines[row].replace(" ", "\t", 1)
                blocks[5] = "\n".join(lines)
                assert rings._read_ringtabs(blocks, 4) is None
            path.write_text(head + "\n\n" + "\n\n".join(blocks), encoding="utf-8")
            expected = failure(reference_load, path)
            assert expected is not None
            assert failure(atlas.load_atlas, path) == expected, (first, i, second, j)
            seen.add(expected[1].split(" fails at")[0])
    assert seen >= {"non-integer entry in add table", "entry order 2 does not match header 4",
                    "stored certificate does not match its ring"}
    assert any(kind in seen for kind in rings._CUBIC_LAWS + ("add-commutative", "zero-identity"))
