"""Golden bytes: atlas files and verify output pinned by sha256.

A change that promises the same answers must leave these hashes alone.  The
atlas hashes cover the `save_atlas` bytes of orders 1..15 (certificates and
ringtab blocks), order 12 also from a two-process build; the verify hashes cover the full stdout of each scenario
run against the session atlas directory; the `ring info` hashes cover the
report of family rings, the order-64 hashes cover the structure report and
decomposition of null rings, and the corrupted tables pin the exact axiom and
witness that validation prints.  The family hashes cover the tables, label
and element names of every family builder over a parameter grid, and the
refusals pin what `ring build` prints for bad parameters.  The derived hashes
cover direct sums, matrix rings, quotients and generated subrings built from
atlas and family rings, and the standard groups of small types.  The identity
hashes cover the exit code and stdout of `identity check`.
"""

import functools
import hashlib
import itertools
import os

import pytest

from finring import addgroup, atlas, cli, rings, scenarios, structure
from finring.errors import OrderCapExceeded

ATLAS_SHA256 = {
    1: "cb929b800d4f7530f13d4aefec2722b41c77cc00bdbfdc333b645ea4dc401dad",
    2: "bd2e3a727edf92da691f4dc89376911fce3c7fed56af86166b537d86eb22e756",
    3: "ca76c02193f13da0a385de7fd476faa795818f6f870fd88c867ef6e3891233a6",
    4: "7776313cf7a1f6d93ceb9408d4838e83ef162c4b375468b650aa55e5ff65efe9",
    5: "ca7c6fb5e620ffb328ab2a5ab76804367edf1073953c7560d54995adf0746d87",
    6: "46610367fccf0a185d467224b46d9c49f2ccd7988fdb61d4de7d8bf545a41e68",
    7: "e144ae138b31b4545f85abb475c4ffe82da492f5edd4648fd3a4691ce35e24a8",
    8: "e17b8eba69d96a9e19b1630aea4f1c67a1817282497a41158d9b1a51c0eae4c8",
    9: "be1923a483f0d2547a7a68b92e2194415a9e19a981bbffae08f10d6e4be421e9",
    10: "afe3ff198742eacb7b59bccab456af8f3f61ed383a8bc044fe5768496e1a751f",
    11: "faf13b77e6ec4e79f6181b05a0ee6acb74ead968f8653bee88954043417206cd",
    12: "bcc1360b2568b01700b07e31b5a514ba03e174de0c968192e9dc6570c788138b",
    13: "1229b4bf8a537601989747b1e05f441c6383012d2b52f645ee0def712c264d9a",
    14: "2e40fc29c2c3858a4c87836241fcea5a0d9223c272c40e9bbe50e19ca93249f3",
    15: "6d9326e08849bbfa45fcfbd38d5f9c0d081f64081db75c12797428004d7bab50",
}

VERIFY_SHA256 = {
    "cor1": "b94d99ba7a9dc598c83e491fd13e15539eae66c36110d87830016e8b45290784",
    "prop5": "dd3d8079cec66407dcecd5bc3b1e02175b054c204607d11990897a3ee022bd2b",
    "prop4-counterexample": "c802d94b060fb8bc1f260ae5a173b2a718e4299dd2374840f62f8a9895dcac87",
    "tn4-identities": "0b6af52f5685ce2e0adb43db56039e413b1938870d92da7b6ef973c649b5512e",
    "theorem3-shape": "ea771d54528da7d003d71723635ec4c82fca12887a3608aa6ac453e6bf27f6e4",
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("n", range(1, 10))
def test_atlas_file_bytes(atlas_dir, n):
    with open(os.path.join(atlas_dir, f"atlas-{n}.txt"), "rb") as fh:
        assert _sha256(fh.read()) == ATLAS_SHA256[n]


def _built_atlas_bytes(tmp_path, n, workers=1):
    path = tmp_path / f"atlas-{n}.txt"
    atlas.save_atlas(atlas.enumerate_rings(n, cap=15, workers=workers), path)
    return path.read_bytes()


@pytest.mark.parametrize("n", range(10, 16))
def test_atlas_file_bytes_above_the_default_cap(tmp_path, n):
    assert _sha256(_built_atlas_bytes(tmp_path, n)) == ATLAS_SHA256[n]


def test_two_process_atlas_build_bytes(tmp_path, monkeypatch):
    # Two CPUs, so that the build really runs its jobs in a pool of two.
    monkeypatch.setattr(atlas.os, "cpu_count", lambda: 2)
    assert _sha256(_built_atlas_bytes(tmp_path, 12, workers=2)) == ATLAS_SHA256[12]


@pytest.mark.parametrize("name", scenarios.SCENARIO_NAMES)
def test_verify_stdout_bytes(atlas_dir, capsys, monkeypatch, name):
    monkeypatch.delenv(cli.ENUM_CAP_VAR, raising=False)
    code = cli.main(["verify", name, "--atlas-dir", str(atlas_dir)])
    out = capsys.readouterr().out
    assert code == 0
    assert _sha256(out.encode("utf-8")) == VERIFY_SHA256[name]


RING_INFO_SHA256 = {
    "M2(Z2)": (lambda: rings.matrix_ring(rings.zn(2), 2),
               "04a6c7939f15d6bc08d58860c930b117ae36d2f0ec420fdfcd4aa3a97d703a41"),
    "GF(16)": (lambda: rings.gf(2, 4),
               "789de8972202ba7e201ce3cdb70d011c3cc680e6d0f27ac005b417a35dc0e59f"),
    "GF(27)": (lambda: rings.gf(3, 3),
               "47b811cbf402b5c2a21babfc535a5cda364beceeca010c22506ff1a55a957e40"),
    "GF(49)": (lambda: rings.gf(7, 2),
               "cef9441950bfd7d2bd0a39d4ad541813250101fbe27098bb1bee9f4a84da1dde"),
    "Z2^6": (lambda: functools.reduce(rings.direct_sum, [rings.zn(2)] * 6),
             "bdc12f48e68a5ab9d1b1c6413a7de92c7ebab1bb3ea15c3f7988950403ebba49"),
}


@pytest.mark.parametrize("name", sorted(RING_INFO_SHA256))
def test_ring_info_stdout_bytes(tmp_path, capsys, name):
    build, digest = RING_INFO_SHA256[name]
    path = tmp_path / "ring.txt"
    rings.write_ringtab(build(), path)
    code = cli.main(["ring", "info", str(path)])
    out = capsys.readouterr().out
    assert code == 0
    assert _sha256(out.encode("utf-8")) == digest


def _null_ring(typ):
    return rings.from_products(typ, (0,) * len(typ) ** 2)


# Order-64 null rings with large ideal lattices: the structure report text,
# and the `decompose` members, one component a line.
ORDER_64_STRUCTURE_SHA256 = {
    "null(2,2,2,2,2,2)": (
        lambda: _null_ring((2,) * 6),
        "0e4e9aae54122fc56b5fb414e32acd311d19ffd4152f385e39998d8fc0522784",
        "30f8e4f6835c261567ba45f6c338ae0cfaffa692c8160fa4cb60b64b104cf285"),
    "null(4,2,2,2,2)": (
        lambda: _null_ring((4, 2, 2, 2, 2)),
        "daffd5ff52cab76ef9eee1c0ec722c203ab084a0a5b39c7caa8ebcbffa17e248",
        "282c3e2731e454fdd1da89c89cf51a5fdc2cb4838b5acdeb4df558dee72b9751"),
    "null(2,2,2,2,2)+Z2": (
        lambda: rings.direct_sum(_null_ring((2,) * 5), rings.zn(2)),
        "51f1272fc56cedd547b329abc0985219976f37e11b59c05dec90b7aa034d2f60",
        "03511c9c9a082dd49d2f5d01a11f5847d5cafac04e915b914a1aaadb4c2ed638"),
}


@pytest.mark.parametrize("name", sorted(ORDER_64_STRUCTURE_SHA256))
def test_order_64_structure_bytes(name):
    build, report_digest, parts_digest = ORDER_64_STRUCTURE_SHA256[name]
    ring = build()
    assert _sha256(structure.structure_report(ring).to_text().encode("utf-8")) == report_digest
    parts = "".join(" ".join(map(str, part.members)) + "\n" for part in structure.decompose(ring))
    assert _sha256(parts.encode("utf-8")) == parts_digest


# One table cell changed in a family ring: (table, row, column, new value)
# and the exact stderr of `ring info` on the unlabeled ringtab file.
CORRUPTED_RING_INFO = {
    4: (lambda: rings.zn(4), ("mul", 1, 1, 2),
        "error: left-distributive fails at (1, 1, 1)\n"),
    9: (lambda: rings.gf(3, 2), ("mul", 8, 4, 6),
        "error: right-distributive fails at (1, 7, 4)\n"),
    16: (lambda: rings.gf(2, 4), ("mul", 3, 15, 12),
         "error: right-distributive fails at (1, 2, 15)\n"),
    27: (lambda: rings.gf(3, 3), ("mul", 1, 7, 24),
         "error: left-distributive fails at (1, 1, 6)\n"),
    32: (lambda: rings.zn(32), ("mul", 3, 5, 16),
         "error: mul-associative fails at (2, 3, 5)\n"),
    64: (lambda: rings.gf(2, 6), ("add", 40, 41, 0),
         "error: add-commutative fails at (40, 41)\n"),
    256: (lambda: rings.matrix_ring(rings.zn(4), 2), ("mul", 200, 100, 1),
          "error: mul-associative fails at (1, 200, 100)\n"),
}


@pytest.mark.parametrize("order", sorted(CORRUPTED_RING_INFO))
def test_ring_info_corrupted_table_stderr(tmp_path, capsys, order):
    build, (which, i, j, v), expected = CORRUPTED_RING_INFO[order]
    ring = build()
    tables = {"add": [list(row) for row in ring.add], "mul": [list(row) for row in ring.mul]}
    tables[which][i][j] = v
    lines = ["ringtab 1", f"order {order}", "add"]
    lines += [" ".join(map(str, row)) for row in tables["add"]]
    lines.append("mul")
    lines += [" ".join(map(str, row)) for row in tables["mul"]]
    path = tmp_path / "ring.txt"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    code = cli.main(["ring", "info", str(path)])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (2, "", expected)


# Family rings over a grid of parameters: one sha256 per family of the
# (label, add, mul, element_names) reprs of its rings in grid order.
_PRIMES = (2, 3, 5, 7, 11)
_PRIME_POWERS = [(p, k) for p in _PRIMES for k in range(1, 8) if p ** k <= 128]
FAMILY_GRID_SHA256 = {
    "zn": ([(n,) for n in range(1, 61)],
           "f553d16b0cb8caf1babac9411c586ab5ba16d20aa7f0dbc27cfcd1a8f79a3651"),
    "gf": (_PRIME_POWERS + [(2, 8)],
           "1f419bf5df2c2c301e48b98fe6007da6816a1f82c96e516c223170215592ecaa"),
    "n0": (_PRIME_POWERS,
           "dc01e7dffedeab25a90ed18c7dbec85b35885062cfc0c0033b37773ed8a0c3e8"),
    "np2": ([(p,) for p in _PRIMES],
            "458e833bdda11cfc5d7e7547237470654616c6cd9ceec86e4201ba18b7731d64"),
    "npp": ([(p,) for p in _PRIMES],
            "48711ddc3b7b7c41e81850e7af6fa2c4d20659c6480979cf88add23ac26f41bc"),
    "ap": ([(p,) for p in _PRIMES],
           "d2407db545a4de87d58094dc4b0a36d110afaac54e6e4c5dbdeb5f709e713603"),
    "ap0": ([(p,) for p in _PRIMES],
            "b760547de0ee81d26cc3d12b947938de3d3ecaf286d08f08bb05c90ad8ddad92"),
    "zpx2": ([(p,) for p in _PRIMES],
             "6fbf3ef49697a8203d8d02c960efc4113a34ee031baabf719453f119fd8c088e"),
}


@pytest.mark.parametrize("family", sorted(FAMILY_GRID_SHA256))
def test_family_table_bytes(family):
    grid, digest = FAMILY_GRID_SHA256[family]
    build = cli._INT_FAMILIES[family][0]
    h = hashlib.sha256()
    for args in grid:
        ring = build(*args)
        h.update(repr((ring.label, ring.add, ring.mul, ring.element_names)).encode())
    assert h.hexdigest() == digest


FAMILY_BUILD_ERRORS = {
    ("zn", "0"): (2, "error: order must be at least 1\n"),
    ("zn", "257"): (3, "error: order 257 exceeds the cap of 256\n"),
    ("gf", "4", "2"): (2, "error: 4 is not prime\n"),
    ("gf", "2", "0"): (2, "error: extension degree must be at least 1\n"),
    ("npp", "15"): (2, "error: 15 is not prime\n"),
}


@pytest.mark.parametrize("argv", sorted(FAMILY_BUILD_ERRORS))
def test_family_build_refusals(capsys, argv):
    code = cli.main(["ring", "build", *argv])
    captured = capsys.readouterr()
    expected_code, expected_err = FAMILY_BUILD_ERRORS[argv]
    assert (code, captured.out, captured.err) == (expected_code, "", expected_err)


# Rings derived from the atlas of orders 1..9 and from small families: one
# sha256 per builder over the reprs of (label, add, mul, element_names), with
# the embedding of each generated subring and the message of each matrix ring
# over the cap.  Every ring hashed here is validated as it is built.
def _ring_bytes(ring, *extra):
    return repr((ring.label, ring.add, ring.mul, ring.element_names, *extra))


def _direct_sums(atlas_rings):
    for i, r in enumerate(atlas_rings):
        for s in atlas_rings[i:]:
            if r.order * s.order <= 64:
                yield _ring_bytes(rings.direct_sum(r, s))


def _matrix_rings(atlas_rings):
    bases = [rings.zn(n) for n in range(1, 5)] + [rings.gf(2, 2), rings.npp(2)]
    for base in bases:
        for k in range(1, 5):
            try:
                yield _ring_bytes(rings.matrix_ring(base, k))
            except OrderCapExceeded as exc:
                yield str(exc)


def _quotients(atlas_rings):
    for ring in atlas_rings:
        for ideal in structure.ideals(ring):
            yield _ring_bytes(rings.quotient(ring, ideal))


def _subrings(atlas_rings):
    for ring in atlas_rings:
        for x in range(ring.order):
            yield _ring_bytes(*rings.subring_generated(ring, {x}))


DERIVED_SHA256 = {
    _direct_sums:
        "357e2f03129092532488ed0f29e645b718383c8ef519961e718e53dca6cbc284",
    _matrix_rings:
        "adba3f8e260fe5a419fb81fee1997948f6c214e8439e52386438870c732cc830",
    _quotients:
        "cd364c47501b754e5306cdf31b36d81cb8409ea0dd0b86ec746c369d31add317",
    _subrings:
        "ce37df98af9e01ef083622fb2706da8680e06dc814296ae24d6ca617463702a0",
}


@pytest.mark.parametrize("build", list(DERIVED_SHA256), ids=lambda f: f.__name__[1:])
def test_derived_ring_bytes(atlas_by_order, build):
    atlas_rings = [entry.ring for n in sorted(atlas_by_order) for entry in atlas_by_order[n]]
    h = hashlib.sha256()
    for item in build(atlas_rings):
        h.update(item.encode())
    assert h.hexdigest() == DERIVED_SHA256[build]


STD_GROUP_TYPES = [typ for n in range(1, 17) for typ in atlas.abelian_group_types(n, cap=16)]
STD_GROUP_TYPES += [(2,) * 8, (4, 4, 4, 4), (16, 16), (3,) * 5]
STD_GROUP_SHA256 = "fa4d947fd04a7a71755ed8f5cbafed4c155f045af4202336264fbad1e36343e4"


def test_std_group_bytes():
    h = hashlib.sha256()
    for typ in STD_GROUP_TYPES:
        h.update(repr(addgroup.std_group(typ)).encode())
    assert h.hexdigest() == STD_GROUP_SHA256


# `identity check` output: one sha256 over the exit code and stdout of every
# call.  The sweep runs each atlas ring of orders 1..9 against a fixed list of
# polynomials; the named cases add the standard polynomials on M2(Z2) and
# GF(4), and relabeled rings whose least counterexample lies late in
# lexicographic order.
def standard_text(k):
    """The standard polynomial s_k as text."""
    parts = []
    for perm in itertools.permutations(range(1, k + 1)):
        inversions = sum(1 for i in range(k) for j in range(i + 1, k) if perm[i] > perm[j])
        word = "".join(f"x{v}" for v in perm)
        parts.append(word if not parts else ("- " if inversions % 2 else "+ ") + word)
    return " ".join(parts)


def _late_first(ring, early):
    """A copy of `ring` whose elements with early(x) come first, zero kept at
    0 and ties in index order, so counterexamples move late."""
    n = ring.order
    perm = [0] * n
    order = sorted(range(1, n), key=lambda x: not early(x))
    for new, old in enumerate(order, start=1):
        perm[old] = new
    inv = [0] + order
    add = [[perm[ring.add[inv[x]][inv[y]]] for y in range(n)] for x in range(n)]
    mul = [[perm[ring.mul[inv[x]][inv[y]]] for y in range(n)] for x in range(n)]
    return rings.make_ring(add, mul)


def _idempotents_first(ring):
    return _late_first(ring, lambda x: ring.mul[x][x] == x)


def _central_first(ring):
    return _late_first(ring, lambda x: all(ring.mul[x][y] == ring.mul[y][x] for y in range(ring.order)))


def _z2_5_z4():
    return functools.reduce(rings.direct_sum, [rings.zn(2)] * 5 + [rings.zn(4)])


def _z4_part_last(ring):
    # In a direct sum ending in Z4, element x has Z4 component x % 4.
    return _late_first(ring, lambda x: x % 4 == 0)


def _m2z2():
    return rings.matrix_ring(rings.zn(2), 2)


IDENTITY_SWEEP_POLYS = ["xy - yx", "xyz", "x^2 - x", "4x", "[x,y]z", "-xy + x^2y", "xy + x", "0"]
IDENTITY_SWEEP_SHA256 = "7018fcd579cee72bc264e86ad8260087e0114792c29728fabc352bde408f9314"
IDENTITY_CASES_SHA256 = {
    "s3 M2(Z2)": (
        _m2z2, standard_text(3),
        "23f8d424a59cc0c38846b2dbe1f0f091f49f01f46737f68c3b3298ce9faee52e"),
    "s4 M2(Z2)": (
        _m2z2, standard_text(4),
        "e0b2541ebaa4caf355cb548eba737f9caaa67906bb4ce4cef41f55628b525eec"),
    "s3 GF(4)": (
        lambda: rings.gf(2, 2), standard_text(3),
        "215b252fde10ccd5ce825d5111e91cfa2acf55d4f2a20e9192ba559a8092a673"),
    "s4 GF(4)": (
        lambda: rings.gf(2, 2), standard_text(4),
        "e0b2541ebaa4caf355cb548eba737f9caaa67906bb4ce4cef41f55628b525eec"),
    "x^2-x Z2^5+Z4": (
        lambda: _idempotents_first(_z2_5_z4()), "x^2 - x",
        "25c837a184e56d38a86b7cc10fdf54a922cdb1973814da404352c05c6014adc3"),
    "(x^2-x)y Z2^5+Z4": (
        lambda: _z4_part_last(_z2_5_z4()), "(x^2 - x)y",
        "d0c9204c1bcd217ea279e791b50d965222b6a196fdecfeb36a7a2375107ef29a"),
    "x(y^2-y) Z2^5+Z4": (
        lambda: _z4_part_last(_z2_5_z4()), "x(y^2 - y)",
        "efb536cef7b0b1fca2632a696a6c880e6665a7aba4fa74707f7298e8119bc479"),
    "x(y^2-y)z Z2^5+Z4": (
        lambda: _z4_part_last(_z2_5_z4()), "x(y^2 - y)z",
        "caf8b5afc427bc997ead222f7f0f1506c2c0c028575c345920bbcc498e20cb9e"),
    "xy-yx M2(Z2)+GF(4)": (
        lambda: _central_first(rings.direct_sum(_m2z2(), rings.gf(2, 2))), "xy - yx",
        "059f8e2c3c9bd3aa3ec83f877f635f14cef023648d8e1b707a8806df10bead20"),
    "[x,y]z M2(Z2)": (
        lambda: _central_first(_m2z2()), "[x,y]z",
        "adcc82fbb9e8ed4a8d53f9af04e5632775df9c2367f8184be0515e03b7c0002c"),
    "s3 M2(Z2) central first": (
        lambda: _central_first(_m2z2()), standard_text(3),
        "ba4e60d0f5b626f1c9d79bf804364fe90c2f85ef3573e102745f0fa3f4e96da5"),
}


def _identity_output(capsys, path, text):
    code = cli.main(["identity", "check", str(path), text])
    out = capsys.readouterr().out
    return f"{code}\n{out}".encode()


def test_identity_check_sweep_bytes(tmp_path, capsys, atlas_by_order):
    path = tmp_path / "ring.txt"
    h = hashlib.sha256()
    for n in sorted(atlas_by_order):
        for entry in atlas_by_order[n]:
            rings.write_ringtab(entry.ring, path)
            for text in IDENTITY_SWEEP_POLYS:
                h.update(_identity_output(capsys, path, text))
    assert h.hexdigest() == IDENTITY_SWEEP_SHA256


@pytest.mark.parametrize("name", sorted(IDENTITY_CASES_SHA256))
def test_identity_check_case_bytes(tmp_path, capsys, name):
    build, text, digest = IDENTITY_CASES_SHA256[name]
    path = tmp_path / "ring.txt"
    rings.write_ringtab(build(), path)
    assert _sha256(_identity_output(capsys, path, text)) == digest
