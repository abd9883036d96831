import hashlib
import shutil
import subprocess
import sys
import time

import pytest

from finring import atlas, cli, freealg, graphs, rings, structure
from finring.errors import FinringError

from test_atlas import atlas_text


def run_cli(args, capsys):
    code = cli.main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_ring_build_stdout(capsys):
    code, out, _ = run_cli(["ring", "build", "zn", "2"], capsys)
    assert code == 0
    assert out == rings.format_ringtab(rings.zn(2))


def test_ring_build_and_info(tmp_path, capsys):
    path = str(tmp_path / "n4.ring")
    code, out, _ = run_cli(["ring", "build", "np2", "2", "--out", path], capsys)
    assert code == 0 and out == ""
    code, out, _ = run_cli(["ring", "info", path], capsys)
    assert code == 0
    assert "is_nilpotent: 3" in out
    assert "characteristic: 4" in out


def test_ring_info_z9(tmp_path, capsys):
    path = str(tmp_path / "z9.ring")
    run_cli(["ring", "build", "zn", "9", "--out", path], capsys)
    code, out, _ = run_cli(["ring", "info", path], capsys)
    assert code == 0
    assert "is_local: true" in out
    assert "jacobson_radical: 0 3 6" in out


def test_ring_build_not_prime(capsys):
    code, _, err = run_cli(["ring", "build", "gf", "4", "2"], capsys)
    assert code == 2
    assert "not prime" in err


def test_ring_build_usage_errors(capsys):
    for args, usage in (
        (["zn"], "zn <n>"),
        (["gf", "2"], "gf <p> <k>"),
        (["n0", "2", "x"], "n0 <p> <n>"),
        (["zpx2", "3", "1"], "zpx2 <p>"),
    ):
        code, _, err = run_cli(["ring", "build", *args], capsys)
        assert code == 2
        assert f"expected {usage}" in err
    code, _, err = run_cli(["ring", "build", "foo"], capsys)
    assert code == 2 and "unknown family 'foo'" in err


def test_ring_build_quotient_and_sum(tmp_path, capsys):
    z9 = str(tmp_path / "z9.ring")
    run_cli(["ring", "build", "zn", "9", "--out", z9], capsys)
    code, out, _ = run_cli(["ring", "build", "quotient", z9, "0,3,6"], capsys)
    assert code == 0 and "order 3" in out
    code, _, err = run_cli(["ring", "build", "quotient", z9, "0,3"], capsys)
    assert code == 2
    z2 = str(tmp_path / "z2.ring")
    run_cli(["ring", "build", "zn", "2", "--out", z2], capsys)
    code, out, _ = run_cli(["ring", "build", "sum", z2, z2], capsys)
    assert code == 0 and "order 4" in out


def test_ring_build_matrix_stdout(tmp_path, capsys):
    z2 = str(tmp_path / "z2.ring")
    run_cli(["ring", "build", "zn", "2", "--out", z2], capsys)
    assert run_cli(["ring", "build", "matrix", z2, "2"], capsys) == (
        0, rings.format_ringtab(rings.matrix_ring(rings.zn(2), 2)), "")


def test_ring_build_ring_families_need_two_arguments(tmp_path, capsys):
    z2 = str(tmp_path / "z2.ring")
    run_cli(["ring", "build", "zn", "2", "--out", z2], capsys)
    for family, usage in (("sum", "sum <ringtab-a> <ringtab-b>"), ("matrix", "matrix <ringtab> <k>"),
                          ("quotient", "quotient <ringtab> <members e.g. 0,3,6>")):
        assert run_cli(["ring", "build", family, z2], capsys) == (2, "", f"error: expected {usage}\n")


def test_ring_build_quotient_needs_a_two_sided_ideal(tmp_path, capsys):
    # {0, 2} is a right ideal of A2 but not a left one, and the reverse in A0_2.
    for family, side, product in (("ap", "right", "2 * 1"), ("ap0", "left", "1 * 2")):
        path = str(tmp_path / f"{family}.ring")
        run_cli(["ring", "build", family, "2", "--out", path], capsys)
        assert run_cli(["ring", "build", "quotient", path, "0,2"], capsys) == (
            2, "", f"error: not closed under {side} multiplication: {product}\n")


@pytest.mark.parametrize("text, message", [
    ("ringtab 1\n", "unexpected end of ringtab input"),
    ("ringtab 1\norder 1\nlabel x\n", "unexpected end of ringtab input"),
    ("ringtab 1\norder 1\nadd\n0\n", "unexpected end of ringtab input"),
    ("ringtab 1\norder 0\nadd\nmul\n", "table-shape fails at (0,): a ring needs at least the zero element"),
], ids=["header", "label", "add", "order-0"])
def test_ring_info_refuses_a_short_ringtab(tmp_path, capsys, text, message):
    path = tmp_path / "short.ring"
    path.write_text(text, encoding="utf-8")
    assert run_cli(["ring", "info", str(path)], capsys) == (2, "", f"error: {message}\n")


def test_zdg_graph_and_dot(tmp_path, capsys):
    gf4 = str(tmp_path / "gf4.ring")
    run_cli(["ring", "build", "gf", "2", "2", "--out", gf4], capsys)
    code, out, _ = run_cli(["zdg", "graph", gf4], capsys)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "0 vertices, 0 edges"
    assert lines[1] == "certificate " + "G1;n=0;".encode().hex()
    n4 = str(tmp_path / "n4.ring")
    dot = str(tmp_path / "n4.dot")
    run_cli(["ring", "build", "np2", "2", "--out", n4], capsys)
    code, out, _ = run_cli(["zdg", "graph", n4, "--dot", dot], capsys)
    assert code == 0 and out.splitlines()[0] == "3 vertices, 2 edges"
    with open(dot, encoding="utf-8") as fh:
        assert "0 -- 1;" in fh.read()


def test_zdg_graph_over_the_cap_prints_no_half_result(tmp_path, capsys):
    path = str(tmp_path / "z256.ring")
    rings.write_ringtab(rings.zn(256), path)
    assert run_cli(["zdg", "graph", path], capsys) == (
        3, "", "error: graph has 127 vertices, cap is 64\n")


def test_zdg_iso_exit_codes(tmp_path, capsys):
    n4 = str(tmp_path / "n4.ring")
    mix = str(tmp_path / "mix.ring")
    z9 = str(tmp_path / "z9.ring")
    n02 = str(tmp_path / "n02.ring")
    z2 = str(tmp_path / "z2.ring")
    run_cli(["ring", "build", "np2", "2", "--out", n4], capsys)
    run_cli(["ring", "build", "n0", "2", "1", "--out", n02], capsys)
    run_cli(["ring", "build", "zn", "2", "--out", z2], capsys)
    run_cli(["ring", "build", "sum", n02, z2, "--out", mix], capsys)
    run_cli(["ring", "build", "zn", "9", "--out", z9], capsys)
    code, out, _ = run_cli(["zdg", "iso", n4, mix], capsys)
    assert code == 0 and out.startswith("isomorphic")
    code, out, _ = run_cli(["zdg", "iso", z9, n4], capsys)
    assert code == 1 and "not isomorphic" in out


def test_zdg_iso_needs_two_files(capsys):
    for paths in ([], ["a.ring"]):
        with pytest.raises(SystemExit) as exc:
            cli.main(["zdg", "iso", *paths])
        assert exc.value.code == 2
        assert "the following arguments are required" in capsys.readouterr().err


def test_identity_check(tmp_path, capsys):
    n4 = str(tmp_path / "n4.ring")
    run_cli(["ring", "build", "np2", "2", "--out", n4], capsys)
    suite = tmp_path / "t.suite"
    suite.write_text("# identities\nxyz\n4x\n2xy\n2x+x^2\n")
    code, out, _ = run_cli(["identity", "check", n4, str(suite)], capsys)
    assert code == 0
    assert out.count("PASS") == 4
    z4 = str(tmp_path / "z4.ring")
    run_cli(["ring", "build", "zn", "4", "--out", z4], capsys)
    code, out, _ = run_cli(["identity", "check", z4, "2x"], capsys)
    assert code == 1
    assert "FAIL 2x at x=1" in out
    code, _, err = run_cli(["identity", "check", z4, "2x + ("], capsys)
    assert code == 2


def test_identity_check_refuses_large_expansion(tmp_path, capsys, monkeypatch):
    z2 = str(tmp_path / "z2.ring")
    run_cli(["ring", "build", "zn", "2", "--out", z2], capsys)
    # 300 x 300 terms is over the limit before anything is multiplied.
    wide = "(" + " + ".join(f"x{i}" for i in range(1, 301)) + ")^2"
    code, _, err = run_cli(["identity", "check", z2, wide], capsys)
    assert code == 3 and "over the limit" in err
    monkeypatch.setattr(freealg, "MAX_EXPANSION", 1 << 8)
    code, _, err = run_cli(["identity", "check", z2, "(x+y)^40"], capsys)
    assert code == 3 and "over the limit" in err


def test_atlas_build_counts(capsys):
    code, out, _ = run_cli(["atlas", "build", "4"], capsys)
    assert code == 0
    assert out == "11 classes\n"


def test_atlas_build_cap(capsys):
    code, _, err = run_cli(["atlas", "build", "16"], capsys)
    assert code == 3


def test_atlas_env_override(capsys, monkeypatch):
    monkeypatch.setenv(cli.ENUM_CAP_VAR, "12")
    code, out, _ = run_cli(["atlas", "build", "12"], capsys)
    assert code == 0
    assert out.splitlines()[0] == "# enumeration cap override: 12 (FINRING_ENUM_CAP)"
    assert "22 classes" in out
    monkeypatch.setenv(cli.ENUM_CAP_VAR, "99")
    code, _, err = run_cli(["atlas", "build", "4"], capsys)
    assert code == 2


def test_atlas_build_refuses_bad_input(capsys, monkeypatch):
    assert run_cli(["atlas", "build", "0"], capsys) == (2, "", "error: order must be at least 1\n")
    monkeypatch.setenv(cli.ENUM_CAP_VAR, "x")
    assert run_cli(["atlas", "build", "4"], capsys) == (
        2, "", "error: FINRING_ENUM_CAP must be an integer, got 'x'\n")


def test_atlas_query(atlas_dir, capsys):
    code, out, _ = run_cli(
        ["atlas", "query", "--graph", "K2", "--max-order", "9", "--atlas-dir", str(atlas_dir)],
        capsys,
    )
    assert code == 0
    assert "4 matches" in out
    orders = sorted(
        int(line.split()[1]) for line in out.splitlines() if line.startswith("order")
    )
    assert orders == [3, 4, 9, 9]


def test_atlas_query_refuses_a_file_that_is_not_the_atlas_of_its_order(tmp_path, atlas_dir, capsys):
    # Order-4 classes filed as atlas-8.txt, then an empty atlas-8.txt.
    for n in range(1, 10):
        shutil.copy(atlas_dir / f"atlas-{n}.txt", tmp_path)
    bad = tmp_path / "atlas-8.txt"
    argv = ["atlas", "query", "--graph", "K2", "--max-order", "9", "--atlas-dir", str(tmp_path)]
    for entries in (atlas.load_atlas(atlas_dir / "atlas-4.txt"), []):
        atlas.save_atlas(entries, bad)
        code, out, err = run_cli(argv, capsys)
        assert (code, out) == (2, "")
        assert err == f"error: {bad} does not hold the atlas of order 8\n"


def test_atlas_query_refuses_a_bad_atlas_header(tmp_path, atlas_dir, capsys):
    shutil.copy(atlas_dir / "atlas-2.txt", tmp_path)
    bad = tmp_path / "atlas-2.txt"
    bad.write_text(bad.read_text().replace("order 2", "ordr 2", 1))
    argv = ["atlas", "query", "--graph", "K2", "--max-order", "2", "--atlas-dir", str(tmp_path)]
    assert run_cli(argv, capsys) == (2, "", "error: bad atlas header\n")


def test_atlas_query_refuses_an_atlas_short_of_blocks(tmp_path, atlas_dir, capsys):
    for n in range(1, 4):
        shutil.copy(atlas_dir / f"atlas-{n}.txt", tmp_path)
    text = (atlas_dir / "atlas-4.txt").read_text(encoding="utf-8")
    (tmp_path / "atlas-4.txt").write_text(text.rsplit("\n\n", 1)[0] + "\n", encoding="utf-8")
    argv = ["atlas", "query", "--graph", "K2", "--max-order", "4", "--atlas-dir", str(tmp_path)]
    assert run_cli(argv, capsys) == (2, "", "error: expected 11 ringtab blocks, found 10\n")


def test_atlas_query_refuses_an_atlas_that_lists_a_class_twice(tmp_path, atlas_dir, capsys):
    shutil.copy(atlas_dir / "atlas-1.txt", tmp_path)
    entry = atlas.load_atlas(atlas_dir / "atlas-2.txt")[1]
    (tmp_path / "atlas-2.txt").write_text(atlas_text([entry, entry]), encoding="utf-8")
    argv = ["atlas", "query", "--graph", "K0", "--max-order", "2", "--atlas-dir", str(tmp_path)]
    assert run_cli(argv, capsys) == (2, "", "error: certificate lines are not strictly ascending\n")


def test_atlas_query_dot_file(tmp_path, atlas_dir, capsys):
    dot = tmp_path / "k1.dot"
    dot.write_text("graph {\n  0;\n}\n")
    code, out, _ = run_cli(
        ["atlas", "query", "--graph", str(dot), "--max-order", "4", "--atlas-dir", str(atlas_dir)],
        capsys,
    )
    assert code == 0
    assert "3 matches" in out


@pytest.mark.parametrize("stmt", [
    '0 [label="];',
    '0 [label="x";',
    '0 [label="x"]]];',
    '0 [;',
    '0 [label="a"b"];',
    '0 [label="x"] [label="y"];',
    '0 [label="x\\"];',
], ids=["empty-quote", "unclosed", "extra-brackets", "bare-bracket", "inner-quote",
        "two-lists", "escaped-close"])
def test_atlas_query_refuses_a_malformed_attribute_list(tmp_path, capsys, stmt):
    # The attributes after "[" are one label="..." with its escapes whole and
    # one closing bracket, or the statement is refused.
    dot = tmp_path / "bad.dot"
    dot.write_text(f"graph {{\n  {stmt}\n}}\n", encoding="utf-8")
    argv = ["atlas", "query", "--graph", str(dot), "--max-order", "4", "--atlas-dir", str(tmp_path)]
    assert run_cli(argv, capsys) == (2, "", f"error: unsupported attributes: {stmt!r}\n")


@pytest.mark.parametrize("kind, stmt", [("node", "{};"), ("edge", "0 -- {};")], ids=["node", "edge"])
@pytest.mark.parametrize("ident", ["+1", "0_1", "\u0661"], ids=["sign", "underscore", "arabic-indic"])
def test_atlas_query_reads_only_ascii_digit_ids(tmp_path, capsys, kind, stmt, ident):
    # export_dot writes ids as ASCII digits; int() also reads a sign, an
    # underscore and other scripts' digits, which are refused.
    stmt = stmt.format(ident)
    dot = tmp_path / "g.dot"
    dot.write_text(f"graph {{\n0;\n1;\n{stmt}\n}}\n", encoding="utf-8")
    argv = ["atlas", "query", "--graph", str(dot), "--max-order", "4", "--atlas-dir", str(tmp_path)]
    assert run_cli(argv, capsys) == (2, "", f"error: bad {kind} statement: {stmt!r}\n")
    # Spaces around an id are optional.
    dot.write_text("graph {\n0;\n1;\n0--1;\n}\n", encoding="utf-8")
    code, out, _ = run_cli(argv, capsys)
    assert code == 0 and out.endswith(" matches\n")


def test_verify_pass_and_output_shape(capsys):
    code, out, _ = run_cli(["verify", "prop5", "--p", "2"], capsys)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "RESULT prop5 PASS"
    assert all(line.startswith("  ") for line in lines[1:])


def test_verify_deterministic_output(capsys):
    _, first, _ = run_cli(["verify", "tn4-identities"], capsys)
    _, second, _ = run_cli(["verify", "tn4-identities"], capsys)
    assert first == second


def test_verify_uses_atlas_cache(atlas_dir, capsys):
    code, out, _ = run_cli(
        ["verify", "theorem3-shape", "--atlas-dir", str(atlas_dir)], capsys
    )
    assert code == 0
    assert out.startswith("RESULT theorem3-shape PASS")


def test_cli_module_entrypoint():
    proc = subprocess.run(
        [sys.executable, "-m", "finring", "verify", "prop5", "--p", "2"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("RESULT prop5 PASS")


def test_missing_file_is_input_error(capsys):
    code, _, err = run_cli(["ring", "info", "/nonexistent/thing.ring"], capsys)
    assert code == 2


def test_ring_build_far_over_cap_is_a_cap_error(capsys):
    code, out, err = run_cli(["ring", "build", "gf", "2", "20000"], capsys)
    assert code == 3 and out == ""
    assert err == "error: order 2^20000 exceeds the cap of 256\n"


def test_identity_check_refuses_large_coefficients(tmp_path, capsys):
    z2 = str(tmp_path / "z2.ring")
    run_cli(["ring", "build", "zn", "2", "--out", z2], capsys)
    for text in ("2^70000x", "(2^300x)^300"):
        code, _, err = run_cli(["identity", "check", z2, text], capsys)
        assert code == 3 and "coefficient" in err and "over the limit" in err


def test_ring_build_huge_prime_is_a_cap_error(capsys):
    p = "1" + "0" * 4298 + "3"
    start = time.perf_counter()
    code, out, err = run_cli(["ring", "build", "npp", p], capsys)
    assert code == 3 and out == ""
    assert err == f"error: order {p}^2 exceeds the cap of 256\n"
    assert time.perf_counter() - start < 1


def test_atlas_query_refuses_large_clique_unbuilt(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(graphs, "complete_graph", lambda n: pytest.fail("clique built"))
    bad_dot = tmp_path / "bad.dot"
    bad_dot.write_text("bad\n", encoding="utf-8")
    override = "# enumeration cap override: 16 (FINRING_ENUM_CAP)\n"
    for spec, max_order, env, expected in (
        ("K65", 4, None, (3, "", "error: graph has 65 vertices, cap is 64\n")),
        ("K0065", -1, None, (3, "", "error: graph has 65 vertices, cap is 64\n")),
        ("k100000", 9, None, (3, "", "error: graph has 100000 vertices, cap is 64\n")),
        ("K100000", 17, None, (3, "", "error: enumeration of order 17 exceeds the cap of 9\n")),
        ("K100000", 16, "16", (3, override, "error: graph has 100000 vertices, cap is 64\n")),
        ("K100000", 17, "16", (3, override, "error: enumeration of order 17 exceeds the cap of 16\n")),
        ("K100000", 4, "99", (2, "", "error: FINRING_ENUM_CAP must be between 1 and 16\n")),
        (str(bad_dot), 4, None, (2, "", "error: expected a 'graph {' header\n")),
    ):
        if env is None:
            monkeypatch.delenv(cli.ENUM_CAP_VAR, raising=False)
        else:
            monkeypatch.setenv(cli.ENUM_CAP_VAR, env)
        args = ["atlas", "query", "--graph", spec, "--max-order", str(max_order)]
        assert run_cli(args, capsys) == expected, spec


# Exit code, stdout and stderr of every `atlas build`, `atlas query` and
# cached `verify` call below, under each value of FINRING_ENUM_CAP; pinned
# while the library still took the enumeration cap as a parameter.
ENUM_CAP_MATRIX_SHA256 = "6fd834f523f1a2b000bd69676d3f71aa46c1950a16f09cff4dec54b30935d540"


def test_enumeration_cap_matrix(capsys, monkeypatch):
    digest = hashlib.sha256()
    calls = 0
    for env in (None, "1", "3", "8", "9", "12", "16"):
        if env is None:
            monkeypatch.delenv(cli.ENUM_CAP_VAR, raising=False)
        else:
            monkeypatch.setenv(cli.ENUM_CAP_VAR, env)
        c = int(env or 9)
        argvs = [["atlas", "build", str(n)] for n in sorted({0, 1, c, c + 1, 17})]
        argvs += [["atlas", "query", "--graph", g, "--max-order", str(m)]
                  for g in ("K2", "K65", "K100000") for m in sorted({c, c + 1, 17})]
        argvs += [["verify", name] for name in ("cor1", "prop4-counterexample", "theorem3-shape", "prop5")]
        for argv in argvs:
            digest.update(repr((env, argv) + run_cli(argv, capsys)).encode("utf-8"))
            calls += 1
    assert calls == 121
    assert digest.hexdigest() == ENUM_CAP_MATRIX_SHA256


def test_identity_check_refuses_a_stray_star(tmp_path, capsys):
    z2 = str(tmp_path / "z2.ring")
    run_cli(["ring", "build", "zn", "2", "--out", z2], capsys)
    for text in ("x*", "*x", "(*x)", "x**y", "x+*y", "x*-y", "*"):
        code, out, err = run_cli(["identity", "check", z2, text], capsys)
        assert (code, out) == (2, ""), text
        assert err.startswith("error: "), text
    assert run_cli(["identity", "check", z2, "2*x*y"], capsys) == (0, "PASS 2*x*y\n", "")


def test_identity_check_refuses_deep_nesting(tmp_path, capsys):
    z2 = str(tmp_path / "z2.ring")
    run_cli(["ring", "build", "zn", "2", "--out", z2], capsys)
    limit = freealg.MAX_NESTING
    code, out, _ = run_cli(["identity", "check", z2, "(" * limit + "2x" + ")" * limit], capsys)
    assert code == 0 and out.startswith("PASS")
    commutator = "[" * limit + "x,y]" + ",x]" * (limit - 1)
    code, _, _ = run_cli(["identity", "check", z2, commutator], capsys)
    assert code == 0
    for depth in (limit + 1, 10000):
        for text in ("(" * depth + "x" + ")" * depth, "[" * depth + "x,y]" + ",x]" * (depth - 1)):
            start = time.perf_counter()
            code, out, err = run_cli(["identity", "check", z2, text], capsys)
            assert time.perf_counter() - start < 0.5
            assert (code, out) == (2, "")
            assert err == f"error: brackets nest deeper than {limit} (at position {limit})\n"
    suite = tmp_path / "deep.suite"
    suite.write_text("xy - yx\n" + "(" * 10000 + "x" + ")" * 10000 + "\n")
    code, out, err = run_cli(["identity", "check", z2, str(suite)], capsys)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: line 2: brackets nest deeper than {limit} (at position {limit})")


def test_identity_check_suite_parse_error_names_its_position_once(tmp_path, capsys):
    z2 = str(tmp_path / "z2.ring")
    run_cli(["ring", "build", "zn", "2", "--out", z2], capsys)
    suite = tmp_path / "bad.suite"
    suite.write_text("x\nx +\n")
    assert run_cli(["identity", "check", z2, str(suite)], capsys) == (
        2, "", "error: line 2: unexpected end of input (at position 3)\n")


def test_identity_check_long_words(tmp_path, capsys):
    z2 = str(tmp_path / "z2.ring")
    run_cli(["ring", "build", "zn", "2", "--out", z2], capsys)
    code, out, _ = run_cli(["identity", "check", z2, "x" * 60000 + " - x"], capsys)
    assert code == 0 and out.endswith(" - x\n") and out.startswith("PASS xxx")
    code, out, err = run_cli(["identity", "check", z2, "x" * (freealg.MAX_EXPANSION + 1)], capsys)
    assert (code, out) == (3, "") and "over the limit" in err


def test_identity_check_text_after_two_dashes(tmp_path, capsys):
    # "-- --" must read as the polynomial text "--", whatever argparse makes of it.
    z2 = str(tmp_path / "z2.ring")
    run_cli(["ring", "build", "zn", "2", "--out", z2], capsys)
    code, out, err = run_cli(["identity", "check", "--budget", "64", z2, "--", "--"], capsys)
    assert (code, out) == (2, "") and err.startswith("error: ")


def test_one_parser_serves_repeated_calls(tmp_path, capsys):
    # The parser is built once per process; no call may leave state in it.
    assert cli._build_parser() is cli._build_parser()
    z2 = str(tmp_path / "z2.ring")
    run_cli(["ring", "build", "zn", "2", "--out", z2], capsys)
    with pytest.raises(SystemExit) as exc:
        cli.main(["identity", "check", z2])
    assert exc.value.code == 2 and "required" in capsys.readouterr().err
    assert run_cli(["identity", "check", str(tmp_path / "missing"), "x"], capsys)[0] == 2
    assert run_cli(["identity", "check", z2, "x^2 - x", "--budget", "1"], capsys)[0] == 3
    good = ["identity", "check", z2, "x^2 - x"]
    first = run_cli(good, capsys)
    assert first[:2] == (0, "PASS x^2 - x\n")
    assert run_cli(good, capsys)[:2] == first[:2]


def test_identity_check_superscript_is_an_input_error(tmp_path, capsys):
    z2 = str(tmp_path / "z2.ring")
    run_cli(["ring", "build", "zn", "2", "--out", z2], capsys)
    assert run_cli(["identity", "check", z2, "x²"], capsys) == (
        2, "", "error: unexpected character '²' (at position 1)\n")
    assert run_cli(["identity", "check", z2, "x٣ - x3"], capsys) == (0, "PASS x٣ - x3\n", "")


def test_every_package_error_is_an_input_error(tmp_path, capsys, monkeypatch):
    # An error class the CLI has never heard of still exits 2, not with a
    # traceback and exit 1, which would read as a negative answer.
    class Unlisted(FinringError):
        pass

    def fail(ring, **kwargs):
        raise Unlisted("no report today")

    z2 = str(tmp_path / "z2.ring")
    run_cli(["ring", "build", "zn", "2", "--out", z2], capsys)
    monkeypatch.setattr(structure, "structure_report", fail)
    assert run_cli(["ring", "info", z2], capsys) == (2, "", "error: no report today\n")
