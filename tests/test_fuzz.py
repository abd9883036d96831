"""Fuzzed input through the command line: every reader answers with an exit code.

Each test feeds one reader (ringtab, atlas, DOT, identity suite, polynomial
text) near-valid texts made by mutating real ones, plus free text, deep
bracket nesting and long words, all at most 2 KB.  Every call must return
0, 1, 2 or 3 and never raise.
"""

import contextlib
import io
import os
import tempfile

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from finring import atlas, cli, graphs, rings

MAX_TEXT = 2048
EXIT_CODES = {0, 1, 2, 3}

fuzz_settings = settings(
    max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)

# Encodable text: no surrogates, so every draw can be written as UTF-8.
free_text = st.text(st.characters(blacklist_categories=("Cs",)), max_size=64)
TOKENS = (
    "0", "1", "-1", "2", "7", "256", "257", "99999999999999999999", "\n", " ", "#",
    "order ", "label ", "add", "mul", "ringtab 1", "atlas v1", "count ", "FR1;n=",
    "graph {", "}", ";", "--", '[label="', '"]', "x", "y", "z", "x0", "x99", "(", ")",
    "[", "]", ",", "^", "+", "-", "*", "\t", "é",
)


@st.composite
def mutated(draw, seeds):
    """A seed text with up to four spans replaced by tokens or free text."""
    text = draw(st.sampled_from(seeds))
    for _ in range(draw(st.integers(0, 4))):
        i = draw(st.integers(0, len(text)))
        j = draw(st.integers(i, min(len(text), i + 12)))
        piece = draw(st.sampled_from(TOKENS) | free_text)
        text = text[:i] + piece + text[j:]
    return text[:MAX_TEXT]


def near(seeds):
    return mutated(seeds) | free_text


def run(argv):
    """Exit code of one CLI call, with its output discarded."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return cli.main(argv)


def run_on_file(text, name, argv_for):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, name)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        return run(argv_for(tmp, path))


RINGTAB_SEEDS = [
    rings.format_ringtab(r)
    for r in (rings.zn(2), rings.np2(2), rings.gf(2, 2), rings.ap(2), rings.n0(3, 1))
] + ["# comment\nringtab 1\norder 1\nadd\n0\nmul\n0\n"]


@fuzz_settings
@given(near(RINGTAB_SEEDS))
def test_ringtab_reader(text):
    code = run_on_file(text, "ring.txt", lambda tmp, path: ["ring", "info", path])
    assert code in EXIT_CODES


def _atlas_text(n):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "atlas.txt")
        atlas.save_atlas(atlas.enumerate_rings(n), path)
        with open(path, encoding="utf-8") as fh:
            return fh.read()


ATLAS_SEEDS = [_atlas_text(n) for n in (1, 2, 3)]


@fuzz_settings
@given(near(ATLAS_SEEDS), st.integers(1, 3))
def test_atlas_reader(text, n):
    code = run_on_file(
        text,
        f"atlas-{n}.txt",
        lambda tmp, path: ["atlas", "query", "--graph", "K1", "--max-order", str(n),
                           "--atlas-dir", tmp],
    )
    assert code in EXIT_CODES


DOT_SEEDS = [
    graphs.export_dot(g)
    for g in (
        graphs.zero_divisor_graph(rings.zn(9)),
        graphs.zero_divisor_graph(rings.ap(2)),
        graphs.complete_graph(3),
        graphs.make_graph(0, []),
    )
]


@fuzz_settings
@given(near(DOT_SEEDS))
def test_dot_reader(atlas_dir, text):
    code = run_on_file(
        text,
        "graph.dot",
        lambda tmp, path: ["atlas", "query", "--graph", path, "--max-order", "4",
                           "--atlas-dir", str(atlas_dir)],
    )
    assert code in EXIT_CODES


@fuzz_settings
@given(st.lists(st.text(st.characters(blacklist_categories=("Cs",)), max_size=16), min_size=1, max_size=6))
def test_dot_labels_round_trip(labels):
    graph = graphs.make_graph(len(labels), [(0, i) for i in range(1, len(labels))], labels)
    assert graphs.parse_dot(graphs.export_dot(graph)) == graph


POLY_SEEDS = [
    "x", "2x + x^2", "xy - yx", "[x, y]z", "[[x,y],z] + x2x3", "(x+y)^3 - 4x", "x^2 - x",
    "-xyz", "3 x * y", "x12^2", "0",
]
nested_parens = st.builds(
    lambda depth, inner: "(" * depth + inner + ")" * depth,
    st.integers(0, 1000), st.sampled_from(POLY_SEEDS),
)
nested_commutators = st.builds(
    lambda depth: "[" * depth + "x,y]" + ",x]" * (depth - 1), st.integers(1, 500)
)
long_words = st.builds(
    lambda unit, length: (unit * length)[:MAX_TEXT],
    st.sampled_from(["x", "xy", "x2", "(x)", "2", "x^2", "x*"]), st.integers(1, MAX_TEXT),
)
polynomials = near(POLY_SEEDS) | nested_parens | nested_commutators | long_words


@pytest.fixture(scope="module")
def z2_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz") / "z2.ring"
    rings.write_ringtab(rings.zn(2), path)
    return str(path)


@fuzz_settings
@given(polynomials)
def test_polynomial_reader(z2_file, text):
    # "--" keeps a leading minus sign from reading as an option.
    assert run(["identity", "check", "--budget", "64", z2_file, "--", text]) in EXIT_CODES


@fuzz_settings
@given(st.lists(polynomials, max_size=6).map(lambda lines: "\n".join(lines)[:MAX_TEXT]))
def test_suite_reader(z2_file, text):
    code = run_on_file(
        text, "ids.suite",
        lambda tmp, path: ["identity", "check", "--budget", "64", z2_file, path],
    )
    assert code in EXIT_CODES

