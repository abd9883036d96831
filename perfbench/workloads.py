"""The three workloads: seeded inputs, the ops of one pass, and their oracles.

One op is one `finring.cli.main(argv)` call.  `prepare` writes a workload's
inputs under a work directory and returns the ops of one pass; each op
carries a check that takes the exit code and captured stdout and returns
None or a description of what is wrong.  Element labels in every ring file
come from the seed, with 0 kept as the zero; the program sees only the files.

Why these workloads:
  atlas-classify  the write side of the atlas: scan, orbit dedup,
                  certificates, make_ring and save_atlas; no atlas reads and
                  no identity evaluation.
  verify-warm     the read side: five scenarios against a warm atlas
                  directory, so load_atlas and its certificate and report
                  recomputation dominate; no scanning.
  ring-queries    single-ring queries of order 16 to 256: structure reports,
                  zero-divisor graph canonical forms, identity evaluation and
                  an order-256 ringtab read; no enumeration.  It keeps `ring
                  info` on GF(32), which does not finish, so that op shows as
                  a missed deadline, charged at the deadline.
"""

from __future__ import annotations

import contextlib
import io
import os
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from finring import cli, rings

from perfbench import oracle

# OEIS A027623: rings with n elements, n = 1..15.
A027623 = (1, 2, 2, 11, 2, 4, 2, 52, 11, 4, 2, 22, 2, 4, 4)

ENUM_CAP_VAR = "FINRING_ENUM_CAP"
SCENARIOS = ("cor1", "prop5", "prop4-counterexample", "tn4-identities", "theorem3-shape")

Check = Callable[[int, str], "str | None"]


@dataclass
class Op:
    label: str
    argv: list[str]
    check: Check
    warm: bool = True  # part of the warm-up pass
    known_hang: bool = False  # a missed deadline is expected, not a failure


def capture(argv: list[str]) -> tuple[int, str]:
    """Run the CLI in-process and return (exit code, stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


def _same_every_pass(check: Check) -> Check:
    """Also require stdout to equal what the first pass printed."""
    first: list[str] = []

    def wrapped(code: int, out: str) -> str | None:
        problem = check(code, out)
        if problem is None:
            if not first:
                first.append(out)
            elif out != first[0]:
                problem = "stdout differs from the first pass"
        return problem

    return wrapped


# --- atlas-classify ---------------------------------------------------------


def _atlas_build_check(n: int, path: Path) -> Check:
    expected = f"# enumeration cap override: 16 ({ENUM_CAP_VAR})\n{A027623[n - 1]} classes\n"
    header = f"atlas v1\norder {n}\ncount {A027623[n - 1]}\n".encode()
    first: list[bytes] = []

    def check(code: int, out: str) -> str | None:
        if code != 0:
            return f"exit code {code}"
        if out != expected:
            return f"stdout {out!r}, expected {expected!r}"
        data = path.read_bytes()
        path.unlink()
        if not first:
            if not data.startswith(header):
                return "atlas file header does not match A027623"
            first.append(data)
        elif data != first[0]:
            return "atlas file differs from the first pass"
        return None

    return check


def atlas_classify(work: Path, seed: int) -> list[Op]:
    os.environ[ENUM_CAP_VAR] = "16"
    orders = list(range(1, 16))
    random.Random(seed).shuffle(orders)
    ops = []
    for n in orders:
        path = work / f"atlas-{n}.txt"
        argv = ["atlas", "build", str(n), "--out", str(path), "--workers", "1"]
        ops.append(Op(f"atlas build {n}", argv, _atlas_build_check(n, path)))
    return ops


# --- verify-warm ------------------------------------------------------------


def _verify_check(name: str) -> Check:
    def check(code: int, out: str) -> str | None:
        if code != 0:
            return f"exit code {code}"
        if out.split("\n", 1)[0] != f"RESULT {name} PASS":
            return f"first line {out.splitlines()[:1]}"
        return None

    return _same_every_pass(check)


def verify_warm(work: Path, seed: int) -> list[Op]:
    os.environ.pop(ENUM_CAP_VAR, None)
    rng = random.Random(seed)
    built = work / "built"
    atlas_dir = work / "atlas"
    built.mkdir()
    atlas_dir.mkdir()
    for n in range(1, 10):
        path = built / f"atlas-{n}.txt"
        code, out = capture(["atlas", "build", str(n), "--out", str(path), "--workers", "1"])
        if code != 0 or out != f"{A027623[n - 1]} classes\n":
            raise RuntimeError(f"set-up: atlas build {n} gave exit {code}, stdout {out!r}")
        text = oracle.relabel_atlas(path.read_text(encoding="utf-8"), rng)
        (atlas_dir / path.name).write_text(text, encoding="utf-8")
    names = list(SCENARIOS)
    rng.shuffle(names)
    return [
        Op(
            f"verify {name}",
            ["verify", name, "--atlas-dir", str(atlas_dir), "--workers", "1"],
            _verify_check(name),
        )
        for name in names
    ]


# --- ring-queries -----------------------------------------------------------

# Label-free facts from ring theory: GF(q) is a field; M2(Z2) is simple and
# noncommutative; Z2^6 is a product of six fields.  All three kinds are
# semisimple, so the radical is {0}, and none is nilpotent.
THEORY = {
    "field": dict(commutative=True, field=True, local=True, irreducible=True, decomposable=False),
    "matrix": dict(commutative=False, field=False, local=False, irreducible=True, decomposable=False),
    "product": dict(commutative=True, field=False, local=False, irreducible=False, decomposable=True),
}


COMMUTATOR = [(1, (1, 2)), (-1, (2, 1))]

RING_QUERIES_WARMUP = {"ring info GF(49)", "zdg iso Z2^5", "identity 4x M2(Z4)"}


def _flag(v: bool) -> str:
    return "true" if v else "false"


def _ring_info_check(t: oracle.Tables, kind: str, characteristic: int) -> Check:
    facts = THEORY[kind]
    expected = "".join(
        f"{key}: {value}\n"
        for key, value in (
            ("label", t.label),
            ("order", t.order),
            ("characteristic", characteristic),
            ("has_identity", oracle.identity_element(t)),
            ("is_commutative", _flag(facts["commutative"])),
            ("is_field", _flag(facts["field"])),
            ("is_local", _flag(facts["local"])),
            ("is_nilpotent", "none"),
            ("is_subdirectly_irreducible", _flag(facts["irreducible"])),
            ("is_decomposable", _flag(facts["decomposable"])),
            ("zero_divisor_count", len(oracle.zero_divisors(t))),
            ("jacobson_radical", 0),
        )
    )

    def check(code: int, out: str) -> str | None:
        if code != 0:
            return f"exit code {code}"
        if out != expected:
            return f"report {out!r}, expected {expected!r}"
        return None

    return check


def _zdg_graph_check(t: oracle.Tables) -> Check:
    n, edges = oracle.zero_divisor_graph(t)
    first_line = f"{n} vertices, {len(edges)} edges"
    header = f"G1;n={n};".encode().hex()
    cert_len = len(header) + 2 * ((n * (n - 1) // 2 + 7) // 8)

    def check(code: int, out: str) -> str | None:
        lines = out.splitlines()
        if code != 0:
            return f"exit code {code}"
        if len(lines) != 2 or lines[0] != first_line:
            return f"stdout {lines[:1]}, expected {first_line!r}"
        cert = lines[1].removeprefix("certificate ")
        if not cert.startswith(header) or len(cert) != cert_len:
            return "malformed graph certificate"
        return None

    return _same_every_pass(check)


def _zdg_iso_check(a: oracle.Tables, b: oracle.Tables) -> Check:
    n, edges_a = oracle.zero_divisor_graph(a)
    m, edges_b = oracle.zero_divisor_graph(b)
    if (n, len(edges_a)) != (m, len(edges_b)):
        # Graphs of different size cannot be isomorphic.
        def negative(code: int, out: str) -> str | None:
            if code == 1 and out == "not isomorphic\n":
                return None
            return f"exit code {code}, stdout {out[:40]!r}; the graphs differ in size"

        return negative

    def check(code: int, out: str) -> str | None:
        lines = out.splitlines()
        if code != 0 or lines[:1] != ["isomorphic"] or len(lines) != 2:
            return f"exit code {code}, stdout {lines[:1]}"
        try:
            pairs = [item.split("->") for item in lines[1].removeprefix("witness: ").split()]
            mapping = [int(w) for _, w in pairs]
            ordered = [int(v) for v, _ in pairs] == list(range(len(pairs)))
        except ValueError:
            return "unreadable witness"
        if not ordered or not oracle.is_graph_isomorphism(mapping, n, edges_a, edges_b):
            return "witness is not a graph isomorphism"
        return None

    return check


def _identity_check(t: oracle.Tables, text: str, terms, holds: bool = True) -> Check:
    """PASS when the identity `holds`; otherwise FAIL at the least assignment,
    in lexicographic order, on which the benchmark's own evaluator gives a
    nonzero value.  A wrong answer's counterexample is re-evaluated to say how."""
    first_failure = None if holds else oracle.least_counterexample(t, terms)

    def check(code: int, out: str) -> str | None:
        if holds and code == 0 and out == f"PASS {text}\n":
            return None
        prefix = f"FAIL {text} at "
        if code == 1 and out.startswith(prefix):
            assignment = oracle.parse_assignment(out[len(prefix):].strip())
            if assignment == first_failure:
                return None
            value = oracle.evaluate(t, terms, assignment)
            return (f"reported FAIL at {assignment}; the assignment evaluates to {value}, "
                    f"the least counterexample is {first_failure}")
        return f"exit code {code}, stdout {out[:80]!r}"

    return check


def _tables(ring: rings.FiniteRing, label: str, rng: random.Random) -> oracle.Tables:
    t = oracle.Tables(label, ring.add, ring.mul)
    return oracle.relabel(t, oracle.relabeling(ring.order, rng))


def ring_queries(work: Path, seed: int) -> list[Op]:
    os.environ.pop(ENUM_CAP_VAR, None)
    rng = random.Random(seed)
    z2 = rings.zn(2)
    z2_5 = z2
    for _ in range(4):
        z2_5 = rings.direct_sum(z2_5, z2)
    z2_6 = rings.direct_sum(z2_5, z2)
    made = {
        "m2z2": _tables(rings.matrix_ring(z2, 2), "M2(Z2)", rng),
        "gf16": _tables(rings.gf(2, 4), "GF(16)", rng),
        "gf27": _tables(rings.gf(3, 3), "GF(27)", rng),
        "gf49": _tables(rings.gf(7, 2), "GF(49)", rng),
        "gf32": _tables(rings.gf(2, 5), "GF(32)", rng),
        "z2_6": _tables(z2_6, "Z2^6", rng),
        "z2_5a": _tables(z2_5, "Z2^5", rng),
        "z2_5b": _tables(z2_5, "Z2^5", rng),
        "m2z4": oracle.relabel(oracle.matrix_ring_zn(4, "M2(Z4)"), oracle.relabeling(256, rng)),
    }
    path = {}
    for stem, t in made.items():
        path[stem] = str(work / f"{stem}.ring")
        Path(path[stem]).write_text(oracle.format_ringtab(t), encoding="utf-8")

    s4_text, s4_terms = oracle.standard_polynomial(4)
    ops = [
        Op(f"ring info {made[stem].label}", ["ring", "info", path[stem]],
           _ring_info_check(made[stem], kind, char))
        for stem, kind, char in (
            ("m2z2", "matrix", 2),
            ("gf16", "field", 2),
            ("gf27", "field", 3),
            ("gf49", "field", 7),
            ("z2_6", "product", 2),
            ("gf32", "field", 2),
        )
    ]
    ops += [
        Op("zdg graph Z2^6", ["zdg", "graph", path["z2_6"]], _zdg_graph_check(made["z2_6"])),
        Op("zdg iso Z2^5", ["zdg", "iso", path["z2_5a"], path["z2_5b"]],
           _zdg_iso_check(made["z2_5a"], made["z2_5b"])),
        # A negative answer (exit 1): graphs of different size.
        Op("zdg iso GF(32) Z2^5", ["zdg", "iso", path["gf32"], path["z2_5a"]],
           _zdg_iso_check(made["gf32"], made["z2_5a"])),
        Op("identity s4 M2(Z2)", ["identity", "check", path["m2z2"], s4_text],
           _identity_check(made["m2z2"], s4_text, s4_terms)),
        Op("identity 4x M2(Z4)", ["identity", "check", path["m2z4"], "4x"],
           _identity_check(made["m2z4"], "4x", [(4, (1,))])),
        # Three short checks: a FAIL (M2(Z2) is not commutative), and two that
        # hold (a field is commutative; Z2^6 is Boolean).  Being short, they
        # also put the median op of a pass in the middle of the `ring info`
        # ops of order 16 to 49 rather than at their slow end.
        Op("identity xy-yx M2(Z2)", ["identity", "check", path["m2z2"], "xy - yx"],
           _identity_check(made["m2z2"], "xy - yx", COMMUTATOR, holds=False)),
        Op("identity xy-yx GF(49)", ["identity", "check", path["gf49"], "xy - yx"],
           _identity_check(made["gf49"], "xy - yx", COMMUTATOR)),
        Op("identity x^2-x Z2^6", ["identity", "check", path["z2_6"], "x^2 - x"],
           _identity_check(made["z2_6"], "x^2 - x", [(1, (1, 1)), (-1, (1,))])),
    ]
    # These ops share no cache, so the warm-up runs one op per command (and
    # one order-256 read) instead of a 13 s pass that set-up would repeat.
    for op in ops:
        op.warm = op.label in RING_QUERIES_WARMUP
        op.known_hang = op.label == "ring info GF(32)"
    rng.shuffle(ops)
    return ops


WORKLOADS: dict[str, Callable[[Path, int], list[Op]]] = {
    "atlas-classify": atlas_classify,
    "verify-warm": verify_warm,
    "ring-queries": ring_queries,
}
