"""Batch command-line front end.

Subcommands: `ring` builds and inspects rings, `zdg` works with zero-divisor
graphs, `identity` checks polynomial identities, `atlas` enumerates and
queries isomorphism classes, and `verify` runs the named scenarios.

Exit codes: 0 success / scenario pass, 1 semantic negative (not isomorphic,
identity fails, scenario fails), 2 bad input, 3 resource cap or budget.
The only environment knob is FINRING_ENUM_CAP, the command line's own
enumeration cap: 9 unless set, at most the library's hard max of 16, and
echoed into any output that depends on it.
"""

from __future__ import annotations

import argparse
import functools
import os
import re
import sys

from . import atlas, freealg, graphs, rings, scenarios, structure
from .errors import BudgetExceeded, FinringError, GraphCapExceeded, OrderCapExceeded

# Every other package error is bad input; the cap errors are caught first.
_INPUT_ERRORS = (FinringError, ValueError, OSError)
_CAP_ERRORS = (OrderCapExceeded, GraphCapExceeded, BudgetExceeded)

ENUM_CAP_VAR = "FINRING_ENUM_CAP"
DEFAULT_ENUMERATION_CAP = 9


def _enum_cap() -> tuple[int, bool]:
    raw = os.environ.get(ENUM_CAP_VAR)
    if raw is None:
        return DEFAULT_ENUMERATION_CAP, False
    try:
        cap = int(raw)
    except ValueError:
        raise ValueError(f"{ENUM_CAP_VAR} must be an integer, got {raw!r}") from None
    if not 1 <= cap <= atlas.ENUMERATION_HARD_MAX:
        raise ValueError(
            f"{ENUM_CAP_VAR} must be between 1 and {atlas.ENUMERATION_HARD_MAX}"
        )
    return cap, True


def _echo_cap(cap: int, overridden: bool) -> None:
    if overridden:
        print(f"# enumeration cap override: {cap} ({ENUM_CAP_VAR})")


# Families built from integer parameters: builder and usage string.  The
# usage names one parameter per <...> slot.
_INT_FAMILIES = {
    "zn": (rings.zn, "zn <n>"),
    "gf": (rings.gf, "gf <p> <k>"),
    "n0": (rings.n0, "n0 <p> <n>"),
    "np2": (rings.np2, "np2 <p>"),
    "npp": (rings.npp, "npp <p>"),
    "ap": (rings.ap, "ap <p>"),
    "ap0": (rings.ap0, "ap0 <p>"),
    "zpx2": (rings.zpx_mod_x2, "zpx2 <p>"),
}


def _int_args(values: list[str], usage: str) -> list[int]:
    if len(values) != usage.count("<"):
        raise ValueError(f"expected {usage}")
    try:
        return [int(v) for v in values]
    except ValueError:
        raise ValueError(f"expected {usage}") from None


def _build_family(family: str, params: list[str]) -> rings.FiniteRing:
    if family in _INT_FAMILIES:
        build, usage = _INT_FAMILIES[family]
        return build(*_int_args(params, usage))
    if family == "sum":
        if len(params) != 2:
            raise ValueError("expected sum <ringtab-a> <ringtab-b>")
        return rings.direct_sum(rings.read_ringtab(params[0]), rings.read_ringtab(params[1]))
    if family == "matrix":
        if len(params) != 2:
            raise ValueError("expected matrix <ringtab> <k>")
        return rings.matrix_ring(rings.read_ringtab(params[0]), int(params[1]))
    if family == "quotient":
        if len(params) != 2:
            raise ValueError("expected quotient <ringtab> <members e.g. 0,3,6>")
        ring = rings.read_ringtab(params[0])
        members = [int(v) for v in params[1].split(",") if v != ""]
        return rings.quotient(ring, members)
    raise ValueError(f"unknown family {family!r}")


def _cmd_ring_build(args) -> int:
    ring = _build_family(args.family, args.params)
    if args.out:
        rings.write_ringtab(ring, args.out)
    else:
        sys.stdout.write(rings.format_ringtab(ring))
    return 0


def _cmd_ring_info(args) -> int:
    ring = rings.read_ringtab(args.file)
    sys.stdout.write(structure.structure_report(ring).to_text())
    return 0


def _cmd_zdg(args) -> int:
    if args.action == "graph":
        ring = rings.read_ringtab(args.paths[0])
        graph = graphs.zero_divisor_graph(ring)
        # The certificate comes first, so a refusal prints no half result.
        certificate = graphs.canonical_form(graph).hex()
        print(f"{graph.vertex_count} vertices, {len(graph.edges)} edges")
        print(f"certificate {certificate}")
        if args.dot:
            with open(args.dot, "w", encoding="utf-8") as fh:
                fh.write(graphs.export_dot(graph))
        return 0
    ga = graphs.zero_divisor_graph(rings.read_ringtab(args.paths[0]))
    gb = graphs.zero_divisor_graph(rings.read_ringtab(args.paths[1]))
    witness = graphs.graph_isomorphic(ga, gb)
    if witness is None:
        print("not isomorphic")
        return 1
    print("isomorphic")
    print("witness: " + " ".join(f"{i}->{w}" for i, w in enumerate(witness)))
    return 0


def _cmd_identity(args) -> int:
    ring = rings.read_ringtab(args.ring)
    # argparse before Python 3.12 reads "-- --" as an empty list, not the text "--".
    text = args.polynomials if isinstance(args.polynomials, str) else "--"
    if os.path.exists(text):
        suite = freealg.load_suite(text)
    else:
        suite = [(text, freealg.parse(text))]
    all_ok = True
    for source, poly in suite:
        result = freealg.satisfies_identity(ring, poly, budget=args.budget)
        if result.ok:
            print(f"PASS {source}")
        else:
            all_ok = False
            print(f"FAIL {source} at {freealg.format_assignment(result.counterexample)}")
    return 0 if all_ok else 1


def _parse_graph_spec(spec: str, max_order: int, cap: int) -> graphs.SimpleGraph:
    match = re.fullmatch(r"[Kk](\d+)", spec)
    if match:
        n = int(match.group(1))
        # An over-cap clique is refused unbuilt, but only after the
        # enumeration cap, which _cmd_atlas otherwise checks once the graph
        # is read.
        if n > graphs.GRAPH_CAP:
            atlas._check_enum_cap(max_order, cap)
            graphs._check_graph_cap(n)
        return graphs.complete_graph(n)
    with open(spec, "r", encoding="utf-8") as fh:
        return graphs.parse_dot(fh.read())


def _cmd_atlas(args) -> int:
    cap, overridden = _enum_cap()
    _echo_cap(cap, overridden)
    if args.action == "build":
        atlas._check_enum_cap(args.n, cap)
        entries = atlas.enumerate_rings(args.n, workers=args.workers)
        print(f"{len(entries)} classes")
        if args.out:
            atlas.save_atlas(entries, args.out)
        return 0
    graph = _parse_graph_spec(args.graph, args.max_order, cap)
    atlas._check_enum_cap(args.max_order, cap)
    cache = scenarios.AtlasCache(args.atlas_dir, cap=cap, workers=args.workers)
    matches = atlas.rings_with_graph(args.max_order, graph, provider=cache.get)
    for entry in matches:
        print(f"order {entry.ring.order} {entry.ring.label} {entry.certificate.hex()}")
    print(f"{len(matches)} matches")
    return 0


def _cmd_verify(args) -> int:
    cap, overridden = _enum_cap()
    _echo_cap(cap, overridden)
    cache = scenarios.AtlasCache(args.atlas_dir, cap=cap, workers=args.workers)
    result = scenarios.run(args.scenario, p=args.p, cache=cache)
    print(f"RESULT {result.name} {'PASS' if result.passed else 'FAIL'}")
    for line in result.lines:
        print(f"  {line}")
    return 0 if result.passed else 1


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    # Built once per process: parse_args keeps no state between calls, and help
    # text reads the terminal width when it is formatted.
    parser = argparse.ArgumentParser(
        prog="finring",
        description="Finite-ring toolkit: Cayley tables, zero-divisor graphs, "
        "polynomial identities, and small-order classification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    ring = sub.add_parser("ring", help="build ring families or report structure")
    ring_sub = ring.add_subparsers(dest="action", required=True)
    build = ring_sub.add_parser("build", help="construct a named ring family")
    build.add_argument("family", help="zn|gf|n0|np2|npp|ap|ap0|zpx2|sum|matrix|quotient")
    build.add_argument("params", nargs="*", help="family parameters")
    build.add_argument("--out", help="write a ringtab file instead of stdout")
    build.set_defaults(func=_cmd_ring_build)
    info = ring_sub.add_parser("info", help="print the structure report of a ringtab file")
    info.add_argument("file")
    info.set_defaults(func=_cmd_ring_info)

    zdg = sub.add_parser("zdg", help="zero-divisor graphs")
    zdg_sub = zdg.add_subparsers(dest="action", required=True)
    zgraph = zdg_sub.add_parser("graph", help="summarize the graph of a ring file")
    zgraph.add_argument("paths", nargs=1, metavar="file")
    zgraph.add_argument("--dot", help="also write DOT text to this path")
    zgraph.set_defaults(func=_cmd_zdg)
    ziso = zdg_sub.add_parser("iso", help="test two ring files for graph isomorphism")
    ziso.add_argument("paths", nargs=2, metavar="file")
    ziso.set_defaults(func=_cmd_zdg, dot=None)

    ident = sub.add_parser("identity", help="check polynomial identities on a ring")
    ident_sub = ident.add_subparsers(dest="action", required=True)
    icheck = ident_sub.add_parser("check", help="evaluate a polynomial or suite file")
    icheck.add_argument("ring", help="ringtab file")
    icheck.add_argument("polynomials", help="polynomial text or suite file path")
    icheck.add_argument("--budget", type=int, default=freealg.DEFAULT_EVAL_BUDGET)
    icheck.set_defaults(func=_cmd_identity)

    atl = sub.add_parser("atlas", help="enumerate or query rings up to isomorphism")
    atl_sub = atl.add_subparsers(dest="action", required=True)
    abuild = atl_sub.add_parser("build", help="enumerate all rings of one order")
    abuild.add_argument("n", type=int)
    abuild.add_argument("--out", help="write an atlas file")
    abuild.add_argument("--workers", type=int, default=1)
    abuild.set_defaults(func=_cmd_atlas)
    aquery = atl_sub.add_parser("query", help="list classes whose graph matches")
    aquery.add_argument("--graph", required=True, help="K<n> or a DOT file path")
    aquery.add_argument("--max-order", type=int, required=True)
    aquery.add_argument("--atlas-dir", help="directory for cached atlas files")
    aquery.add_argument("--workers", type=int, default=1)
    aquery.set_defaults(func=_cmd_atlas)

    verify = sub.add_parser("verify", help="run a named verification scenario")
    verify.add_argument("scenario", choices=scenarios.SCENARIO_NAMES)
    verify.add_argument("--p", type=int, default=2, help="prime for prop5")
    verify.add_argument("--atlas-dir", help="directory for cached atlas files")
    verify.add_argument("--workers", type=int, default=1)
    verify.set_defaults(func=_cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _CAP_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except _INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main_entry() -> None:
    sys.exit(main())
