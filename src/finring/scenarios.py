"""Named end-to-end verification scenarios used by the command line.

Each scenario rebuilds one of the library's headline checkable claims from
scratch and reports a structured pass/fail with human-readable detail lines.
They are deterministic and exercise the full public surface between them.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from . import atlas, freealg, graphs, rings, structure
from .errors import FormatError

SCENARIO_NAMES = (
    "cor1",
    "prop5",
    "prop4-counterexample",
    "tn4-identities",
    "theorem3-shape",
)


@dataclass
class ScenarioResult:
    name: str
    passed: bool
    lines: list[str]


class AtlasCache:
    """Per-order atlas entries, optionally persisted to a directory.

    A cache directory makes repeated scenario runs cheap: each order is
    enumerated once, saved as atlas-<n>.txt, and loaded back afterwards.
    """

    def __init__(self, directory=None, *, cap: int = atlas.DEFAULT_ENUMERATION_CAP, workers: int = 1):
        self.directory = directory
        self.cap = cap
        self.workers = workers
        self._memo: dict[int, list[atlas.AtlasEntry]] = {}

    def get(self, n: int) -> list[atlas.AtlasEntry]:
        if n in self._memo:
            return self._memo[n]
        path = None
        if self.directory is not None:
            path = os.path.join(self.directory, f"atlas-{n}.txt")
            if os.path.exists(path):
                entries = atlas.load_atlas(path)
                # Every order has at least one class, so an empty file is not an atlas.
                if not entries or entries[0].ring.order != n:
                    raise FormatError(f"{path} does not hold the atlas of order {n}")
                self._memo[n] = entries
                return entries
        entries = atlas.enumerate_rings(n, cap=self.cap, workers=self.workers)
        if path is not None:
            atlas.save_atlas(entries, path)
        self._memo[n] = entries
        return entries


def _check(lines: list[str], ok: bool, text: str) -> bool:
    lines.append(f"{text}: {'ok' if ok else 'FAILED'}")
    return ok


def cor1(cache: AtlasCache) -> ScenarioResult:
    """Classify every ring of order 2..9 whose zero-divisor graph is the
    2-clique, and match the classes against the four expected rings."""
    lines: list[str] = []
    ok = True
    expected = {
        "N0_3": rings.n0(3, 1),
        "Z9": rings.zn(9),
        "Z3[x]/(x^2)": rings.zpx_mod_x2(3),
        "Z2+Z2": rings.direct_sum(rings.zn(2), rings.zn(2)),
    }
    hits = atlas.rings_with_graph(9, graphs.complete_graph(2), provider=cache.get)
    lines.append(f"classes of order <= 9 with 2-clique zero-divisor graph: {len(hits)}")
    ok &= _check(lines, len(hits) == 4, "exactly four classes")
    # Each atlas entry holds its certificate; compute each expected ring's once.
    certificates = {name: structure.ring_canonical_certificate(r) for name, r in expected.items()}
    matched: list[str] = []
    for entry in hits:
        names = [name for name, cert in certificates.items() if entry.certificate == cert]
        lines.append(f"  order {entry.ring.order} {entry.ring.label} ~ {', '.join(names) or '???'}")
        matched += names
    one_to_one = sorted(matched) == sorted(expected)
    ok &= _check(lines, one_to_one, "one-to-one match with the expected four rings")
    for name, ring in expected.items():
        clique = graphs.is_complete(graphs.zero_divisor_graph(ring))
        ok &= _check(lines, clique == 2, f"graph of {name} is K2")
    # The classification is proved for all finite rings; spot-check two rings
    # beyond the enumerated range.
    for spot in (rings.matrix_ring(rings.zn(2), 2), rings.gf(2, 4)):
        clique = graphs.is_complete(graphs.zero_divisor_graph(spot))
        ok &= _check(lines, clique != 2, f"spot check {spot.label}: graph is not K2")
    # Side facts tying the four rings together.
    radical = structure.jacobson_radical(rings.zn(9))
    quotient_field = rings.quotient(rings.zn(9), radical)
    ok &= _check(
        lines,
        structure.is_local(rings.zn(9))
        and structure.ring_isomorphic(quotient_field, rings.zn(3)) is not None,
        "Z9 modulo its radical is Z3",
    )
    sub = rings.subring_generated(rings.zn(9), {3})
    ok &= _check(
        lines,
        structure.ring_isomorphic(sub.ring, rings.n0(3, 1)) is not None,
        "the subring <3> of Z9 is N0_3",
    )
    return ScenarioResult("cor1", bool(ok), lines)


def _prop5_family(p: int) -> list[rings.FiniteRing]:
    return [
        rings.np2(p),
        rings.npp(p),
        rings.ap(p),
        rings.ap0(p),
        rings.direct_sum(rings.n0(p, 1), rings.zn(p)),
    ]


def prop5(p: int = 2) -> ScenarioResult:
    """All ten pairwise zero-divisor-graph isomorphisms across the five
    order-p^2 rings that share one graph."""
    lines: list[str] = []
    ok = True
    family = _prop5_family(p)
    zgraphs = [(r.label, graphs.zero_divisor_graph(r)) for r in family]
    for i, (la, ga) in enumerate(zgraphs):
        for lb, gb in zgraphs[i + 1 :]:
            witness = graphs.graph_isomorphic(ga, gb)
            ok &= _check(lines, witness is not None, f"graph({la}) ~ graph({lb})")
    lines.append(f"shared graph of the p={p} family:")
    lines.extend("  " + line for line in graphs.export_dot(zgraphs[0][1]).splitlines())
    return ScenarioResult("prop5", bool(ok), lines)


def prop4_counterexample(cache: AtlasCache) -> ScenarioResult:
    """The one genuine graph collision at the bottom of the classification:
    N0_3 and Z2+Z2 share the 2-clique graph but are not isomorphic."""
    lines: list[str] = []
    ok = True
    left = rings.n0(3, 1)
    right = rings.direct_sum(rings.zn(2), rings.zn(2))
    ok &= _check(
        lines,
        graphs.graph_isomorphic(
            graphs.zero_divisor_graph(left), graphs.zero_divisor_graph(right)
        )
        is not None,
        "graph(N0_3) ~ graph(Z2+Z2)",
    )
    # Two witnesses: the isomorphism search, and the number of direct summands.
    ok &= _check(
        lines,
        structure.ring_isomorphic(left, right) is None
        and len(structure.decompose(left)) != len(structure.decompose(right)),
        "N0_3 and Z2+Z2 are not isomorphic as rings",
    )
    # The same collision surfaces in the atlas when entries are filtered by
    # identities holding in both rings (6x and x^2y - xy do).
    identities = [freealg.parse("6x"), freealg.parse("x^2y - xy")]
    entries = [e for n in range(1, 10) for e in cache.get(n)]
    collisions = atlas.graph_determinacy_report(entries, identities)
    lines.append(
        f"graph collisions among order <= 9 rings satisfying "
        f"[{', '.join(freealg.render(p) for p in identities)}]: {len(collisions)}"
    )
    pair = {structure.ring_canonical_certificate(left), structure.ring_canonical_certificate(right)}
    found = any({a.certificate, b.certificate} == pair for a, b in collisions)
    ok &= _check(lines, found, "the (N0_3, Z2+Z2) collision pair is reported")
    return ScenarioResult("prop4-counterexample", bool(ok), lines)


def tn4_identities() -> ScenarioResult:
    """Exhaustively confirm the defining identity sets of the two order-4
    rings at the heart of the 2-power analysis, plus the scaling-collapse
    derivation that turns a unary identity into a pure multiple of x."""
    lines: list[str] = []
    ok = True
    n4 = rings.np2(2)
    n04 = rings.n0(2, 2)
    for ring, source in ((n4, ("xyz", "4x", "2xy", "2x+x^2")), (n04, ("4x", "xy"))):
        for text in source:
            poly = freealg.parse(text)
            result = freealg.satisfies_identity(ring, poly)
            ok &= _check(lines, result.ok, f"{ring.label} satisfies {freealg.render(poly)}")
    triple = freealg.parse("xyz")
    ok &= _check(
        lines,
        freealg.essentially_depends(triple) and freealg.lower_degree(triple) == 3,
        "xyz essentially depends on all three variables (lower degree 3)",
    )
    # Collapse for f = 2x + x^2 (top degree 2): 4 f(x) - f(2x) = (4 - 2) * 2x.
    x = freealg.variable(1)
    f = 2 * x + x * x
    ok &= _check(lines, f == freealg.parse("2x+x^2"), "built 2x + x^2 from generators")
    derived = 4 * f - freealg.substitute(f, {1: 2 * x})
    ok &= _check(lines, derived == freealg.parse("4x"), "4f(x) - f(2x) collapses to 4x")
    ok &= _check(
        lines,
        freealg.satisfies_identity(n4, derived).ok,
        f"{n4.label} satisfies the derived identity {freealg.render(derived)}",
    )
    return ScenarioResult("tn4-identities", bool(ok), lines)


def theorem3_shape(cache: AtlasCache) -> ScenarioResult:
    """Consistency check of the 2-power conclusion shape on the enumerable
    universe: among subdirectly irreducible rings of order 2, 4, 8 satisfying
    2x = 0, x^2 = 0 and commutativity, every ring is nilpotent; and the lone
    field Z2 is itself subdirectly irreducible."""
    lines: list[str] = []
    ok = True
    two_x = freealg.parse("2x")
    x_sq = freealg.parse("x^2")
    x, y = freealg.variable(1), freealg.variable(2)
    commutator = x * y - y * x
    checked = 0
    for n in (2, 4, 8):
        survivors = []
        for entry in cache.get(n):
            # Subdirect irreducibility needs only the principal ideals, not
            # the lattice a full report builds.
            if not structure.is_subdirectly_irreducible(entry.ring):
                continue
            if not all(
                freealg.satisfies_identity(entry.ring, p).ok
                for p in (two_x, x_sq, commutator)
            ):
                continue
            survivors.append(entry)
        lines.append(f"order {n}: {len(survivors)} subdirectly irreducible ring(s) in the filtered family")
        for entry in survivors:
            checked += 1
            nilpotent = structure.is_nilpotent_ring(entry.ring) is not None
            ok &= _check(lines, nilpotent, f"  {entry.ring.label} is nilpotent")
            all_nil = structure.nilpotent_elements(entry.ring) == set(range(n))
            idem = structure.idempotents(entry.ring) == {0}
            ok &= _check(
                lines,
                all_nil and idem,
                f"  {entry.ring.label}: every element nilpotent, no nonzero idempotent",
            )
    ok &= _check(lines, checked > 0, "the filtered family is nonempty")
    z2_cert = structure.ring_canonical_certificate(rings.gf(2, 1))
    z2_entries = [e for e in cache.get(2) if e.certificate == z2_cert]
    ok &= _check(
        lines,
        len(z2_entries) == 1
        and structure.is_field(z2_entries[0].ring)
        and rings.characteristic(z2_entries[0].ring) == 2
        and structure.is_subdirectly_irreducible(z2_entries[0].ring),
        "the field GF(2) appears in the atlas and is subdirectly irreducible",
    )
    return ScenarioResult("theorem3-shape", bool(ok), lines)


def run(name: str, *, p: int = 2, cache: AtlasCache | None = None) -> ScenarioResult:
    """Dispatch a scenario by its command-line name."""
    cache = cache or AtlasCache()
    if name == "cor1":
        return cor1(cache)
    if name == "prop5":
        return prop5(p)
    if name == "prop4-counterexample":
        return prop4_counterexample(cache)
    if name == "tn4-identities":
        return tn4_identities()
    if name == "theorem3-shape":
        return theorem3_shape(cache)
    raise ValueError(f"unknown scenario {name!r}; choose from {', '.join(SCENARIO_NAMES)}")
