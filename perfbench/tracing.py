"""Per-layer spans and counts, recorded from outside the program.

`Tracer.install` replaces the module attributes of finring's layer entry
points with wrappers, so calls between modules and inside one module (which
look the name up in the module at call time) both pass through a span.
Nothing under src/ changes.  Spans stay in memory and are written out once,
at the end of the run.

A span's self time is its duration minus the part of its interval that its
child spans cover; this separates a certificate from the `decompose` that
called it, and `decompose` from the `structure_report` and `load_atlas`
above it.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import time
from collections import Counter
from dataclasses import asdict, dataclass

# Module -> wrapped attributes.  The layers are the package modules; the
# attributes are their public entry points, plus the private `_scan_tensors`
# that the roadmap names as the structure-constant scan layer.
LAYERS = {
    "cli": ("main",),
    "scenarios": ("run", "AtlasCache.get"),
    "atlas": (
        "enumerate_rings",
        "_scan_tensors",
        "make_entry",
        "save_atlas",
        "load_atlas",
        "rings_with_graph",
        "graph_determinacy_report",
    ),
    "structure": (
        "structure_report",
        "ideals",
        "jacobson_radical",
        "decompose",
        "ring_canonical_certificate",
        "ring_isomorphic",
    ),
    "graphs": ("zero_divisor_graph", "canonical_form", "graph_isomorphic"),
    "freealg": ("parse", "satisfies_identity"),
    "rings": ("read_ringtab", "parse_ringtab", "make_ring", "direct_sum", "matrix_ring"),
    "addgroup": ("iter_basis_perms",),
}

# Generators get no span (it would end at the first yield); their items are
# counted instead.
GENERATORS = {"addgroup.iter_basis_perms": "addgroup.iter_basis_perms.bases"}

# (name, unit) of every per-layer metric, all per timed pass.
PER_LAYER = (
    ("structure.ring_canonical_certificate.calls", "count/pass"),
    ("structure.ring_canonical_certificate.self_s", "s/pass"),
    ("addgroup.iter_basis_perms.bases", "count/pass"),
    ("atlas._scan_tensors.calls", "count/pass"),
    ("atlas._scan_tensors.self_s", "s/pass"),
    ("atlas._scan_tensors.kept", "count/pass"),
    ("atlas.dedup_yield", "ratio"),
    ("rings.make_ring.calls", "count/pass"),
    ("rings.make_ring.self_s", "s/pass"),
    ("rings.parse_ringtab.self_s", "s/pass"),
    ("structure.structure_report.calls", "count/pass"),
    ("structure.structure_report.self_s", "s/pass"),
    ("structure.ideals.calls", "count/pass"),
    ("structure.ideals.self_s", "s/pass"),
    ("structure.ideals_per_report", "ratio"),
    ("structure.decompose.self_s", "s/pass"),
    ("atlas.load_atlas.calls", "count/pass"),
    ("atlas.load_atlas.self_s", "s/pass"),
    ("atlas.load_atlas.bytes", "B/pass"),
    ("atlas.save_atlas.calls", "count/pass"),
    ("atlas.save_atlas.self_s", "s/pass"),
    ("atlas.save_atlas.bytes", "B/pass"),
    ("atlas.make_entry.calls", "count/pass"),
    ("atlas.make_entry.self_s", "s/pass"),
    ("graphs.zero_divisor_graph.self_s", "s/pass"),
    ("graphs.canonical_form.calls", "count/pass"),
    ("graphs.canonical_form.self_s", "s/pass"),
    ("graphs.graph_isomorphic.calls", "count/pass"),
    ("graphs.graph_isomorphic.self_s", "s/pass"),
    ("freealg.parse.self_s", "s/pass"),
    ("freealg.satisfies_identity.calls", "count/pass"),
    ("freealg.satisfies_identity.self_s", "s/pass"),
    ("freealg.assignments", "count/pass"),
    ("structure.ring_isomorphic.calls", "count/pass"),
    ("structure.ring_isomorphic.self_s", "s/pass"),
    ("scenarios.AtlasCache.get.calls", "count/pass"),
    ("cli.main.self_s", "s/pass"),
    ("trace.ops_per_kref_ratio", "ratio"),
)


@dataclass(frozen=True)
class Span:
    id: int
    parent: int  # -1 for a span opened directly by the benchmark
    op: int  # the op (one cli.main call) the span belongs to
    name: str
    start: float
    end: float


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the union of its children's intervals."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        covered = 0.0
        cursor = s.start
        for c in sorted(children.get(s.id, ()), key=lambda c: c.start):
            lo, hi = max(c.start, cursor), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[s.id] = (s.end - s.start) - covered
    return out


def _under(spans: list[Span], name: str, ancestor: str) -> int:
    """How many spans called `name` have an enclosing span called `ancestor`."""
    by_id = {s.id: s for s in spans}
    hits = 0
    for s in spans:
        if s.name != name:
            continue
        parent = by_id.get(s.parent)
        while parent is not None and parent.name != ancestor:
            parent = by_id.get(parent.parent)
        hits += parent is not None
    return hits


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# Counts taken when a wrapped call returns, from its arguments and result.

def _scan_kept(tracer, args, kwargs, result):
    tracer.count("atlas._scan_tensors.kept", len(result))


def _classes(tracer, args, kwargs, result):
    tracer.count("atlas.enumerate_rings.classes", len(result))


def _load_bytes(tracer, args, kwargs, result):
    tracer.count("atlas.load_atlas.bytes", os.path.getsize(args[0]))


def _save_bytes(tracer, args, kwargs, result):
    tracer.count("atlas.save_atlas.bytes", os.path.getsize(args[1] if len(args) > 1 else kwargs["path"]))


def _assignments(tracer, args, kwargs, result):
    # Assignments run in lexicographic order over the sorted variables, so a
    # failure at index i means i + 1 were evaluated.
    ring, poly = args[0], args[1]
    variables = poly.variables()
    if result.ok:
        seen = ring.order ** len(variables)
    else:
        index = 0
        for v in variables:
            index = index * ring.order + result.counterexample[v]
        seen = index + 1
    tracer.count("freealg.assignments", seen)


AFTER = {
    "atlas._scan_tensors": _scan_kept,
    "atlas.enumerate_rings": _classes,
    "atlas.load_atlas": _load_bytes,
    "atlas.save_atlas": _save_bytes,
    "freealg.satisfies_identity": _assignments,
}


class Tracer:
    """In-memory spans and per-op counters around finring's layer functions."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: dict[int, Counter] = {}
        self.op = -1
        self._stack: list[int] = []
        self._next_id = 0
        self._patched: list[tuple[object, str, object]] = []

    def count(self, key: str, n: int = 1) -> None:
        self.counts.setdefault(self.op, Counter())[key] += n

    def install(self) -> None:
        for module_name, attrs in LAYERS.items():
            module = importlib.import_module(f"finring.{module_name}")
            for attr in attrs:
                owner, _, leaf = attr.rpartition(".")
                target = getattr(module, owner) if owner else module
                original = vars(target)[leaf]
                name = f"{module_name}.{attr}"
                if name in GENERATORS:
                    wrapper = self._counting(GENERATORS[name], original)
                else:
                    wrapper = self._spanning(name, original, AFTER.get(name))
                setattr(target, leaf, wrapper)
                self._patched.append((target, leaf, original))

    def uninstall(self) -> None:
        while self._patched:
            target, leaf, original = self._patched.pop()
            setattr(target, leaf, original)

    def _spanning(self, name, fn, after):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = self._stack[-1] if self._stack else -1
            self._stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans.append(Span(span_id, parent, self.op, name, start, end))
            if after is not None:
                after(self, args, kwargs, result)
            return result

        return wrapper

    def _counting(self, key, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            for item in fn(*args, **kwargs):
                self.count(key)
                yield item

        return wrapper

    def op_counts(self, ops) -> Counter:
        """Span calls and counters summed over the given op ids."""
        ops = set(ops)
        total = Counter()
        for s in self.spans:
            if s.op in ops:
                total[f"{s.name}.calls"] += 1
        for op in ops:
            total.update(self.counts.get(op, {}))
        return total

    def layer_metrics(self, ops, passes: int) -> dict[str, float]:
        """Every PER_LAYER metric except the tracing overhead, per pass."""
        ops = set(ops)
        spans = [s for s in self.spans if s.op in ops]
        own = self_times(spans)
        values: Counter = Counter()
        for s in spans:
            values[f"{s.name}.self_s"] += own[s.id]
        values.update(self.op_counts(ops))
        values["atlas.dedup_yield"] = _ratio(
            values["atlas.enumerate_rings.classes"],
            _under(spans, "structure.ring_canonical_certificate", "atlas.enumerate_rings"),
        )
        values["structure.ideals_per_report"] = _ratio(
            _under(spans, "structure.ideals", "structure.structure_report"),
            values["structure.structure_report.calls"],
        )
        out = {}
        for name, unit in PER_LAYER:
            if name == "trace.ops_per_kref_ratio":
                continue
            out[name] = values[name] if unit == "ratio" else values[name] / passes
        return out

    def write(self, path, ops: list[dict]) -> None:
        """Write ops, spans and counters as JSON lines."""
        with open(path, "w", encoding="utf-8") as fh:
            for op in ops:
                fh.write(json.dumps({"kind": "op", **op}) + "\n")
            for s in self.spans:
                fh.write(json.dumps({"kind": "span", **asdict(s)}) + "\n")
            for op, counts in sorted(self.counts.items()):
                fh.write(json.dumps({"kind": "counts", "op": op, **counts}) + "\n")
