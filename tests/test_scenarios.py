import ast
import functools
import importlib
import inspect
import os
import pathlib
import shutil

import pytest

from finring import atlas, freealg, graphs, rings, scenarios, structure
from finring.errors import GraphCapExceeded, OrderCapExceeded

PUBLIC_OPS = {
    rings: [
        "make_ring",
        "zn",
        "gf",
        "n0",
        "np2",
        "npp",
        "ap",
        "ap0",
        "zpx_mod_x2",
        "direct_sum",
        "matrix_ring",
        "quotient",
        "subring_generated",
        "characteristic",
    ],
    structure: [
        "zero_divisors",
        "units",
        "idempotents",
        "nilpotent_elements",
        "has_identity",
        "ideals",
        "jacobson_radical",
        "is_nilpotent_ring",
        "is_subdirectly_irreducible",
        "is_local",
        "is_field",
        "decompose",
        "ring_isomorphic",
        "ring_canonical_certificate",
    ],
    graphs: [
        "zero_divisor_graph",
        "is_complete",
        "canonical_form",
        "graph_isomorphic",
        "export_dot",
    ],
    freealg: [
        "parse",
        "render",
        "substitute",
        "lower_degree",
        "essentially_depends",
        "evaluate",
        "satisfies_identity",
    ],
    atlas: [
        "abelian_group_types",
        "enumerate_rings",
        "rings_with_graph",
        "graph_determinacy_report",
        "save_atlas",
        "load_atlas",
    ],
}


def test_every_scenario_passes():
    cache = scenarios.AtlasCache()
    assert scenarios.run("prop5", p=2).passed
    assert scenarios.run("prop5", p=3).passed
    assert scenarios.run("prop5", p=5).passed
    assert scenarios.run("tn4-identities").passed
    assert scenarios.run("cor1", cache=cache).passed
    assert scenarios.run("prop4-counterexample", cache=cache).passed
    assert scenarios.run("theorem3-shape", cache=cache).passed


def test_unknown_scenario():
    with pytest.raises(ValueError):
        scenarios.run("nope")


def test_scenarios_cover_public_surface(atlas_dir, tmp_path, monkeypatch):
    # the five scenarios, run together against a cache that is missing one
    # order, must touch every public operation of the library
    counts: dict[str, int] = {}

    def wrap(module, name):
        original = getattr(module, name)

        @functools.wraps(original)
        def counted(*args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    for module, names in PUBLIC_OPS.items():
        for name in names:
            wrap(module, name)

    cache_dir = tmp_path / "cache"
    cache_dir.mkdir()
    for n in (1, 2, 3, 4, 5, 6, 7, 9):
        shutil.copy(os.path.join(atlas_dir, f"atlas-{n}.txt"), cache_dir)

    cache = scenarios.AtlasCache(str(cache_dir))
    for name, kwargs in (
        ("cor1", {"cache": cache}),
        ("prop5", {"p": 2}),
        ("prop4-counterexample", {"cache": cache}),
        ("tn4-identities", {}),
        ("theorem3-shape", {"cache": cache}),
    ):
        result = scenarios.run(name, **kwargs)
        assert result.passed, (name, result.lines)

    missing = [
        name
        for module, names in PUBLIC_OPS.items()
        for name in names
        if counts.get(name, 0) == 0
    ]
    assert missing == []


@pytest.mark.parametrize("name, counted, expected", [
    ("cor1", (graphs, "canonical_form"), 5),
    ("prop4-counterexample", (graphs, "canonical_form"), 11),
    ("theorem3-shape", (structure, "structure_report"), 0),
])
def test_warm_scenarios_compute_only_deciding_graph_forms_and_reports(
    atlas_dir, monkeypatch, name, counted, expected
):
    # Graph forms are computed only for entries whose graph size can match,
    # and theorem3-shape reads nilpotency without a full report.
    module, attr = counted
    calls = []
    original = getattr(module, attr)

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, attr, counting)
    result = scenarios.run(name, cache=scenarios.AtlasCache(str(atlas_dir)))
    assert result.passed, result.lines
    assert len(calls) == expected


def test_scenarios_match_atlas_entries_by_certificate(atlas_dir, monkeypatch):
    # On a warm cache every atlas entry already holds its certificate, so no
    # scenario runs an isomorphism search on an entry's ring.
    loaded: list[atlas.AtlasEntry] = []
    searched: list[tuple] = []
    load, search = atlas.load_atlas, structure.ring_isomorphic

    def loading(path):
        entries = load(path)
        loaded.extend(entries)
        return entries

    def searching(r, s, **kwargs):
        searched.append((r, s))
        return search(r, s, **kwargs)

    monkeypatch.setattr(atlas, "load_atlas", loading)
    monkeypatch.setattr(structure, "ring_isomorphic", searching)
    cache = scenarios.AtlasCache(str(atlas_dir))
    for name in scenarios.SCENARIO_NAMES:
        assert scenarios.run(name, cache=cache).passed, name
    assert len({e.ring.order for e in loaded}) == 9
    assert searched
    entry_rings = {id(e.ring) for e in loaded}
    assert not [pair for pair in searched if entry_rings & {id(pair[0]), id(pair[1])}]


def test_cache_round_trip(tmp_path):
    cache = scenarios.AtlasCache(str(tmp_path))
    first = cache.get(4)
    assert os.path.exists(tmp_path / "atlas-4.txt")
    fresh = scenarios.AtlasCache(str(tmp_path))
    second = fresh.get(4)
    assert [e.certificate for e in first] == [e.certificate for e in second]


def test_caps_are_module_constants():
    # Order 256, 64 for structure and graphs, and 16 for enumeration hold
    # for every call: no public function can lift them.
    listed = [(m, name) for m in (rings, structure, graphs) for name in PUBLIC_OPS[m]]
    unlisted = [(rings, "from_products"), (rings, "parse_ringtab"), (rings, "read_ringtab"),
                (structure, "structure_report")]
    for module, name in listed + unlisted:
        params = inspect.signature(getattr(module, name)).parameters
        assert not {"cap", "order_cap"} & set(params), f"{module.__name__}.{name}"
    # The enumeration limit is the hard max alone; FINRING_ENUM_CAP is the
    # command line's policy and reaches no atlas function.
    for fn in (atlas.abelian_group_types, atlas.enumerate_rings, atlas.rings_with_graph):
        assert "cap" not in inspect.signature(fn).parameters, fn.__name__
    assert not hasattr(atlas, "DEFAULT_ENUMERATION_CAP")
    with pytest.raises(OrderCapExceeded, match=r"^enumeration of order 17 exceeds the cap of 16$"):
        atlas.enumerate_rings(17)
    assert "budget" not in inspect.signature(atlas.graph_determinacy_report).parameters
    assert "workers" not in inspect.signature(scenarios.run).parameters
    with pytest.raises(OrderCapExceeded, match=r"^order 257 exceeds the cap of 256$"):
        rings.zn(257)
    with pytest.raises(OrderCapExceeded, match=r"^radical computation is capped at order 64, got 65$"):
        structure.structure_report(rings.zn(65))
    with pytest.raises(GraphCapExceeded, match=r"^graph has 65 vertices, cap is 64$"):
        graphs.canonical_form(graphs.make_graph(65, []))


def test_identity_checks_are_exhaustive_only():
    # A pass is a proof: there is no sampled mode, and over the budget the
    # call raises. The operators replace freealg's add, mul and scale.
    assert list(inspect.signature(freealg.satisfies_identity).parameters) == ["ring", "p", "budget"]
    for name in ("add", "mul", "scale"):
        assert not hasattr(freealg, name), name
    assert not hasattr(atlas.AtlasEntry, "report")


def test_tracer_layer_names_resolve():
    # The benchmark tracer wraps each `module.attr` it lists in LAYERS and
    # cannot install if one of them is gone.
    source = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    tree = ast.parse(source.read_text(encoding="utf-8"))
    assigned = {ast.unparse(n.targets[0]): n.value for n in tree.body if isinstance(n, ast.Assign)}
    layers = ast.literal_eval(assigned["LAYERS"])
    assert "rings" in layers and "make_ring" in layers["rings"]
    for module_name, attrs in layers.items():
        module = importlib.import_module(f"finring.{module_name}")
        for attr in attrs:
            owner, _, leaf = attr.rpartition(".")
            target = getattr(module, owner) if owner else module
            assert callable(vars(target).get(leaf)), f"{module_name}.{attr}"


def test_tracer_counts_identity_checks(tmp_path, monkeypatch):
    # The benchmark tracer wraps satisfies_identity and derives the
    # assignment count from its arguments and result; uninstalling it puts
    # the original function back.
    monkeypatch.syspath_prepend(str(pathlib.Path(__file__).resolve().parents[1]))
    from finring import cli
    from perfbench.tracing import Tracer

    path = tmp_path / "z4.txt"
    rings.write_ringtab(rings.zn(4), path)
    original = freealg.satisfies_identity
    tracer = Tracer()
    tracer.install()
    try:
        assert cli.main(["identity", "check", str(path), "xy - yx"]) == 0
    finally:
        tracer.uninstall()
    assert tracer.op_counts([tracer.op])["freealg.assignments"] == 16
    assert freealg.satisfies_identity is original
