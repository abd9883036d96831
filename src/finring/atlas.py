"""Exhaustive classification of finite rings of a given order, up to isomorphism.

Strategy per prime-power order: for every abelian type of the additive
group, scan the generator-product structure constants (each constrained to
the subgroup its bilinear extension needs, listed once by `_allowed`),
filtering by associativity on generator triples as soon as the involved
products are fixed.  The frontier is one uint8 column per fixed product,
and each term of a constraint is one read of the type's flat table of
a + d*v (`addgroup.axpy_arrays`), cached once per type.  The scan starts
from the first rows e0*e0, ..., e0*e_{k-1} that are lexicographically least
in their orbit under Stab(e0), the additive automorphisms fixing e0
(`_first_rows`; the first-level orbit pruning of McKay & Piperno,
arXiv:1301.1493): relabelling by such an automorphism keeps a ring in its
class and moves its first row within that orbit, so every class meets a
kept row.  A scan job is an additive type with some of those rows; one set
of additive-automorphism orbits covers the whole job, so a job certifies
each class it meets once.  The orbits are read with the same action of
Aut(typ) that the certificate minimizes over, and each class is re-emitted
from its canonical certificate by the decoder in `structure`, which makes
the output independent of scan partitioning and worker count.  Composite
orders are assembled from the prime-power parts, since a finite ring is the
direct sum of its primary components.
"""

from __future__ import annotations

import itertools
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from functools import cached_property, lru_cache

from . import addgroup, freealg, graphs, rings, structure
from .errors import FormatError, OrderCapExceeded
from .rings import FiniteRing

DEFAULT_ENUMERATION_CAP = 9
ENUMERATION_HARD_MAX = 16
SCAN_BUDGET = 1 << 30
# Rings of order 1, 2, ..., 31 up to isomorphism: OEIS A027623.
CLASS_COUNTS = (1, 2, 2, 11, 2, 4, 2, 52, 11, 4, 2, 22, 2, 4, 4, 390, 2, 22, 2, 22, 4, 4, 2,
                104, 11, 4, 59, 22, 2, 8, 2)


@dataclass(frozen=True)
class AtlasEntry:
    """One class as an atlas file stores it; its zero-divisor graph and graph
    form are computed on first read."""

    ring: FiniteRing
    certificate: bytes

    @cached_property
    def graph(self) -> graphs.SimpleGraph:
        return graphs.zero_divisor_graph(self.ring)

    @cached_property
    def graph_certificate(self) -> bytes:
        return graphs.canonical_form(self.graph)


def _graph_size(graph: graphs.SimpleGraph) -> tuple[int, int]:
    """Vertex and edge counts, which isomorphic graphs share."""
    return graph.vertex_count, len(graph.edges)


def _partitions(total: int, largest: int | None = None) -> list[tuple[int, ...]]:
    if total == 0:
        return [()]
    out = []
    top = total if largest is None else min(total, largest)
    for first in range(top, 0, -1):
        for rest in _partitions(total - first, first):
            out.append((first,) + rest)
    return out


def _check_enum_cap(n: int, cap: int) -> None:
    limit = min(cap, ENUMERATION_HARD_MAX)
    if n > limit:
        raise OrderCapExceeded(
            f"enumeration of order {n} exceeds the cap of {limit}"
            + (f" (hard max {ENUMERATION_HARD_MAX})" if cap > ENUMERATION_HARD_MAX else "")
        )


def _primary_parts(n: int) -> list[tuple[int, int]]:
    """(p, e) for each prime power p^e exactly dividing n, p ascending."""
    parts = []
    for p in addgroup.prime_factors(n):
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        parts.append((p, e))
    return parts


def abelian_group_types(n: int, *, cap: int = DEFAULT_ENUMERATION_CAP) -> list[tuple[int, ...]]:
    """All abelian groups of order n as descending prime-power order tuples."""
    if n < 1:
        raise ValueError("order must be at least 1")
    _check_enum_cap(n, cap)
    per_prime = [[tuple(p ** part for part in parts) for parts in _partitions(e)]
                 for p, e in _primary_parts(n)]
    types = [()]
    for options in per_prime:
        types = [base + extra for base in types for extra in options]
    canon = [tuple(sorted(t, reverse=True)) for t in types]
    canon.sort(reverse=True)
    return canon


def _scan_positions(k: int) -> list[tuple[int, int]]:
    positions = []
    for t in range(k):
        for j in range(t, k):
            positions.append((t, j))
        for i in range(t + 1, k):
            positions.append((i, t))
    return positions


def _schedule(k: int, positions: list[tuple[int, int]]) -> list[list[tuple[int, int, int]]]:
    # Constraint (i, j, kk) touches row i and column kk of the product table;
    # it fires at the first position where both are fully assigned.
    index = {pos: t for t, pos in enumerate(positions)}
    plan: list[list[tuple[int, int, int]]] = [[] for _ in positions]
    for i in range(k):
        for j in range(k):
            for kk in range(k):
                needed = {(i, t) for t in range(k)} | {(t, kk) for t in range(k)}
                plan[max(index[pos] for pos in needed)].append((i, j, kk))
    return plan


def _allowed(typ: tuple[int, ...]) -> list[tuple[int, ...]]:
    """The values each scan position may take: e_i*e_j is killed by
    gcd(m_i, m_j), since both m_i*e_i and m_j*e_j are zero.  The first k
    positions are the first row (0, 0), ..., (0, k-1)."""
    group = addgroup.std_group(typ)
    positions = _scan_positions(len(typ))
    return [group.annihilated_by(math.gcd(typ[i], typ[j])) for (i, j) in positions]


def _scan_tensors(
    typ: tuple[int, ...], first_rows: tuple[tuple[int, ...], ...]
) -> list[tuple[int, ...]]:
    """Associative structure-constant assignments whose first row
    (e0*e0, ..., e0*e_{k-1}) is one of `first_rows`, an (r, k) sequence of
    allowed rows in ascending order, in lexicographic scan order.

    The frontier is one uint8 column per fixed scan position.  Each new
    position repeats every row once per allowed value, then drops the rows
    that fail a constraint it completes, one constraint at a time and in
    place order.  Each side of a constraint is one `addgroup.combination`
    call: per term, one read of a digit column and one of the type's flat
    table of a + d*v, with an int32 index."""
    import numpy as np

    k = len(typ)
    positions = _scan_positions(k)
    index = {pos: t for t, pos in enumerate(positions)}
    plan = _schedule(k, positions)
    allowed = _allowed(typ)
    columns = list(np.array(first_rows, dtype=np.uint8).reshape(-1, k).T.copy())
    for t in range(len(positions)):
        if t >= k:
            vals = np.array(allowed[t], dtype=np.uint8)
            rows = len(columns[0])
            columns = [np.repeat(c, len(vals)) for c in columns]
            columns.append(np.tile(vals, rows))
        for (i, j, kk) in plan[t]:
            # (e_i e_j) e_kk is sum_t d_t (e_t e_kk), d_t the digits of e_i e_j;
            # e_i (e_j e_kk) is sum_t d_t (e_i e_t), d_t the digits of e_j e_kk.
            left = addgroup.combination(
                typ, columns[index[(i, j)]], [columns[index[(tt, kk)]] for tt in range(k)])
            right = addgroup.combination(
                typ, columns[index[(j, kk)]], [columns[index[(i, tt)]] for tt in range(k)])
            keep = left == right
            columns = [c[keep] for c in columns]
        if len(columns[0]) == 0:
            return []
    order_cols = [columns[index[(i, j)]].tolist() for i in range(k) for j in range(k)]
    return list(zip(*order_cols))


@lru_cache(maxsize=None)
def _first_rows(typ: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """The allowed first rows (e0*e0, ..., e0*e_{k-1}) that are least in
    their orbit under Stab(e0), ascending.

    A first row L determines e0*y = sum_t y_t L_t for every y with digits
    y_t, an additive map since L_t is killed by gcd(m_0, m_t), which divides
    the order m_t of e_t.  An automorphism phi fixing e0 relabels a ring
    with first row L into one with first row phi^-1[e0*phi(e_j)],
    j = 0..k-1, which depends on L and phi alone and is again allowed.  So
    the allowed rows split into orbits, and every class has a presentation
    whose first row is the least of its orbit.
    """
    import numpy as np

    group = addgroup.std_group(typ)
    n, k = group.order, len(typ)
    autos = addgroup.automorphism_perms(typ)
    fixes = autos[:, group.gens[0]] == group.gens[0]
    images = autos[fixes][:, list(group.gens)]
    inverses = addgroup.automorphism_inverses(typ)[fixes]
    rows = np.array(list(itertools.product(*_allowed(typ)[:k])), dtype=np.int32)
    # products[r, y] = e0*y = sum_t y_t (e0 e_t) under first row r.
    products = addgroup.combination(typ, np.arange(n), rows.T[:, :, None])
    # Codes sum v_j n^(k-1-j) order as the rows do lexicographically.
    weights = n ** np.arange(k - 1, -1, -1, dtype=np.int64)
    codes = rows @ weights
    least = codes.copy()
    for image, inverse in zip(images, inverses):
        np.minimum(least, inverse[products[:, image]] @ weights, out=least)
    return tuple(map(tuple, rows[codes == least].tolist()))


def _chunk_certificates(job: tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]) -> list[bytes]:
    """Worker body: scan the job's first rows and return the certificates of
    the classes first seen inside the job (one orbit-dedup set covers all
    its rows).

    The scan's tensors are associative on generator triples and their
    tables are bilinear by construction, so the tables are rings and are
    certified as one stack without a check."""
    typ, first_rows = job
    tensors = _scan_tensors(typ, first_rows)
    if not tensors:
        return []
    group = addgroup.std_group(typ)
    tables = rings._bilinear_tables(typ, tensors)
    seen: set[tuple[int, ...]] = set()
    kept = []
    for t, products in enumerate(tensors):
        if products in seen:
            continue
        kept.append(t)
        # The generator products of every table in the ring's orbit, in type order.
        orbit = structure._aut_action(typ, tables[t], slice(None))
        seen.update(map(tuple, orbit[:, ::-1].tolist()))
    return [cert for cert, _ in structure._canonical_stack([group.add] * len(kept), tables[kept])]


def _prime_power_certs(q: int, cap: int, workers: int) -> list[bytes]:
    types = abelian_group_types(q, cap=cap)
    # Refuse before any automorphism group is built.  The space counts every
    # first row, not only the representatives the scan takes.
    for typ in types:
        space = math.prod(len(values) for values in _allowed(typ))
        if space > SCAN_BUDGET:
            raise OrderCapExceeded(
                f"additive type {typ} needs a scan over {space} structure-constant "
                f"tuples, beyond the supported budget"
            )
    cpus = os.cpu_count() or 1
    jobs = []
    for typ in types:
        first_rows = _first_rows(typ)
        split = max(1, min(workers, len(first_rows), cpus))
        jobs.extend((typ, first_rows[i::split]) for i in range(split))
    workers = min(workers, len(jobs), cpus)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_chunk_certificates, jobs))
    else:
        results = [_chunk_certificates(job) for job in jobs]
    merged: set[bytes] = set()
    for chunk in results:
        merged.update(chunk)
    return sorted(merged)


def make_entry(ring: FiniteRing, *, certificate: bytes | None = None) -> AtlasEntry:
    """Wrap a ring with its certificate, computed unless one is given."""
    cert = certificate if certificate is not None else structure.ring_canonical_certificate(ring)
    return AtlasEntry(ring, cert)


def enumerate_rings(
    n: int, *, cap: int = DEFAULT_ENUMERATION_CAP, workers: int = 1
) -> list[AtlasEntry]:
    """One canonical representative per isomorphism class of rings of order n.

    Entries come back sorted by certificate and labeled R<n>_<index>; the
    result is byte-for-byte independent of the worker count.
    """
    import numpy as np

    if n < 1:
        raise ValueError("order must be at least 1")
    _check_enum_cap(n, cap)
    parts = sorted((p**e for p, e in _primary_parts(n)), reverse=True) or [1]
    per_part: list[list[tuple[bytes, FiniteRing]]] = []
    for q in parts:
        certs = _prime_power_certs(q, cap, workers) if q > 1 else [
            structure.ring_canonical_certificate(rings.zn(1))
        ]
        per_part.append([(c, structure._canonical_ring(c)) for c in certs])
    # A ring decoded from a certificate has that certificate, so only direct
    # sums of several parts need a new one, all certified as one stack.
    keyed = per_part[0]
    if len(per_part) > 1:
        combos = [ring for _, ring in per_part[0]]
        for other in per_part[1:]:
            combos = [rings.direct_sum(a, b) for a in combos for _, b in other]
        muls = np.array([ring.mul for ring in combos], dtype=np.uint8)
        certified = structure._canonical_stack([ring.add for ring in combos], muls)
        keyed = sorted(zip((cert for cert, _ in certified), combos))
    entries = []
    for i, (cert, ring) in enumerate(keyed):
        labeled = replace(ring, label=f"R{n}_{i}")
        entries.append(make_entry(labeled, certificate=cert))
    return entries


def rings_with_graph(
    n_max: int,
    graph: graphs.SimpleGraph,
    *,
    provider,
    cap: int = DEFAULT_ENUMERATION_CAP,
) -> list[AtlasEntry]:
    """Atlas entries of order 1..n_max whose zero-divisor graph matches `graph`.

    `provider` maps an order to its entry list, e.g. an AtlasCache's `get`.
    The target's canonical form is computed first, so an over-cap target is
    refused before any entry is read.  An entry's graph form is computed only
    when its graph has the target's vertex and edge counts, since isomorphic
    graphs agree on both.
    """
    _check_enum_cap(n_max, cap)
    target = graphs.canonical_form(graph)
    size = _graph_size(graph)
    out = []
    for m in range(1, n_max + 1):
        out.extend(
            e for e in provider(m)
            if _graph_size(e.graph) == size and e.graph_certificate == target
        )
    return out


def graph_determinacy_report(
    entries: list[AtlasEntry],
    identities: list[freealg.NcPoly] | None = None,
) -> list[tuple[AtlasEntry, AtlasEntry]]:
    """Pairs with the same graph certificate but different ring certificate.

    Entries failing any polynomial in `identities` are dropped first; an
    empty result means the surviving family is determined by its graphs.
    The kept entries are grouped by the vertex and edge counts of their
    graphs, and graph forms are computed only in groups of two or more: a
    collision needs equal graphs, and equal graphs have equal counts.
    Collisions come back sorted by graph certificate, then ring certificate.
    """
    kept = [
        e
        for e in entries
        if all(freealg.satisfies_identity(e.ring, p).ok for p in (identities or []))
    ]
    by_size: dict[tuple[int, int], list[AtlasEntry]] = {}
    for e in kept:
        by_size.setdefault(_graph_size(e.graph), []).append(e)
    by_graph: dict[bytes, list[AtlasEntry]] = {}
    for same_size in by_size.values():
        if len(same_size) > 1:
            for e in same_size:
                by_graph.setdefault(e.graph_certificate, []).append(e)
    collisions = []
    for gcert in sorted(by_graph):
        group = sorted(by_graph[gcert], key=lambda e: e.certificate)
        for i, a in enumerate(group):
            for b in group[i + 1 :]:
                if a.certificate != b.certificate:
                    collisions.append((a, b))
    return collisions


# --- atlas file format ---------------------------------------------------------
#
#   atlas v1
#   order <n>
#   count <k>
#   <k certificate lines, lowercase hex, strictly ascending>
#   <blank line, then k ringtab blocks separated by blank lines>


def _strictly_ascending(certs: list[bytes]) -> bool:
    return all(a < b for a, b in zip(certs, certs[1:]))


def save_atlas(entries: list[AtlasEntry], path) -> None:
    orders = {e.ring.order for e in entries}
    if len(orders) > 1:
        raise ValueError("an atlas file holds entries of a single order")
    if not _strictly_ascending([e.certificate for e in entries]):
        raise ValueError("an atlas file holds each class once, by ascending certificate")
    order = orders.pop() if orders else 0
    lines = ["atlas v1", f"order {order}", f"count {len(entries)}"]
    lines.extend(e.certificate.hex() for e in entries)
    blocks = [rings.format_ringtab(e.ring) for e in entries]
    text = "\n".join(lines) + "\n"
    if blocks:
        text += "\n" + "\n".join(blocks)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def load_atlas(path) -> list[AtlasEntry]:
    """The entries of an atlas file.  A file in the form save_atlas writes is
    checked as one batch: the ringtab blocks are read as one stack of
    tables, validated with one axiom check and re-certified together.  A
    file the batch does not accept whole is read entry by entry, so a faulty
    file raises the error of its first faulty entry, from the first check it
    fails: reading, the axioms, the order, then the stored certificate."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    # Text mode turns \r\n into \n; split at \n alone, as parse_ringtab does,
    # so a form feed or other Unicode line break inside a row stays in it.
    lines = text.split("\n")
    if lines[0] != "atlas v1":
        raise FormatError("missing 'atlas v1' magic line")
    try:
        order = int(lines[1].removeprefix("order "))
        count = int(lines[2].removeprefix("count "))
    except (IndexError, ValueError):
        raise FormatError("bad atlas header") from None
    # Only the lines save_atlas writes: int() alone takes "2 ", "+2" or "02".
    if lines[1:3] != [f"order {order}", f"count {count}"] or min(order, count) < 0:
        raise FormatError("bad atlas header")
    certs = []
    for i in range(count):
        try:
            certs.append(bytes.fromhex(lines[3 + i]))
        except (IndexError, ValueError):
            raise FormatError(f"bad certificate line {3 + i + 1}") from None
    if not _strictly_ascending(certs):
        raise FormatError("certificate lines are not strictly ascending")
    # An empty file, as save_atlas([]) writes, has order 0.
    if order > len(CLASS_COUNTS):
        raise FormatError(f"no class count is known for order {order}")
    expected = CLASS_COUNTS[order - 1] if order else 0
    if count != expected:
        raise FormatError(f"an atlas of order {order} lists {expected} classes, not {count}")
    body = "\n".join(lines[3 + count :])
    blocks = [b for b in body.split("\n\n") if b.strip()]
    if len(blocks) != count:
        raise FormatError(f"expected {count} ringtab blocks, found {len(blocks)}")
    read = rings._read_ringtabs(blocks, order)
    if read is not None:
        labels, (add, mul) = read
        adds = [tuple(map(tuple, table)) for table in add.tolist()]
        if rings._check_axioms(adds, add, mul):
            recomputed = [cert for cert, _ in structure._canonical_stack(adds, mul)]
            if recomputed == certs:
                return [AtlasEntry(FiniteRing(order, a, tuple(map(tuple, m)), label), cert)
                        for a, m, label, cert in zip(adds, mul.tolist(), labels, certs)]
    # Entry by entry, in file order, the first faulty entry raises its own
    # error; a valid file not in the written form loads here.
    entries = []
    for cert, block in zip(certs, blocks):
        ring = rings.parse_ringtab(block)
        if ring.order != order:
            raise FormatError(f"entry order {ring.order} does not match header {order}")
        if structure.ring_canonical_certificate(ring) != cert:
            raise FormatError("stored certificate does not match its ring")
        entries.append(AtlasEntry(ring, cert))
    return entries
