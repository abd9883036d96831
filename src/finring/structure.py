"""Structural invariants of finite rings.

Zero divisors, units, the ideal lattice, the radical, subdirect
irreducibility, direct-sum decomposition, and the canonical certificate
that isomorphism testing reads its answer and witness off.  Everything here
is a pure function of the Cayley tables.
"""

from __future__ import annotations

from collections.abc import Collection, Iterable
from dataclasses import dataclass

from . import addgroup, rings
from .errors import BudgetExceeded, FormatError, NoIdentity, OrderCapExceeded
from .rings import FiniteRing

STRUCTURAL_CAP = 64
# Largest additive automorphism group a certificate minimizes over.  It covers
# every additive type of order <= 16 and (3, 3, 3); GL(5, 2) is far above it.
AUTOMORPHISM_BUDGET = 1 << 17
# Product-table entries per vectorized block of the certificate minimum.
_CERTIFICATE_BLOCK = 1 << 16


@dataclass(frozen=True)
class Ideal:
    ring: FiniteRing
    members: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.members)

    def __contains__(self, x: int) -> bool:
        return x in self.members


def zero_divisors(ring: FiniteRing) -> set[int]:
    """Nonzero x annihilating some nonzero y on at least one side."""
    n = ring.order
    mul = ring.mul
    out = set()
    for x in range(1, n):
        for y in range(1, n):
            if mul[x][y] == 0 or mul[y][x] == 0:
                out.add(x)
                break
    return out


def has_identity(ring: FiniteRing) -> int | None:
    """The two-sided identity element, if the ring has one."""
    n = ring.order
    for e in range(n):
        if all(ring.mul[e][x] == x == ring.mul[x][e] for x in range(n)):
            return e
    return None


def units(ring: FiniteRing) -> set[int]:
    """Invertible elements; only defined when the ring has an identity."""
    e = has_identity(ring)
    if e is None:
        raise NoIdentity("units are only defined for rings with identity")
    return _units(ring, e)


def _units(ring: FiniteRing, e: int) -> set[int]:
    """Invertible elements with respect to the identity e."""
    n, mul = ring.order, ring.mul
    return {x for x in range(n) if any(mul[x][y] == e == mul[y][x] for y in range(n))}


def idempotents(ring: FiniteRing) -> set[int]:
    return {x for x in range(ring.order) if ring.mul[x][x] == x}


def nilpotent_elements(ring: FiniteRing) -> set[int]:
    out = set()
    for x in range(ring.order):
        seen = set()
        cur = x
        while cur not in seen:
            if cur == 0:
                out.add(x)
                break
            seen.add(cur)
            cur = ring.mul[cur][x]
    return out


def is_commutative(ring: FiniteRing) -> bool:
    n = ring.order
    return all(ring.mul[x][y] == ring.mul[y][x] for x in range(n) for y in range(n))


def _principal_ideals(ring: FiniteRing) -> list[tuple[list[int], frozenset[int]]]:
    """A generating set of (x) as a group, and its members, for each x.

    With S the additive generators of R, the maps r -> rx, r -> xr and
    (r, s) -> rxs are additive, so (x) = Zx + Rx + xR + RxR is the additive
    span of x, gx, xg and gxh for g, h in S.
    """
    gens = addgroup.generators(ring.add)
    mul = ring.mul
    out = []
    for x in range(ring.order):
        left = [mul[g][x] for g in gens]
        seeds = [x, *left, *(mul[x][g] for g in gens), *(mul[gx][h] for gx in left for h in gens)]
        kept, members = addgroup.span(ring.add, seeds)
        out.append((kept, frozenset(members)))
    return out


def _check_cap(ring: FiniteRing, what: str) -> None:
    if ring.order > STRUCTURAL_CAP:
        raise OrderCapExceeded(f"{what} is capped at order {STRUCTURAL_CAP}, got {ring.order}")


def ideals(ring: FiniteRing) -> list[Ideal]:
    """All two-sided ideals, sorted by (size, members)."""
    _check_cap(ring, "ideal enumeration")
    return [Ideal(ring, tuple(sorted(s))) for s in _lattice(ring, _principal_ideals(ring))]


def _lattice(ring: FiniteRing, principal: list[tuple[list[int], frozenset[int]]]) -> list[frozenset[int]]:
    """Every ideal, sorted by (size, members): each is the join of the
    principal ideals of its elements.  A join is the additive span of the two
    generating sets; multiplicative closure is inherited."""
    found = {members: kept for kept, members in principal}
    worklist = list(found.items())
    while worklist:
        nxt = []
        for ideal, ideal_gens in worklist:
            # I + (x) = I + (x + i) for i in I, as each of x and x + i lies in
            # the other's join with I, so one x per coset of I will do.
            inside = [False] * ring.order
            for i in ideal:
                inside[i] = True
            for x, (gens, _) in enumerate(principal):
                if inside[x]:
                    continue
                row = ring.add[x]
                for i in ideal:
                    inside[row[i]] = True
                kept, members = addgroup.span(ring.add, ideal_gens + gens)
                join = frozenset(members)
                if join not in found:
                    found[join] = kept
                    nxt.append((join, kept))
        worklist = nxt
    return sorted(found, key=lambda s: (len(s), sorted(s)))


def _ideal_is_nilpotent(ring: FiniteRing, members: Collection[int]) -> int | None:
    """Least k with every k-fold product in the ideal `members` zero, or None.
    Each product set lies inside the one before, so a repeat never reaches {0}."""
    current = set(members)
    power = 1
    while current != {0}:
        following = {ring.mul[a][b] for a in current for b in members}
        if following == current:
            return None
        current = following
        power += 1
    return power


def jacobson_radical(ring: FiniteRing) -> Ideal:
    """Largest nilpotent two-sided ideal (the radical of a finite ring).

    It is the sum of all nilpotent ideals, which sidesteps quasi-regularity
    for rings without identity, so it holds x exactly when (x) is nilpotent.
    """
    _check_cap(ring, "radical computation")
    return _nilpotent_union(ring, _principal_ideals(ring))


def _nilpotent_union(ring: FiniteRing, principal: list[tuple[list[int], frozenset[int]]]) -> Ideal:
    """The union of the nilpotent principal ideals: the radical."""
    members: set[int] = set()
    for ideal in {ideal for _, ideal in principal}:
        if _ideal_is_nilpotent(ring, ideal) is not None:
            members |= ideal
    return Ideal(ring, tuple(sorted(members)))


def is_nilpotent_ring(ring: FiniteRing) -> int | None:
    """Least n with every n-fold product zero, or None if there is none."""
    return _ideal_is_nilpotent(ring, range(ring.order))


def is_subdirectly_irreducible(ring: FiniteRing) -> bool:
    """True iff the intersection of all nonzero ideals is nonzero.

    It suffices to intersect the nonzero principal ideals, since every
    nonzero ideal contains one.
    """
    _check_cap(ring, "subdirect irreducibility")
    return _meet_is_nonzero(ideal for _, ideal in _principal_ideals(ring))


def _meet_is_nonzero(candidates: Iterable[frozenset[int]]) -> bool:
    """True iff the nonzero sets among `candidates` meet in a nonzero set.

    `candidates` must include every nonzero principal ideal.
    """
    meet: frozenset[int] | None = None
    for members in candidates:
        if len(members) > 1:
            meet = members if meet is None else meet & members
            if len(meet) == 1:
                return False
    return meet is not None


def is_field(ring: FiniteRing) -> bool:
    """Has identity, commutative, and every nonzero element invertible."""
    e = has_identity(ring)
    return e is not None and _is_field(ring, is_commutative(ring), _units(ring, e))


def _is_field(ring: FiniteRing, commutative: bool, invertible: set[int]) -> bool:
    """The field test; without an identity `invertible` is empty and it fails."""
    return commutative and all(x in invertible for x in range(1, ring.order))


def is_local(ring: FiniteRing) -> bool:
    """True iff every element is a unit or lies in the radical J (identity
    required).  Then R/J is a finite division ring, hence a field.
    """
    if has_identity(ring) is None:
        raise NoIdentity("locality is only defined for rings with identity")
    return _is_local(ring, units(ring), jacobson_radical(ring))


def _is_local(ring: FiniteRing, invertible: set[int], radical: Ideal) -> bool:
    """The locality test; without an identity `invertible` is empty and it fails."""
    return bool(invertible) and len(invertible | set(radical.members)) == ring.order


def _find_split(
    ring: FiniteRing, lattice: list[frozenset[int]], comp: frozenset[int]
) -> tuple[frozenset[int], frozenset[int]] | None:
    """The first pair of ideals inside `comp` whose direct sum is `comp`."""
    inside = [s for s in lattice if len(s) > 1 and s < comp]
    for left in inside:
        for right in inside:
            if len(left) * len(right) != len(comp) or left & right != {0}:
                continue
            sums = {ring.add[a][b] for a in left for b in right}
            if len(sums) == len(comp) and sums == comp:
                return left, right
    return None


def decompose(ring: FiniteRing) -> list[Ideal]:
    """A finest splitting of the ring into direct summand ideals.

    Greedily splits components against complementary ideal pairs; a singleton
    result means the ring is indecomposable.  Components come back sorted by
    (size, certificate) so the output is deterministic.
    """
    _check_cap(ring, "decomposition")
    lattice = [frozenset(i.members) for i in ideals(ring)]
    components = [frozenset(range(ring.order))]
    done = False
    while not done:
        done = True
        for ci, comp in enumerate(components):
            split = _find_split(ring, lattice, comp)
            if split:
                components[ci: ci + 1] = [split[0], split[1]]
                done = False
                break
    def sort_key(s: frozenset[int]):
        members = tuple(sorted(s))
        # An ideal is closed, so the subring it generates is the ideal itself.
        sub = rings.subring_generated(ring, members).ring
        return (len(s), ring_canonical_certificate(sub), members)
    components.sort(key=sort_key)
    return [Ideal(ring, tuple(sorted(s))) for s in components]


@dataclass(frozen=True)
class RingHom:
    """Index map between two rings, used as an isomorphism witness."""

    source: FiniteRing
    target: FiniteRing
    images: tuple[int, ...]

    def preserves_structure(self) -> bool:
        n = self.source.order
        img = self.images
        for x in range(n):
            for y in range(n):
                if img[self.source.add[x][y]] != self.target.add[img[x]][img[y]]:
                    return False
                if img[self.source.mul[x][y]] != self.target.mul[img[x]][img[y]]:
                    return False
        return True

    @property
    def is_isomorphism(self) -> bool:
        return (
            self.source.order == self.target.order
            and len(set(self.images)) == self.source.order
            and self.preserves_structure()
        )


def _std_mul(ring: FiniteRing, perm: list[int]) -> tuple[int, ...]:
    n = ring.order
    inv = [0] * n
    for i, e in enumerate(perm):
        inv[e] = i
    mul = ring.mul
    return tuple(inv[mul[px][py]] for px in perm for py in perm)


def _fingerprint(ring: FiniteRing) -> tuple:
    """Isomorphism invariants that are cheap next to a canonical form."""
    return (
        addgroup.additive_type(ring.add),
        has_identity(ring) is not None,
        is_commutative(ring),
        len(zero_divisors(ring)),
        len(idempotents(ring)),
        len(nilpotent_elements(ring)),
    )


def ring_isomorphic(r: FiniteRing, s: FiniteRing) -> RingHom | None:
    """An isomorphism r -> s read off the two canonical forms, or None.

    Pairs whose cheap invariants differ are rejected before any
    canonicalization.  Otherwise the rings are isomorphic exactly when their
    certificates agree, and then each canonical basis maps standard element
    i to an element of its ring, so basis_r[i] -> basis_s[i] is a witness.
    Additive types beyond AUTOMORPHISM_BUDGET raise BudgetExceeded, as the
    certificate does.
    """
    _check_cap(r, "isomorphism search")
    _check_cap(s, "isomorphism search")
    if r.order != s.order:
        return None
    if _fingerprint(r) != _fingerprint(s):
        return None
    cert_r, basis_r = _canonical(r)
    cert_s, basis_s = _canonical(s)
    if cert_r != cert_s:
        return None
    images = [0] * r.order
    for i, x in enumerate(basis_r):
        images[x] = basis_s[i]
    hom = RingHom(r, s, tuple(images))
    assert hom.is_isomorphism
    return hom


def ring_canonical_certificate(ring: FiniteRing) -> bytes:
    """Byte string equal for two rings exactly when they are isomorphic.

    The additive group is put in the standard layout of its invariant type
    and the multiplication table is minimized lexicographically over every
    decomposition basis.  Those bases are perm0 . phi for one basis perm0 and
    every additive automorphism phi, so the table is standardized once and
    the minimum is taken over Aut(typ) in vectorized blocks.  Types whose
    automorphism group exceeds AUTOMORPHISM_BUDGET raise BudgetExceeded.
    """
    return _canonical(ring)[0]


def _canonical(ring: FiniteRing) -> tuple[bytes, list[int]]:
    """The certificate and a basis attaining it.

    The basis maps each standard index to the ring element carrying it;
    every minimizing basis gives the same bytes, so any one will do.
    """
    import numpy as np

    _check_cap(ring, "certificate computation")
    typ = addgroup.additive_type(ring.add)
    count = addgroup.automorphism_count(typ)
    if count > AUTOMORPHISM_BUDGET:
        raise BudgetExceeded(
            f"certificate of additive type {typ} needs a minimum over {count} "
            f"automorphisms, beyond the budget of {AUTOMORPHISM_BUDGET}"
        )
    n = ring.order
    perm0 = next(addgroup.iter_basis_perms(ring.add, typ))
    table = np.frombuffer(bytes(_std_mul(ring, perm0)), dtype=np.uint8).reshape(n, n)
    autos = addgroup.automorphism_perms(typ)
    width = n * n
    step = max(1, _CERTIFICATE_BLOCK // width)
    best: bytes | None = None
    best_row = 0
    for lo in range(0, len(autos), step):
        flat = _aut_action(typ, table, slice(lo, lo + step), slice(None)).tobytes()
        rows = [flat[i: i + width] for i in range(0, len(flat), width)]
        cand = min(rows)
        if best is None or cand < best:
            best = cand
            best_row = lo + rows.index(cand)
    assert best is not None
    header = f"FR1;n={ring.order};t={','.join(map(str, typ))};".encode()
    return header + best, [perm0[x] for x in autos[best_row].tolist()]


def _canonical_ring(cert: bytes) -> FiniteRing:
    """Rebuild the canonical representative ring encoded by a certificate."""
    import numpy as np

    header, _, body = cert.partition(b";t=")
    if not header.startswith(b"FR1;n="):
        raise FormatError("bad ring certificate header")
    n = int(header[len(b"FR1;n="):])
    tpart, _, table_bytes = body.partition(b";")
    typ = tuple(int(v) for v in tpart.split(b",")) if tpart else ()
    group = addgroup.std_group(typ)
    if group.order != n or len(table_bytes) != n * n:
        raise FormatError("ring certificate does not match its header")
    return rings.make_ring(group.add, np.frombuffer(table_bytes, np.uint8).reshape(n, n))


def _aut_action(typ: tuple[int, ...], table, autos: slice, points):
    """A standard product table read in the bases phi of Aut(typ), one row per
    automorphism in `autos` (a slice of `automorphism_perms(typ)`).

    Under basis phi the product of standard elements x, y reads
    phi^-1[table[phi[x], phi[y]]]; a row holds it for x, y in `points` (an
    index into the elements), x major.  That is the table relabelled by
    phi^-1, so the rows over all of Aut are its orbit.
    """
    import numpy as np

    phi = addgroup.automorphism_perms(typ)[autos][:, points]
    inverses = addgroup.automorphism_inverses(typ)[autos]
    cells = table[phi[:, :, None], phi[:, None, :]].reshape(len(phi), -1)
    return inverses[np.arange(len(phi))[:, None], cells]


@dataclass(frozen=True)
class StructureReport:
    """Fixed-shape summary of one ring, serializable as key: value lines."""

    label: str | None
    order: int
    characteristic: int
    has_identity: int | None
    is_commutative: bool
    is_field: bool
    is_local: bool
    is_nilpotent: int | None
    is_subdirectly_irreducible: bool
    is_decomposable: bool
    zero_divisor_count: int
    jacobson_radical: Ideal

    def to_text(self) -> str:
        def flag(v: bool) -> str:
            return "true" if v else "false"

        def opt(v: int | None) -> str:
            return "none" if v is None else str(v)

        lines = [
            f"label: {self.label if self.label is not None else '-'}",
            f"order: {self.order}",
            f"characteristic: {self.characteristic}",
            f"has_identity: {opt(self.has_identity)}",
            f"is_commutative: {flag(self.is_commutative)}",
            f"is_field: {flag(self.is_field)}",
            f"is_local: {flag(self.is_local)}",
            f"is_nilpotent: {opt(self.is_nilpotent)}",
            f"is_subdirectly_irreducible: {flag(self.is_subdirectly_irreducible)}",
            f"is_decomposable: {flag(self.is_decomposable)}",
            f"zero_divisor_count: {self.zero_divisor_count}",
            f"jacobson_radical: {' '.join(str(m) for m in self.jacobson_radical.members)}",
        ]
        return "\n".join(lines) + "\n"


def structure_report(ring: FiniteRing) -> StructureReport:
    """The full invariant summary for one ring, each fact computed once; the
    radical, subdirect irreducibility and the lattice share the principal ideals."""
    identity = has_identity(ring)
    # Over the cap, name the step that needs the ideals first: the radical
    # when there is an identity, subdirect irreducibility when there is none.
    _check_cap(ring, "radical computation" if identity is not None else "subdirect irreducibility")
    commutative = is_commutative(ring)
    invertible = set() if identity is None else _units(ring, identity)
    principal = _principal_ideals(ring)
    radical = _nilpotent_union(ring, principal)
    split = _find_split(ring, _lattice(ring, principal), frozenset(range(ring.order)))
    return StructureReport(
        label=ring.label,
        order=ring.order,
        characteristic=rings.characteristic(ring),
        has_identity=identity,
        is_commutative=commutative,
        is_field=_is_field(ring, commutative, invertible),
        is_local=_is_local(ring, invertible, radical),
        is_nilpotent=is_nilpotent_ring(ring),
        is_subdirectly_irreducible=_meet_is_nonzero(ideal for _, ideal in principal),
        is_decomposable=split is not None,
        zero_divisor_count=len(zero_divisors(ring)),
        jacobson_radical=radical,
    )
