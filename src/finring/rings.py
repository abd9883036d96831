"""Finite associative rings as dense Cayley tables.

Elements are the indices 0..n-1 and index 0 is always the additive identity;
the whole structure lives in two n x n tables.  That keeps every operation a
pair of lookups, makes rings hashable and freely shareable, and puts rings
with and without unity, commutative or not, on the same footing.
"""

from __future__ import annotations

import contextlib
import itertools
import math
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

from . import addgroup
from .errors import AxiomViolation, FormatError, NotAnIdeal, NotPrime, OrderCapExceeded

ORDER_CAP = 256

Table = tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class FiniteRing:
    order: int
    add: Table
    mul: Table
    label: str | None = None
    element_names: tuple[str, ...] | None = None

    def element_name(self, x: int) -> str:
        if self.element_names is not None:
            return self.element_names[x]
        return str(x)

    def __repr__(self) -> str:
        return f"FiniteRing(order={self.order}, label={self.label!r})"


def _as_table(raw, n: int, which: str):
    """The rows, given as sequences or as an integer array, as a tuple table
    and as an n x n array, or AxiomViolation for the first row of the wrong
    length or entry outside [0, n)."""
    import numpy as np

    if len(raw) != n:
        raise AxiomViolation("table-shape", (len(raw), n), f"{which} table must be {n}x{n}")
    dtype = np.min_scalar_type(n - 1)
    array = None
    if isinstance(raw, np.ndarray):
        # A bool or float array has no integer entries; the loop below names
        # the first, as it would in a list.
        if raw.dtype.kind in "iu":
            array = raw
        raw = raw.tolist()
    try:
        rows = tuple(map(tuple, raw))
    except TypeError:
        # A row that is not iterable: the loop below names a bad entry in the
        # rows before it, and then raises the same TypeError.
        rows = raw
    # Only int entries go to numpy, since it would take a bool or a float;
    # a ragged row or an entry out of range sends the rows to the loop
    # below, which names the first failure.
    if array is None and rows is not raw and set(map(type, itertools.chain.from_iterable(rows))) <= {int}:
        with contextlib.suppress(ValueError, OverflowError):
            array = np.array(rows, dtype=dtype)
    # An array built from the rows is unsigned; only a signed one can hold a
    # negative entry.
    if (array is not None and array.shape == (n, n) and array.max() < n
            and (array.dtype.kind == "u" or array.min() >= 0)):
        return rows, array.astype(dtype, copy=False)
    for i, row in enumerate(rows):
        row = tuple(row)
        if len(row) != n:
            raise AxiomViolation("table-shape", (i, len(row)), f"{which} row {i} has wrong length")
        for j, v in enumerate(row):
            if not isinstance(v, int) or isinstance(v, bool) or not 0 <= v < n:
                raise AxiomViolation("entry-range", (i, j), f"{which}[{i}][{j}] = {v!r} not in [0, {n})")
    return rows, np.array(rows, dtype=dtype)


def _check_axioms(add: Table, a, m) -> None:
    """AxiomViolation for the first ring axiom that the tables fail; `a` and
    `m` are the tables as arrays, and `add` is also given as rows.

    The cubic laws are checked only against S = addgroup.generators(add).
    `generators` follows table lookups from 0, so every element is one it
    kept or a sum of those, bracketed as the lookups ran: S generates (G, +)
    as a magma before + is known to be associative.  Each law below that
    holds for every g in S holds for all of G, since the g it holds for are
    closed under +:
    - (x+g)+z = x+(g+z) for all x, z makes + associative (Light's test).
      With 0 an identity and + commutative, x + y = 0 then has at most one
      solution y for each x, so n zeros in the table put one in every row,
      and (G, +) is an abelian group.
    - x(y+g) = xy+xg and (y+g)x = yx+gx for all x, y make the product
      bi-additive.
    - (gg')x = g(g'x) for all x, with g, g' in S, then gives associativity,
      since (uv)x - u(vx) is additive in u and in v.
    A group of order n has at most log2(n) greedy generators, so more mean
    the table is no group.  Tables that fail here go to `_scan_axioms`,
    which names the first violation.
    """
    import numpy as np

    n = len(add)
    s = np.array(addgroup.generators(add), dtype=np.intp)
    if s.size < n.bit_length() and np.count_nonzero(a == 0) == n:
        ag, ms = a.take(s, axis=1), m.take(s, axis=0)
        mn, flat = m.astype(np.intp) * n, a.ravel()
        # Side by side: 0+x = x, x+y = y+x, (x+g)+z = x+(g+z),
        # x(y+g) = xy+xg, (y+g)x = yx+gx and (gg')x = g(g'x).
        left = (a[0], a, a.take(ag, axis=0), m.take(ag, axis=1), m.take(ag, axis=0),
                m.take(ms.take(s, axis=1), axis=0))
        right = (np.arange(n, dtype=a.dtype), a.T, a.take(a.take(s, axis=0), axis=1),
                 flat.take(mn[:, :, None] + m.take(s, axis=1)[:, None, :]),
                 flat.take(mn[:, None, :] + ms), ms.take(ms, axis=1))
        if np.array_equal(np.concatenate(left, axis=None), np.concatenate(right, axis=None)):
            return
    _scan_axioms(a, m)


# Below this order the tables fit one chunk, and a violation is reported at
# the least (x, y, z) and then in law order; from it up, at the first failing
# law in a chunk and then at its least triple.
_LEAST_TRIPLE_BELOW = 32
_CUBIC_LAWS = ("add-associative", "mul-associative", "left-distributive", "right-distributive")


def _scan_axioms(a, m) -> None:
    """AxiomViolation for the first failure on all elements: the zero, then
    commutativity and inverses by row, then the cubic laws on all triples."""
    import numpy as np

    n = len(a)
    bad = np.flatnonzero(a[0] != np.arange(n))
    if bad.size:
        raise AxiomViolation("zero-identity", (int(bad[0]),))
    noncommuting = a != a.T
    bad = np.flatnonzero(noncommuting.any(axis=1) | ~(a == 0).any(axis=1))
    if bad.size:
        x = int(bad[0])
        if noncommuting[x].any():
            raise AxiomViolation("add-commutative", (x, int(noncommuting[x].argmax())))
        raise AxiomViolation("add-inverse", (x,))
    # The cubic laws, chunked over x to bound transient memory at the 256
    # cap; each mask is freed before the next is built.
    step = max(1, (1 << 22) // (n * n))
    for x0 in range(0, n, step):
        ax, mx = a[x0:x0 + step], m[x0:x0 + step]
        laws = (
            lambda: a.take(ax, axis=0) != ax.take(a, axis=1),
            lambda: m.take(mx, axis=0) != mx.take(m, axis=1),
            lambda: mx.take(a, axis=1) != a[mx[:, :, None], mx[:, None, :]],
            lambda: m.take(ax, axis=0) != a[mx[:, None, :], m],
        )
        for law, mismatch in enumerate(laws):
            mask = mismatch()
            if mask.any():
                if n < _LEAST_TRIPLE_BELOW:
                    mask = np.stack([f() for f in laws], axis=-1)
                    x, y, z, law = np.unravel_index(mask.argmax(), mask.shape)
                else:
                    x, y, z = np.unravel_index(mask.argmax(), mask.shape)
                raise AxiomViolation(_CUBIC_LAWS[law], (x0 + int(x), int(y), int(z)))
            del mask


# Orders with more bits than this are named without computing them.
_MAX_ORDER_BITS = 1 << 16


def _order_name(base: int, exp: int, n: int | None) -> str:
    """The order n = base^exp in decimal, else as base^exp, else by its bit
    length; n is None if it has too many bits to compute.  str() refuses an
    int of more than sys.get_int_max_str_digits() digits."""
    if n is not None:
        with contextlib.suppress(ValueError):
            return str(n)
    with contextlib.suppress(ValueError):
        return f"{base}^{exp}"
    if n is not None:
        return f"of {n.bit_length()} bits"
    return f"of over {exp * (base.bit_length() - 1)} bits"


def _check_order(base: int, exp: int = 1) -> int:
    """The order base^exp, or OrderCapExceeded if it is over the cap.

    Families call this before building a table.
    """
    n = None if base > 1 and exp * base.bit_length() > _MAX_ORDER_BITS else base ** exp
    if n is None or n > ORDER_CAP:
        raise OrderCapExceeded(f"order {_order_name(base, exp, n)} exceeds the cap of {ORDER_CAP}")
    return n


def make_ring(
    add: Sequence[Sequence[int]],
    mul: Sequence[Sequence[int]],
    label: str | None = None,
    element_names: Sequence[str] | None = None,
) -> FiniteRing:
    """Validate a pair of Cayley tables, each given as rows of ints or as an
    integer array, and wrap them as a ring.

    Every axiom is checked eagerly; the first failure raises AxiomViolation
    naming the axiom and a witness tuple.
    """
    n = len(add)
    if n == 0:
        raise AxiomViolation("table-shape", (0,), "a ring needs at least the zero element")
    _check_order(n)
    add_t, a = _as_table(add, n, "add")
    mul_t, m = _as_table(mul, n, "mul")
    _check_axioms(add_t, a, m)
    names = None
    if element_names is not None:
        names = tuple(element_names)
        if len(names) != n:
            raise ValueError(f"expected {n} element names, got {len(names)}")
    return FiniteRing(n, add_t, mul_t, label, names)


# Miller-Rabin on the primes up to 37 as bases decides primality exactly below
# psi_12 (Sorenson & Webster, Math. Comp. 86, 2017).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_EXACT_BELOW = 3317044064679887385961981


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    for b in _MR_BASES:
        if p % b == 0:
            return p == b
    d, s = p - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for b in _MR_BASES:
        x = pow(b, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


def _require_prime(p: int, exp: int = 1) -> None:
    """NotPrime unless p is prime, for a family of order p^exp.

    From psi_12 up the test is no longer known to be exact and one base costs
    seconds on the longest ints, so there the order is checked against the
    cap first: it is at least p.
    """
    if p >= _MR_EXACT_BELOW:
        _check_order(p, max(exp, 1))
    if not _is_prime(p):
        raise NotPrime(f"{p} is not prime")


def from_products(
    typ: tuple[int, ...],
    products: Sequence[int],
    label: str | None = None,
    element_names: Sequence[str] | None = None,
) -> FiniteRing:
    """Ring on the standard group of `typ` whose product is the bilinear
    extension of the generator products.

    products[i * k + j] is gen_i * gen_j, for k = len(typ), so x * y is the
    sum over i, j of (x_i * y_j mod gcd(typ[i], typ[j])) * products[i * k + j].
    """
    import numpy as np

    _check_order(math.prod(typ))
    group = addgroup.std_group(typ)
    add, smul, digits = addgroup.std_arrays(typ)
    k = len(typ)
    mul = np.zeros((group.order, group.order), dtype=np.int32)
    for i in range(k):
        for j in range(k):
            product = products[i * k + j]
            if product:
                coeff = np.multiply.outer(digits[:, i], digits[:, j]) % math.gcd(typ[i], typ[j])
                mul = add[mul, smul[coeff, product]]
    return make_ring(group.add, mul, label, element_names)


def zn(n: int) -> FiniteRing:
    """Residue-class ring modulo n; n = 1 gives the zero ring."""
    if n < 1:
        raise ValueError("order must be at least 1")
    _check_order(n)
    # The trivial group has no generator.
    typ, products = ((n,), (1,)) if n > 1 else ((), ())
    return from_products(typ, products, f"Z{n}", tuple(str(i) for i in range(n)))


def _poly_rem(p: int, a: list[int], m: list[int]) -> list[int]:
    a = list(a)
    dm = len(m) - 1
    inv_lead = pow(m[-1], -1, p)
    while len(a) - 1 >= dm and any(a):
        if a[-1] == 0:
            a.pop()
            continue
        factor = a[-1] * inv_lead % p
        shift = len(a) - 1 - dm
        for i, c in enumerate(m):
            a[shift + i] = (a[shift + i] - factor * c) % p
        a.pop()
    return a


def _is_irreducible(p: int, poly: list[int]) -> bool:
    deg = len(poly) - 1
    for d in range(1, deg // 2 + 1):
        for idx in range(p ** d):
            div = []
            t = idx
            for _ in range(d):
                div.append(t % p)
                t //= p
            div.append(1)
            rem = _poly_rem(p, poly, div)
            if not any(rem):
                return False
    return True


def _least_irreducible(p: int, k: int) -> list[int]:
    # Candidates are monic of degree k; ties broken by comparing coefficient
    # tuples low-degree-first, so the constant term is scanned slowest.
    for idx in range(p ** k):
        coeffs = [idx // p ** (k - 1 - i) % p for i in range(k)]
        poly = coeffs + [1]
        if _is_irreducible(p, poly):
            return poly
    raise RuntimeError(f"no irreducible polynomial of degree {k} over GF({p})")


def _poly_name(digits: Sequence[int], var: str = "x") -> str:
    parts = []
    for d in range(len(digits) - 1, -1, -1):
        c = digits[d]
        if not c:
            continue
        if d == 0:
            parts.append(str(c))
        else:
            power = var if d == 1 else f"{var}^{d}"
            parts.append(power if c == 1 else f"{c}{power}")
    return "+".join(parts) if parts else "0"


def gf(p: int, k: int = 1) -> FiniteRing:
    """Galois field of order p^k, built on the least monic irreducible polynomial.

    Element i encodes the polynomial whose coefficient of x^j is the j-th
    base-p digit of i, so 0..p-1 is the prime subfield.
    """
    _require_prime(p, k)
    if k < 1:
        raise ValueError("extension degree must be at least 1")
    q = _check_order(p, k)
    modulus = _least_irreducible(p, k)
    # powers[e] is the element x^e; a remainder lists coefficients from x^0 up.
    powers = [sum(c * p ** d for d, c in enumerate(_poly_rem(p, [0] * e + [1], modulus)))
              for e in range(2 * k - 1)]
    # Generator t is x^(k-1-t), since standard digits run from the most
    # significant, so gen_s * gen_t = x^(2k-2-s-t).
    products = [powers[2 * k - 2 - s - t] for s in range(k) for t in range(k)]
    typ = (p,) * k
    names = tuple(_poly_name(d[::-1]) for d in addgroup.std_group(typ).digits)
    return from_products(typ, products, f"GF({q})", names)


def n0(p: int, n: int = 1) -> FiniteRing:
    """Null ring on a cyclic group of order p^n: every product is zero."""
    _require_prime(p, n)
    if n < 1:
        raise ValueError("exponent must be at least 1")
    q = _check_order(p, n)
    names = ("0",) + tuple("a" if i == 1 else f"{i}a" for i in range(1, q))
    return from_products((q,), (0,), f"N0_{q}", names)


def np2(p: int) -> FiniteRing:
    """Cyclic ring of order p^2 generated by a with a*a = p*a."""
    _require_prime(p, 2)
    q = _check_order(p, 2)
    names = ("0",) + tuple("a" if i == 1 else f"{i}a" for i in range(1, q))
    return from_products((q,), (p,), f"N{q}", names)


def _pair_ring(p: int, products: tuple[int, int, int, int], label: str,
               name=lambda a, b: f"({a},{b})") -> FiniteRing:
    """Ring on pairs (a, b) over GF(p), element a*p + b, added componentwise.

    `products` lists e*e, e*f, f*e and f*f for e = (1, 0) = p and
    f = (0, 1) = 1, `label` is formatted with p once p is known to be a prime
    of printable order, and `name` maps a pair to its element name.
    """
    _require_prime(p, 2)
    names = tuple(name(i // p, i % p) for i in range(_check_order(p, 2)))
    return from_products((p, p), products, label.format(p=p), names)


def npp(p: int) -> FiniteRing:
    """Strictly upper-triangular 3x3 matrices over GF(p) with equal superdiagonal.

    An element is a pair (a, b): superdiagonal a (twice) and corner b, so
    (a, b)(c, d) = (0, a*c); characteristic p, cube zero.
    """
    return _pair_ring(p, (1, 0, 0, 0), "N{p},{p}")


def ap(p: int) -> FiniteRing:
    """Row ring: 2x2 matrices with both nonzero entries in the first row.

    (x, y)(u, v) = (x*u, x*v); the element (1, 0) is a left identity.
    """
    return _pair_ring(p, (p, 1, 0, 0), "A{p}")


def ap0(p: int) -> FiniteRing:
    """Column ring: the transpose-side twin of ap(p), with a right identity.

    (x, y)(u, v) = (x*u, y*u); the element (1, 0) is a right identity.
    """
    return _pair_ring(p, (p, 0, 1, 0), "A{p}^0")


def zpx_mod_x2(p: int) -> FiniteRing:
    """Truncated polynomial ring Z_p[x]/(x^2); local with radical (x).

    Element c1*p + c0 is c0 + c1*x, so a pair reads (c1, c0): e = x, f = 1.
    """
    return _pair_ring(p, (0, p, p, 1), "Z{p}[x]/(x^2)", lambda c1, c0: _poly_name((c0, c1)))


def direct_sum(r: FiniteRing, s: FiniteRing) -> FiniteRing:
    """Componentwise ring structure on the product of the two index sets."""
    import numpy as np

    n = r.order * s.order
    if n > ORDER_CAP:
        raise OrderCapExceeded(f"combined order {n} exceeds the cap of {ORDER_CAP}")
    so = s.order

    # Element a * |s| + b is the pair (a, b); axes run a1, b1, a2, b2.
    def table(rt: Table, st: Table):
        cells = np.array(rt)[:, None, :, None] * so + np.array(st)[None, :, None, :]
        return cells.reshape(n, n)

    label = f"{r.label}+{s.label}" if r.label and s.label else None
    names = tuple(f"({r.element_name(a)},{s.element_name(b)})"
                  for a in range(r.order) for b in range(so))
    return make_ring(table(r.add, s.add), table(r.mul, s.mul), label=label, element_names=names)


def matrix_ring(r: FiniteRing, k: int) -> FiniteRing:
    """Ring of k x k matrices over r, with entries packed base |r| row-major."""
    import numpy as np

    if k < 1:
        raise ValueError("matrix dimension must be at least 1")
    n = _check_order(r.order, k * k)
    label = f"M{k}({r.label})" if r.label else None
    if n == 1:
        # Over the zero ring every matrix is zero, whatever k is.
        return make_ring(((0,),), ((0,),), label=label)
    # Entry (i, j) of matrix x is base-|r| digit i * k + j of x, least
    # significant first.
    weights = r.order ** np.arange(k * k)
    entries = np.arange(n)[:, None] // weights % r.order
    add, mul = np.array(r.add), np.array(r.mul)
    left, right = entries.reshape(n, 1, k, k), entries.reshape(1, n, k, k)
    prod = np.zeros((n, n, k, k), dtype=add.dtype)
    for l in range(k):
        prod = add[prod, mul[left[..., l, None], right[..., None, l, :]]]
    sums = add[entries[:, None, :], entries[None, :, :]]
    return make_ring(sums @ weights, prod.reshape(n, n, k * k) @ weights, label=label)


def ideal_members(ring: FiniteRing, ideal: object) -> tuple[int, ...]:
    """Normalize and validate a two-sided ideal given as a member collection.

    Accepts anything with `.members` (and optionally `.ring`) or a plain
    iterable of element indices; raises NotAnIdeal when the set is not a
    two-sided ideal of `ring`.
    """
    owner = getattr(ideal, "ring", None)
    if owner is not None and owner is not ring and owner != ring:
        raise NotAnIdeal("ideal belongs to a different ring")
    raw = getattr(ideal, "members", ideal)
    members = sorted(set(raw))
    if any(not isinstance(x, int) or not 0 <= x < ring.order for x in members):
        raise NotAnIdeal(f"members out of range for order {ring.order}")
    inside = set(members)
    if 0 not in inside:
        raise NotAnIdeal("an ideal must contain 0")
    for a in members:
        for b in members:
            if ring.add[a][b] not in inside:
                raise NotAnIdeal(f"not closed under addition: {a} + {b}")
        for r in range(ring.order):
            if ring.mul[r][a] not in inside:
                raise NotAnIdeal(f"not closed under left multiplication: {r} * {a}")
            if ring.mul[a][r] not in inside:
                raise NotAnIdeal(f"not closed under right multiplication: {a} * {r}")
    return tuple(members)


def quotient(ring: FiniteRing, ideal: object) -> FiniteRing:
    """Coset ring modulo a two-sided ideal; coset reps are least indices."""
    members = ideal_members(ring, ideal)
    n = ring.order
    coset_rep = [-1] * n
    for x in range(n):
        if coset_rep[x] >= 0:
            continue
        coset = sorted(ring.add[x][m] for m in members)
        rep = coset[0]
        for y in coset:
            coset_rep[y] = rep
    reps = sorted(set(coset_rep))
    index_of = {rep: i for i, rep in enumerate(reps)}
    names = tuple(f"[{ring.element_name(rep)}]" for rep in reps)
    return _induced(ring, reps, [index_of[rep] for rep in coset_rep], names)


def _induced(ring: FiniteRing, elements: Sequence[int], image: Sequence[int],
             names: Sequence[str]) -> FiniteRing:
    """The ring whose tables are those of `ring` on `elements`, with each
    result x renamed image[x]."""
    import numpy as np

    cells = np.ix_(elements, elements)
    add, mul = (np.asarray(image)[np.array(t)[cells]] for t in (ring.add, ring.mul))
    return make_ring(add, mul, element_names=names)


class GeneratedSubring(NamedTuple):
    ring: FiniteRing
    embedding: tuple[int, ...]  # new index -> index in the ambient ring


def subring_generated(ring: FiniteRing, gens: Iterable[int]) -> GeneratedSubring:
    """Closure of `gens` under +, -, and *, reindexed from 0 with an embedding.

    The product is bilinear, so an additive span is closed under * once it
    holds the product of every two of its kept seeds.
    """
    kept, members = addgroup.span(ring.add, gens)
    while True:
        inside = set(members)
        products = [ring.mul[a][b] for a in kept for b in kept if ring.mul[a][b] not in inside]
        if not products:
            break
        kept, members = addgroup.span(ring.add, kept + products)
    emb = tuple(sorted(members))
    image = [0] * ring.order
    for i, x in enumerate(emb):
        image[x] = i
    sub = _induced(ring, emb, image, tuple(ring.element_name(x) for x in emb))
    return GeneratedSubring(sub, emb)


def characteristic(ring: FiniteRing) -> int:
    """Least m >= 1 with m*x = 0 for every x: the additive exponent."""
    return math.lcm(*addgroup.additive_orders(ring.add))


# --- ringtab text format -----------------------------------------------------
#
#   ringtab 1
#   order <n>
#   label <text>        (optional)
#   add
#   <n rows of n integers>
#   mul
#   <n rows of n integers>
#
# Lines whose first non-blank character is '#' are comments.


def format_ringtab(ring: FiniteRing) -> str:
    lines = ["ringtab 1", f"order {ring.order}"]
    if ring.label is not None:
        lines.append(f"label {ring.label}")
    lines.append("add")
    lines.extend(" ".join(str(v) for v in row) for row in ring.add)
    lines.append("mul")
    lines.extend(" ".join(str(v) for v in row) for row in ring.mul)
    return "\n".join(lines) + "\n"


def _ringtab_row(line: str, header: str) -> list[int]:
    """One row of a ringtab table, read token by token through int()."""
    try:
        return list(map(int, line.split()))
    except ValueError:
        raise FormatError(f"non-integer entry in {header} table") from None


def parse_ringtab(text: str) -> FiniteRing:
    import numpy as np

    lines = [
        line.strip()
        for line in text.splitlines()
        if line.strip() and not line.lstrip().startswith("#")
    ]
    pos = 0

    def take() -> str:
        nonlocal pos
        if pos >= len(lines):
            raise FormatError("unexpected end of ringtab input")
        line = lines[pos]
        pos += 1
        return line

    if take() != "ringtab 1":
        raise FormatError("missing 'ringtab 1' magic line")
    order_line = take()
    if not order_line.startswith("order "):
        raise FormatError("expected 'order <n>' line")
    try:
        n = int(order_line.split(None, 1)[1])
    except (IndexError, ValueError):
        raise FormatError("bad order line") from None
    label = None
    section = take()
    if section.startswith("label "):
        label = section.split(None, 1)[1]
        section = take()

    def read_table(header: str, got: str):
        nonlocal pos
        if got != header:
            raise FormatError(f"expected '{header}' section, found {got!r}")
        # The written form, n rows of n ASCII digit runs split by single
        # spaces, is read as one block; int64 saturates an over-long token,
        # so it fails the range check.  A block in range is cast at once to
        # the type `make_ring` keeps, so no int64 copy outlives the read.
        # Any other text, and any entry out of range, goes token by token
        # through int(), which names the fault.
        block = lines[pos:pos + n]
        joined = " ".join(block)
        if (0 < n == len(block) and joined.isascii() and "  " not in joined
                and not joined.encode().translate(None, b"0123456789 ")
                and all(row.count(" ") == n - 1 for row in block)):
            table = np.fromstring(joined, dtype=np.int64, sep=" ").reshape(n, n)
            if table.max() < n:
                pos += n
                return table.astype(np.min_scalar_type(n - 1))
        return [_ringtab_row(take(), header) for _ in range(n)]

    add = read_table("add", section)
    mul = read_table("mul", take())
    if pos != len(lines):
        raise FormatError(f"trailing content after mul table: {lines[pos]!r}")
    return make_ring(add, mul, label=label)


def write_ringtab(ring: FiniteRing, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_ringtab(ring))


def read_ringtab(path) -> FiniteRing:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_ringtab(fh.read())
