"""Integer noncommutative polynomials and exhaustive identity checking.

A polynomial is a finite map from nonempty words of variable indices to
nonzero integer coefficients; there is no constant term, matching a free
ring without unity.  The text grammar uses x1, x2, ... (with x, y, z as
aliases for the first three), juxtaposition for the noncommutative product,
^ for powers, and [f, g] for commutators.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Mapping

from .addgroup import generators, multiples
from .errors import BudgetExceeded, ParseError, UnboundVariable, ZeroPolynomial
from .rings import FiniteRing

Word = tuple[int, ...]

DEFAULT_EVAL_BUDGET = 10_000_000
# A product is refused before it is built when its expansion would have more
# terms, or a longer word, than this, and a coefficient once it has more bits;
# parsing or substituting user text then raises BudgetExceeded instead of
# exhausting memory.
MAX_EXPANSION = 1 << 16
# Parentheses and commutator brackets nest at most this deep; the parser
# recurses once per level.
MAX_NESTING = 100


class NcPoly:
    """Element of the free associative ring over the integers, without unity."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[Word, int] | None = None):
        clean: dict[Word, int] = {}
        for word, coeff in (terms or {}).items():
            if coeff == 0:
                continue
            word = tuple(word)
            if not word:
                raise ValueError("constant terms are not representable")
            if any(v < 1 for v in word):
                raise ValueError("variable indices start at 1")
            _check_bits(coeff.bit_length())
            clean[word] = coeff
        self._terms = clean

    @property
    def terms(self) -> dict[Word, int]:
        return dict(self._terms)

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def variables(self) -> tuple[int, ...]:
        seen: set[int] = set()
        for word in self._terms:
            seen.update(word)
        return tuple(sorted(seen))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, NcPoly):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

    def __add__(self, other: "NcPoly") -> "NcPoly":
        out = dict(self._terms)
        for word, coeff in other._terms.items():
            out[word] = out.get(word, 0) + coeff
        return NcPoly(out)

    def __sub__(self, other: "NcPoly") -> "NcPoly":
        return self + (-other)

    def __neg__(self) -> "NcPoly":
        return NcPoly({w: -c for w, c in self._terms.items()})

    def __mul__(self, other: "NcPoly | int") -> "NcPoly":
        if isinstance(other, int):
            return NcPoly({w: c * other for w, c in self._terms.items()})
        _check_expansion(self, other)
        out: dict[Word, int] = {}
        for w1, c1 in self._terms.items():
            for w2, c2 in other._terms.items():
                word = w1 + w2
                out[word] = out.get(word, 0) + c1 * c2
        return NcPoly(out)

    def __rmul__(self, other: int) -> "NcPoly":
        return self.__mul__(other)

    def __pow__(self, e: int) -> "NcPoly":
        if e < 1:
            raise ValueError("exponents must be positive")
        # Square and multiply: powers of one polynomial commute.
        out: NcPoly | None = None
        base = self
        while True:
            if e & 1:
                out = base if out is None else out * base
            e >>= 1
            if not e:
                assert out is not None
                return out
            base = base * base

    def __repr__(self) -> str:
        return f"NcPoly({render(self)!r})"


ZERO = NcPoly()


def _check_expansion(p: NcPoly, q: NcPoly) -> None:
    terms = len(p._terms) * len(q._terms)
    if terms > MAX_EXPANSION:
        raise BudgetExceeded(
            f"a product of {len(p._terms)} and {len(q._terms)} terms expands to "
            f"{terms} terms, over the limit of {MAX_EXPANSION}"
        )
    if terms:
        length = max(map(len, p._terms)) + max(map(len, q._terms))
        if length > MAX_EXPANSION:
            raise BudgetExceeded(
                f"a product has words of length {length}, over the limit of {MAX_EXPANSION}"
            )


def _check_bits(bits: int) -> None:
    if bits > MAX_EXPANSION:
        raise BudgetExceeded(
            f"a coefficient of {bits} bits is over the limit of {MAX_EXPANSION}"
        )


def variable(i: int) -> NcPoly:
    return NcPoly({(i,): 1})


# --- text grammar -------------------------------------------------------------


def _tokenize(text: str) -> list[tuple[str, object, int]]:
    tokens: list[tuple[str, object, int]] = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdecimal():
            j = i
            while j < len(text) and text[j].isdecimal():
                j += 1
            tokens.append(("num", int(text[i:j]), i))
            i = j
            continue
        if ch in "yz":
            tokens.append(("var", 2 if ch == "y" else 3, i))
            i += 1
            continue
        if ch == "x":
            j = i + 1
            while j < len(text) and text[j].isdecimal():
                j += 1
            if j == i + 1:
                tokens.append(("var", 1, i))
            else:
                idx = int(text[i + 1 : j])
                if idx < 1:
                    raise ParseError("variable indices start at 1", i)
                tokens.append(("var", idx, i))
            i = j
            continue
        if ch in "+-*^()[],":
            tokens.append((ch, ch, i))
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", i)
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0
        self.depth = 0

    def peek(self) -> str | None:
        if self.pos < len(self.tokens):
            return self.tokens[self.pos][0]
        return None

    def next(self) -> tuple[str, object, int]:
        if self.pos >= len(self.tokens):
            raise ParseError("unexpected end of input", len(self.text))
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str) -> tuple[str, object, int]:
        tok = self.next()
        if tok[0] != kind:
            raise ParseError(f"expected {kind!r}, found {tok[0]!r}", tok[2])
        return tok

    def parse_expr(self) -> NcPoly:
        negate = False
        if self.peek() == "-":
            self.next()
            negate = True
        total = self.parse_term()
        if negate:
            total = -total
        while self.peek() in ("+", "-"):
            op = self.next()[0]
            term = self.parse_term()
            total = total + term if op == "+" else total - term
        return total

    def parse_term(self) -> NcPoly:
        start = self.tokens[self.pos][2] if self.pos < len(self.tokens) else len(self.text)
        coeff = 1
        # The factors multiply as a balanced tree, so a word of length L costs
        # O(L log L) rather than O(L^2): blocks holds (factor count, product)
        # with counts falling, and two blocks of one count merge.
        blocks: list[tuple[int, NcPoly]] = []
        # A "*" stands only between two factors, so the term needs a factor
        # at its start and after each "*".
        need_factor = True
        while True:
            kind = self.peek()
            if kind == "*" and not need_factor:
                self.next()
                need_factor = True
                continue
            if kind not in ("num", "var", "(", "["):
                break
            need_factor = False
            factor_scalar, factor_poly = self.parse_factor()
            coeff *= factor_scalar
            _check_bits(coeff.bit_length())
            if factor_poly is not None:
                count = 1
                while blocks and blocks[-1][0] == count:
                    factor_poly = blocks.pop()[1] * factor_poly
                    count *= 2
                blocks.append((count, factor_poly))
        if need_factor:
            tok = self.next()
            raise ParseError(f"expected a term, found {tok[0]!r}", tok[2])
        if not blocks:
            if coeff != 0:
                raise ParseError("constant terms are not allowed", start)
            return ZERO
        poly = blocks.pop()[1]
        while blocks:
            poly = blocks.pop()[1] * poly
        return coeff * poly

    def parse_factor(self) -> tuple[int, NcPoly | None]:
        scalar, poly = self.parse_atom()
        if self.peek() == "^":
            _, _, pos = self.next()
            _, exponent, epos = self.expect("num")
            if exponent < 1:
                raise ParseError("exponents must be positive", epos)
            if poly is not None:
                poly = poly ** exponent
            else:
                # A lower bound on the bits of the power; parse_term checks
                # the power itself.
                _check_bits((scalar.bit_length() - 1) * exponent + 1)
                scalar = scalar ** exponent
        return scalar, poly

    def parse_atom(self) -> tuple[int, NcPoly | None]:
        # parse_term calls in only at a number, a variable, "(" or "[".
        kind, value, pos = self.next()
        if kind == "num":
            return value, None
        if kind == "var":
            return 1, variable(value)
        if self.depth == MAX_NESTING:
            raise ParseError(f"brackets nest deeper than {MAX_NESTING}", pos)
        self.depth += 1
        if kind == "(":
            poly = self.parse_expr()
            self.expect(")")
        else:
            left = self.parse_expr()
            self.expect(",")
            right = self.parse_expr()
            self.expect("]")
            poly = left * right - right * left
        self.depth -= 1
        return 1, poly


def parse(text: str) -> NcPoly:
    """Parse polynomial text; raises ParseError with the failing position."""
    parser = _Parser(text)
    if not parser.tokens:
        raise ParseError("empty input", 0)
    result = parser.parse_expr()
    if parser.pos != len(parser.tokens):
        tok = parser.tokens[parser.pos]
        raise ParseError(f"trailing input {tok[0]!r}", tok[2])
    return result


def _var_name(i: int) -> str:
    return {1: "x", 2: "y", 3: "z"}.get(i, f"x{i}")


def _render_word(word: Word) -> str:
    parts = []
    for v, run in itertools.groupby(word):
        count = len(list(run))
        name = _var_name(v)
        parts.append(name if count == 1 else f"{name}^{count}")
    return "".join(parts)


def render(p: NcPoly) -> str:
    """Canonical text: terms by (degree, word), stable under re-parsing."""
    if p.is_zero:
        return "0"
    items = sorted(p._terms.items(), key=lambda kv: (len(kv[0]), kv[0]))
    out = []
    for i, (word, coeff) in enumerate(items):
        body = _render_word(word)
        magnitude = "" if abs(coeff) == 1 else str(abs(coeff))
        if i == 0:
            sign = "-" if coeff < 0 else ""
            out.append(f"{sign}{magnitude}{body}")
        else:
            sign = "-" if coeff < 0 else "+"
            out.append(f" {sign} {magnitude}{body}")
    return "".join(out)


# --- substitution and evaluation ----------------------------------------------


def substitute(p: NcPoly, bindings: Mapping[int, NcPoly]) -> NcPoly:
    """Homomorphic image of p with every variable replaced by its binding."""
    total = ZERO
    for word, coeff in p._terms.items():
        factor: NcPoly | None = None
        for v in word:
            if v not in bindings:
                raise UnboundVariable(f"variable {_var_name(v)} has no binding")
            factor = bindings[v] if factor is None else factor * bindings[v]
            if factor.is_zero:
                break
        assert factor is not None
        total = total + coeff * factor
    return total


def lower_degree(p: NcPoly) -> int:
    """Minimum word length over the stored terms."""
    if p.is_zero:
        raise ZeroPolynomial("the zero polynomial has no lower degree")
    return min(len(word) for word in p._terms)


def essentially_depends(p: NcPoly) -> bool:
    """True iff zeroing any single occurring variable kills the polynomial."""
    for v in p.variables():
        bindings = {u: (ZERO if u == v else variable(u)) for u in p.variables()}
        if not substitute(p, bindings).is_zero:
            return False
    return True


def evaluate(p: NcPoly, ring: FiniteRing, assignment: Mapping[int, int]) -> int:
    """Value of p in the ring; integer coefficients act by repeated addition."""
    total = 0
    for word, coeff in p._terms.items():
        try:
            value = assignment[word[0]]
            for v in word[1:]:
                value = ring.mul[value][assignment[v]]
        except KeyError as exc:
            raise UnboundVariable(f"variable {_var_name(exc.args[0])} has no value") from None
        m = multiples(ring.add, value)
        total = ring.add[total][m[coeff % len(m)]]
    return total


@dataclass(frozen=True)
class IdentityCheck:
    ok: bool
    counterexample: dict[int, int] | None = None

    def __bool__(self) -> bool:
        return self.ok


def _linear_variables(p: NcPoly) -> set[int]:
    """Variables that occur exactly once in every word of p."""
    words = list(p._terms)
    if not words:
        return set()
    return {v for v in set(words[0]) if all(word.count(v) == 1 for word in words)}


def satisfies_identity(
    ring: FiniteRing, p: NcPoly, *, budget: int = DEFAULT_EVAL_BUDGET
) -> IdentityCheck:
    """Test whether p vanishes under every assignment.

    p is additive in each variable that occurs exactly once in every word, so
    it vanishes on the whole ring iff it does with those variables ranging
    over the generators of (R, +) and the others over all of R.  A pass is
    a proof, and a failure reports the least counterexample in lexicographic
    order.  When the assignments of that reduced scan would exceed `budget`,
    the call raises BudgetExceeded before evaluating any.
    """
    vars_ = p.variables()
    gens = generators(ring.add)
    linear = _linear_variables(p)
    ranges = [gens if v in linear else range(ring.order) for v in vars_]
    total = math.prod(len(r) for r in ranges)
    if total > budget:
        raise BudgetExceeded(f"{total} assignments exceed the budget of {budget}")
    # The scan runs in lexicographic order with the generators ascending, and
    # its first failure is the least counterexample.  Fix the variables before
    # a linear one at their values there, and say it has value g: every a < g
    # is a sum of generators below g, at each of which the scan found p
    # vanishing for every value of the later variables (by the same
    # reduction), so p vanishes at a too.
    for combo in itertools.product(*ranges):
        assignment = dict(zip(vars_, combo))
        if evaluate(p, ring, assignment) != 0:
            return IdentityCheck(False, assignment)
    return IdentityCheck(True)


def format_assignment(assignment: Mapping[int, int]) -> str:
    return " ".join(f"{_var_name(v)}={assignment[v]}" for v in sorted(assignment))


def parse_suite(text: str) -> list[tuple[str, NcPoly]]:
    """One polynomial per line; '#' lines and blanks are skipped."""
    out = []
    # Split at \n alone, as parse_ringtab does: text mode already reads \r\n
    # and \r as \n, and a form feed inside a line stays in it.
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            out.append((line, parse(line)))
        except ParseError as exc:
            raise ParseError(f"line {lineno}: {exc.message}", exc.position) from None
    return out


def load_suite(path) -> list[tuple[str, NcPoly]]:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_suite(fh.read())
