import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finring import freealg as fa
from finring import rings
from finring.errors import (
    BudgetExceeded,
    ParseError,
    UnboundVariable,
    ZeroPolynomial,
)

words = st.lists(st.integers(1, 3), min_size=1, max_size=4).map(tuple)
polys = st.dictionaries(words, st.integers(-6, 6), max_size=5).map(fa.NcPoly)


def test_parse_examples():
    p = fa.parse("2x + x^2")
    assert p.terms == {(1,): 2, (1, 1): 1}
    assert fa.parse("[x,y]").terms == {(1, 2): 1, (2, 1): -1}
    assert fa.parse("0").is_zero
    assert fa.parse("x1x2") == fa.parse("xy")
    assert fa.parse("-2x").terms == {(1,): -2}
    assert fa.parse("2*3x").terms == {(1,): 6}
    assert fa.parse("(x+y)x") == fa.parse("x^2 + yx")


def test_parse_errors():
    with pytest.raises(ParseError):
        fa.parse("1 + x")
    with pytest.raises(ParseError):
        fa.parse("x^0")
    with pytest.raises(ParseError) as exc:
        fa.parse("x + $")
    assert exc.value.position == 4
    with pytest.raises(ParseError):
        fa.parse("")
    with pytest.raises(ParseError):
        fa.parse("x0")


def test_only_decimal_digits_are_numbers(tmp_path):
    # str.isdigit also accepts characters such as superscripts that int()
    # refuses; the tokenizer reads exactly the decimal ones, which int() takes.
    for code in range(0x110000):
        ch = chr(code)
        if ch.isdigit() and not ch.isdecimal():
            with pytest.raises(ParseError) as exc:
                fa.parse("x" + ch)
            assert exc.value.position == 1, hex(code)
    for text, position in (("x²", 1), ("¹x", 0), ("2x + 3y⁴", 7)):
        with pytest.raises(ParseError) as exc:
            fa.parse(text)
        assert exc.value.position == position
    assert fa.parse("x٣") == fa.parse("x3")
    assert fa.parse("٢x^٣") == fa.parse("2x^3")
    bad = tmp_path / "bad.txt"
    bad.write_text("xy\nx²\n", encoding="utf-8")
    with pytest.raises(ParseError) as exc:
        fa.load_suite(bad)
    assert str(exc.value) == "line 2: unexpected character '²' (at position 1)"


def test_arithmetic_examples():
    x, y = fa.variable(1), fa.variable(2)
    assert fa.mul(x, y) != fa.mul(y, x)
    p = fa.parse("2x + xy")
    assert fa.add(p, fa.scale(-1, p)).is_zero
    assert fa.mul(fa.add(x, y), x) == fa.parse("x^2 + yx")


@settings(max_examples=60, deadline=None)
@given(polys, polys, polys)
def test_ring_axioms_of_free_ring(p, q, r):
    assert fa.add(p, q) == fa.add(q, p)
    assert fa.add(fa.add(p, q), r) == fa.add(p, fa.add(q, r))
    assert fa.mul(fa.mul(p, q), r) == fa.mul(p, fa.mul(q, r))
    assert fa.mul(p, fa.add(q, r)) == fa.add(fa.mul(p, q), fa.mul(p, r))
    assert fa.mul(fa.add(p, q), r) == fa.add(fa.mul(p, r), fa.mul(q, r))


@settings(max_examples=80, deadline=None)
@given(polys)
def test_render_parse_round_trip(p):
    assert fa.parse(fa.render(p)) == p


def test_render_ordering():
    assert fa.render(fa.parse("x^2 + 2x")) == "2x + x^2"
    assert fa.render(fa.parse("-x - yx + xy")) == "-x + xy - yx"
    assert fa.render(fa.ZERO) == "0"
    assert fa.render(fa.parse("x4^2y")) == "x4^2y"


def test_substitute_examples():
    f = fa.parse("x + x^2")
    doubled = fa.substitute(f, {1: fa.scale(2, fa.variable(1))})
    derived = fa.add(fa.scale(4, f), fa.scale(-1, doubled))
    assert derived == fa.parse("2x")
    assert fa.substitute(fa.parse("xy"), {1: fa.variable(1), 2: fa.variable(1)}) == fa.parse("x^2")
    killed = fa.substitute(fa.parse("xy + y"), {1: fa.ZERO, 2: fa.variable(2)})
    assert killed == fa.parse("y")
    with pytest.raises(UnboundVariable):
        fa.substitute(fa.parse("xy"), {1: fa.variable(1)})


def test_collapse_chain_degree_three():
    # f = kx + a2 x^2 + a3 x^3 collapses to (2^3-2)(2^2-2) k x
    k, a2, a3 = 2, 1, -1
    x = fa.variable(1)
    f = fa.add(fa.scale(k, x), fa.add(fa.scale(a2, fa.parse("x^2")), fa.scale(a3, fa.parse("x^3"))))
    double = {1: fa.scale(2, x)}
    g = fa.add(fa.scale(8, f), fa.scale(-1, fa.substitute(f, double)))
    assert max(len(w) for w in g.terms) <= 2
    h = fa.add(fa.scale(4, g), fa.scale(-1, fa.substitute(g, double)))
    assert h == fa.scale((8 - 2) * (4 - 2) * k, x)


def test_lower_degree():
    assert fa.lower_degree(fa.parse("xy + x^2y + x^3")) == 2
    assert fa.lower_degree(fa.parse("4x")) == 1
    with pytest.raises(ZeroPolynomial):
        fa.lower_degree(fa.ZERO)
    # hypothesis-style shape check used in the degree arguments:
    # subtracting the low term leaves something of lower degree > 2
    f = fa.parse("xy + x^2y^2 + xyx^2")
    assert fa.lower_degree(fa.add(f, fa.scale(-1, fa.parse("xy")))) > 2


def test_essentially_depends():
    assert fa.essentially_depends(fa.parse("xy"))
    assert not fa.essentially_depends(fa.parse("x + xy"))
    assert fa.essentially_depends(fa.parse("xyz"))
    assert fa.essentially_depends(fa.ZERO)


def test_evaluate_examples():
    n04 = rings.n0(2, 2)
    assert fa.evaluate(fa.parse("xy"), n04, {1: 3, 2: 1}) == 0
    n4 = rings.np2(2)
    for a in range(4):
        assert fa.evaluate(fa.parse("2x + x^2"), n4, {1: a}) == 0
    assert fa.evaluate(fa.variable(1), rings.zn(5), {1: 0}) == 0
    with pytest.raises(UnboundVariable):
        fa.evaluate(fa.parse("xy"), n4, {1: 1})


@settings(max_examples=40, deadline=None)
@given(polys, polys, st.sampled_from(["zn6", "np2", "gf4"]), st.data())
def test_evaluate_is_homomorphic(p, q, which, data):
    ring = {"zn6": rings.zn(6), "np2": rings.np2(2), "gf4": rings.gf(2, 2)}[which]
    assignment = {v: data.draw(st.integers(0, ring.order - 1)) for v in (1, 2, 3)}
    ep = fa.evaluate(p, ring, assignment)
    eq = fa.evaluate(q, ring, assignment)
    assert fa.evaluate(fa.add(p, q), ring, assignment) == ring.add[ep][eq]
    assert fa.evaluate(fa.mul(p, q), ring, assignment) == ring.mul[ep][eq]


@settings(max_examples=40, deadline=None)
@given(polys, st.data())
def test_substitute_commutes_with_evaluate(p, data):
    ring = rings.zn(6)
    bindings = {
        v: data.draw(st.sampled_from([fa.variable(1), fa.parse("2y"), fa.parse("x + z")]))
        for v in (1, 2, 3)
    }
    assignment = {v: data.draw(st.integers(0, 5)) for v in (1, 2, 3)}
    composed = {v: fa.evaluate(b, ring, assignment) for v, b in bindings.items()}
    assert fa.evaluate(fa.substitute(p, bindings), ring, assignment) == fa.evaluate(
        p, ring, composed
    )


def test_satisfies_identity_examples():
    assert fa.satisfies_identity(rings.zn(2), fa.parse("xy - x^2y")).ok
    n4 = rings.np2(2)
    for text in ("xyz", "4x", "2xy", "2x+x^2"):
        assert fa.satisfies_identity(n4, fa.parse(text)).ok
    result = fa.satisfies_identity(rings.zn(4), fa.parse("2x"))
    assert not result.ok
    assert result.counterexample == {1: 1}
    assert fa.format_assignment(result.counterexample) == "x=1"


def test_least_counterexample_order():
    # first failing assignment in lexicographic (x, y) order
    result = fa.satisfies_identity(rings.zn(3), fa.parse("xy"))
    assert result.counterexample == {1: 1, 2: 1}


@pytest.mark.parametrize("p", [2, 3, 5])
def test_prime_field_identities(p):
    zp = rings.zn(p)
    assert fa.satisfies_identity(zp, fa.parse(f"x^{p} - x")).ok
    assert fa.satisfies_identity(zp, fa.parse(f"xy - x^{p}y")).ok


@pytest.mark.parametrize("p", [2, 3, 5])
def test_null_ring_identities(p):
    ring = rings.n0(p, 1)
    assert fa.satisfies_identity(ring, fa.parse("xy")).ok
    assert fa.satisfies_identity(ring, fa.parse(f"{p}x")).ok


@pytest.mark.parametrize("p", [2, 3])
def test_triangular_ring_kills_triple_products(p):
    assert fa.satisfies_identity(rings.npp(p), fa.parse("xyz")).ok


def test_budget_and_sampling():
    ring = rings.zn(8)
    # Linear variables range over the generators, so x1...x9 takes one
    # assignment; squared, none is linear and all 8^9 exceed the budget.
    linear = fa.parse("x1x2x3x4x5x6x7x8x9")
    assert fa.satisfies_identity(ring, linear).counterexample == {v: 1 for v in range(1, 10)}
    wide = fa.parse("x1^2x2^2x3^2x4^2x5^2x6^2x7^2x8^2x9^2")
    with pytest.raises(BudgetExceeded):
        fa.satisfies_identity(ring, wide)
    # seeded sampling is deterministic and finds a real counterexample here
    result = fa.satisfies_identity(ring, wide, sample=2000, seed=3)
    assert not result.ok
    assert fa.evaluate(wide, ring, result.counterexample) != 0
    # a null ring satisfies the identity, so sampling reports success
    null = rings.n0(2, 3)
    assert fa.satisfies_identity(null, wide, budget=10, sample=50).ok


def test_suite_parsing(tmp_path):
    path = tmp_path / "ids.txt"
    path.write_text("# comment\n\nxyz\n4x\n")
    suite = fa.load_suite(path)
    assert [src for src, _ in suite] == ["xyz", "4x"]
    bad = tmp_path / "bad.txt"
    bad.write_text("xy\n1+x\n")
    with pytest.raises(ParseError) as exc:
        fa.load_suite(bad)
    assert "line 2" in str(exc.value)


def test_power_squares_and_multiplies(monkeypatch):
    products = []
    mul = fa.NcPoly.__mul__

    def counting_mul(self, other):
        if isinstance(other, fa.NcPoly):
            products.append(other)
        return mul(self, other)

    monkeypatch.setattr(fa.NcPoly, "__mul__", counting_mul)
    assert fa.parse("x^8000").terms == {(1,) * 8000: 1}
    assert len(products) <= 2 * 13
    x_plus_y = fa.parse("x + y")
    products.clear()
    naive = x_plus_y
    for _ in range(6):
        naive = mul(naive, x_plus_y)
    assert x_plus_y ** 7 == naive
    assert len(products) <= 4


def test_expansion_bound_is_checked_before_building():
    wide = fa.NcPoly({(v,): 1 for v in range(1, 257)})
    wider = fa.NcPoly({(v,): 1 for v in range(1, 258)})
    fa._check_expansion(wide, wide)  # 2^16 terms: at the limit, allowed
    with pytest.raises(BudgetExceeded):
        wider * wide
    with pytest.raises(BudgetExceeded):
        wide * wider
    long = fa.NcPoly({(1,) * (1 << 15): 1})
    fa._check_expansion(long, long)
    with pytest.raises(BudgetExceeded):
        long * fa.NcPoly({(1,) * ((1 << 15) + 1): 1})
    with pytest.raises(BudgetExceeded):
        fa.parse("x^99999999999999")


def test_coefficient_bound():
    limit = fa.MAX_EXPANSION
    assert fa.parse(f"2^{limit - 1}x").terms == {(1,): 2 ** (limit - 1)}
    for text in (
        f"2^{limit}x",  # a scalar power, refused before it is computed
        "2^9999999x",
        f"2^{limit // 2} 2^{limit // 2} x",  # scalars multiplied within a term
        f"2^{limit // 2} 2^{limit // 2}",  # ... checked before the term is complete
        "(2^300x)^300",  # repeated squaring
        f"(2^{limit // 2}x)(2^{limit // 2}y)",  # a polynomial product
    ):
        with pytest.raises(BudgetExceeded):
            fa.parse(text)
    with pytest.raises(BudgetExceeded):
        fa.scale(2 ** limit, fa.variable(1))


def _nested_commutator(depth):
    # [[...[x, x], x]...]: each level adds one bracket, and the value is 0.
    return "[" * depth + "x,x]" + ",x]" * (depth - 1)


def test_nesting_bound():
    limit = fa.MAX_NESTING
    assert fa.parse("(" * limit + "x" + ")" * limit) == fa.variable(1)
    assert fa.parse(_nested_commutator(limit)).is_zero
    assert fa.parse("(" * (limit // 2) + _nested_commutator(limit // 2) + ")" * (limit // 2)).is_zero
    for text in (
        "(" * (limit + 1) + "x" + ")" * (limit + 1),
        "(" * 10000 + "x" + ")" * 10000,
        _nested_commutator(limit + 1),
        _nested_commutator(10000),
        "(" * (limit // 2) + _nested_commutator(limit // 2 + 1) + ")" * (limit // 2),
    ):
        with pytest.raises(ParseError, match=rf"nest deeper than {limit} \(at position {limit}\)"):
            fa.parse(text)


def test_long_juxtaposed_word_parses_fast():
    start = time.perf_counter()
    word = fa.parse("x" * 60000)
    assert time.perf_counter() - start < 2.0
    assert word == fa.parse("x^60000")
    assert fa.parse("xy" * 3 + "z") == fa.parse("xyxyxyz")
    with pytest.raises(BudgetExceeded):
        fa.parse("x" * (fa.MAX_EXPANSION + 1))


small_factors = st.lists(
    st.dictionaries(st.lists(st.integers(1, 3), min_size=1, max_size=3).map(tuple),
                    st.integers(-3, 3), min_size=1, max_size=3).map(fa.NcPoly),
    min_size=1, max_size=9,
)


@settings(max_examples=60, deadline=None)
@given(small_factors)
def test_balanced_product_equals_left_fold(factors):
    text = "".join(f"({fa.render(f)})" for f in factors)
    left_fold = factors[0]
    for factor in factors[1:]:
        left_fold = left_fold * factor
    assert fa.parse(text) == left_fold


def test_unbound_variables_are_named_alike():
    ring = rings.zn(4)
    for text, name in (("xy", "y"), ("x x5", "x5"), ("z^2", "z")):
        with pytest.raises(UnboundVariable, match=rf"^variable {name} has no value$"):
            fa.evaluate(fa.parse(text), ring, {1: 0})
        with pytest.raises(UnboundVariable, match=rf"^variable {name} has no binding$"):
            fa.substitute(fa.parse(text), {1: fa.variable(1)})
