"""Unit tests for linear terms."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.logic.terms import LinTerm, const, term, var


def test_var_and_const():
    x = var("x")
    assert x.coeff("x") == 1
    assert x.constant == 0
    assert const(5).constant == 5
    assert const(5).is_constant()
    assert not x.is_constant()


def test_zero_coefficients_dropped():
    t = term({"x": 0, "y": 2})
    assert t.variables() == {"y"}
    assert t.coeff("x") == 0


def test_addition_and_subtraction():
    x, y = var("x"), var("y")
    t = x + y + 3
    assert t.coeff("x") == 1 and t.coeff("y") == 1 and t.constant == 3
    u = t - x
    assert u.variables() == {"y"}
    assert (x - x).is_constant()


def test_scalar_multiplication_and_division():
    x = var("x")
    t = (x + 1) * 3
    assert t.coeff("x") == 3 and t.constant == 3
    half = t / 2
    assert half.coeff("x") == Fraction(3, 2)
    with pytest.raises(ZeroDivisionError):
        _ = t / 0


def test_negation():
    x, y = var("x"), var("y")
    t = -(x - y + 2)
    assert t.coeff("x") == -1 and t.coeff("y") == 1 and t.constant == -2


def test_substitute():
    x, y, z = var("x"), var("y"), var("z")
    t = 2 * x + y
    s = t.substitute({"x": z + 1})
    assert s.coeff("z") == 2 and s.coeff("y") == 1 and s.constant == 2
    # substitution is simultaneous, not sequential
    swap = (x + 2 * y).substitute({"x": y, "y": x})
    assert swap.coeff("y") == 1 and swap.coeff("x") == 2


def test_rename_merges_collisions():
    t = var("a") + var("b")
    r = t.rename({"a": "c", "b": "c"})
    assert r.coeff("c") == 2


def test_evaluate():
    t = 2 * var("x") - var("y") + 1
    assert t.evaluate({"x": 3, "y": 4}) == 3
    with pytest.raises(KeyError):
        t.evaluate({"x": 3})


def test_equality_and_hash():
    a = var("x") + 1
    b = 1 + var("x")
    assert a == b
    assert hash(a) == hash(b)
    assert a != var("x")
    assert len({a, b}) == 1


def test_str_rendering():
    assert str(var("x") - var("y") + 1) == "x - y + 1"
    assert str(const(0)) == "0"
    assert str(-2 * var("x")) == "-2*x"


def test_rejects_floats():
    with pytest.raises(TypeError):
        term({"x": 0.5})


@st.composite
def terms(draw):
    names = draw(st.lists(st.sampled_from("abcde"), max_size=4))
    coeffs = {n: Fraction(draw(st.integers(-9, 9)), draw(st.integers(1, 5)))
              for n in names}
    constant = Fraction(draw(st.integers(-20, 20)))
    return term(coeffs, constant)


@given(terms(), terms())
def test_addition_commutes(t, u):
    assert t + u == u + t


@given(terms(), terms(), terms())
def test_addition_associates(t, u, w):
    assert (t + u) + w == t + (u + w)


@given(terms())
def test_double_negation(t):
    assert -(-t) == t


@given(terms(), st.integers(-5, 5))
def test_multiplication_distributes_over_eval(t, k):
    valuation = {n: 2 for n in t.variables()}
    assert (t * k).evaluate(valuation) == k * t.evaluate(valuation)


def _integer_normal(t):
    """Integral values are ints; only non-integral ones are Fractions."""
    return all(type(v) is int or (type(v) is Fraction and v.denominator != 1)
               for v in [*t.coeffs.values(), t.constant])


@given(terms(), terms(), st.fractions(min_value=-4, max_value=4,
                                      max_denominator=4))
def test_arithmetic_results_are_integer_normal(t, u, k):
    results = [t + u, t - u, -t, t * k, t.substitute({"a": u, "b": t}),
               t.rename({"a": "b", "c": "b"})]
    if k != 0:
        results.append(t / k)
    for result in results:
        assert _integer_normal(result)


def test_integral_fractions_are_stored_as_ints():
    halves = term({"x": Fraction(1, 2)}, Fraction(1, 2))
    assert type((halves + halves).coeff("x")) is int
    assert type((halves + halves).constant) is int
    t = term({"x": Fraction(4, 2), "y": Fraction(1, 3)}, Fraction(6, 3))
    assert type(t.coeff("x")) is int and type(t.constant) is int
    assert type(t.coeff("y")) is Fraction
    assert type((t * 3).coeff("y")) is int
    assert type((t / 2).coeff("x")) is int
    assert t == term({"x": 2, "y": Fraction(1, 3)}, 2)
    assert hash(t) == hash(term({"x": 2, "y": Fraction(1, 3)}, 2))
