from fractions import Fraction

from hypothesis import given
from hypothesis import strategies as st

from factcancel.checks import differentiate_scaled
from factcancel.poly import MultiPoly, UniPoly

rats = st.fractions(min_value=-20, max_value=20, max_denominator=8)
unipolys = st.lists(rats, min_size=0, max_size=5).map(lambda cs: UniPoly(tuple(cs)))


@given(unipolys, unipolys, unipolys)
def test_unipoly_ring_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@given(unipolys, unipolys)
def test_unipoly_divmod(a, b):
    if b.is_zero():
        return
    q, r = a.divmod(b)
    assert q * b + r == a
    assert r.is_zero() or r.degree < b.degree


@given(unipolys, rats)
def test_taylor_shift_evaluates(p, a):
    shifted = p.taylor_shift(a)
    for x in (Fraction(0), Fraction(1), Fraction(-2, 3)):
        assert shifted.evaluate(x) == p.evaluate(x + a)


def test_from_roots_and_gcd():
    assert UniPoly.from_roots([1, 2]) == UniPoly((2, -3, 1))


@given(unipolys)
def test_derivative_degree(p):
    d = p.derivative()
    if p.degree <= 0:
        assert d.is_zero()
    else:
        assert d.degree == p.degree - 1


def test_differentiate_scaled_binomial():
    # (1/n!) d^n z^d = C(d,n) z^{d-n}
    p = UniPoly.monomial(1, 7)
    out = differentiate_scaled(p, 3)
    assert out == UniPoly.monomial(35, 4)
    assert all(c.denominator == 1 for c in out.coeffs)


@given(
    st.lists(rats, min_size=1, max_size=6),
    st.lists(rats, min_size=1, max_size=6),
)
def test_multipoly_commutes(c1, c2):
    a = MultiPoly(2, {(i, 0): c for i, c in enumerate(c1)})
    b = MultiPoly(2, {(0, i): c for i, c in enumerate(c2)})
    assert a * b == b * a
    assert a + b == b + a


def test_multipoly_partial():
    # d/dy1 of y1^2 y2 = 2 y1 y2
    p = MultiPoly.monomial(2, (2, 1))
    assert p.partial(0) == MultiPoly.monomial(2, (1, 1), 2)
    assert p.partial_multi((2, 1)) == MultiPoly.constant(2, 2)
