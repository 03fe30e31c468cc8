from fractions import Fraction
from math import comb, factorial, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from factcancel import arith, falling
from factcancel.certificate import CancellationCertificate

rats = st.fractions(min_value=-30, max_value=30, max_denominator=12)


@given(rats, st.integers(0, 15))
def test_falling_vs_delta(lam, n):
    assert falling.delta(lam, n) == falling.falling(lam, n) / factorial(n)


@given(st.integers(0, 40), st.integers(0, 12))
def test_delta_is_binomial_on_integers(a, n):
    # Delta_n(a) = C(a, n) for integer a >= 0
    assert falling.delta(Fraction(a), n) == comb(a, n)


@given(rats, st.integers(1, 12))
def test_pascal_recurrence(lam, n):
    # Delta_n(x) - Delta_n(x-1) = Delta_{n-1}(x-1)
    assert falling.delta(lam, n) - falling.delta(lam - 1, n) == falling.delta(
        lam - 1, n - 1
    )


def test_falling_table():
    lam = Fraction(1, 2)
    tab = falling.falling_table(lam, 6)
    assert tab == [falling.delta(lam, n) for n in range(7)]


@given(rats, st.integers(0, 10), st.integers(1, 4))
def test_delta_derivatives_match_shift_oracle(lam, n, r):
    assert falling.delta_derivatives(lam, n, r) == falling.delta_derivatives_via_shift(
        lam, n, r
    )


@given(rats, st.integers(0, 12))
def test_delta_derivatives_order_one_is_delta(lam, n):
    assert falling.delta_derivatives(lam, n, 1) == [falling.delta(lam, n)]


def test_delta_poly_coeffs_evaluates():
    p = falling.delta_poly_coeffs(4)
    for x in (Fraction(1, 2), Fraction(7), Fraction(-2, 3)):
        assert p.evaluate(x) == falling.delta(x, 4)


@pytest.mark.parametrize(
    "lam",
    [Fraction(1, 2), Fraction(2, 3), Fraction(-7, 10), Fraction(5, 6)],
)
def test_certify_scalar_divides(lam):
    cert = falling.certify_scalar(lam, 60)
    assert cert.divides
    assert cert.bound_k == falling.scalar_bound(lam.denominator, 60, 1)


def test_integer_lambda_unit_denominator():
    cert = falling.certify_scalar(Fraction(3), 10)
    assert cert.psi_k == 1
    assert cert.divides


def test_half_saturates_bound():
    # lambda = 1/2: psi_k equals the bound exactly (2-adic saturation)
    cert = falling.certify_scalar(Fraction(1, 2), 40)
    assert cert.psi_k == cert.bound_k


@pytest.mark.parametrize("r", [2, 3, 4])
def test_certify_scalar_derivatives(r):
    cert = falling.certify_scalar(Fraction(-7, 10), 30, r)
    assert cert.divides


def test_certify_scalar_sweep_consistent():
    K = 30
    for lam, r in [(Fraction(5, 6), 2), (Fraction(1, 2), 1), (Fraction(-7, 10), 3), (Fraction(3), 2)]:
        sweep = falling.certify_scalar_sweep(lam, K, r)
        assert len(sweep) == K
        assert all(sweep)
        for k in range(1, K + 1):
            assert sweep[k - 1] == falling.certify_scalar(lam, k, r).divides, (lam, r, k)


@settings(max_examples=60, deadline=None)
@given(rats, st.integers(0, 20), st.integers(1, 4))
def test_psi_scalar_matches_shift_oracle(lam, k, r):
    want = 1
    for n in range(k + 1):
        for v in falling.delta_derivatives_via_shift(lam, n, r):
            want = lcm(want, v.denominator)
    assert falling.psi_scalar(lam, k, r) == want


def test_certificate_json_roundtrip():
    cert = falling.certify_scalar(Fraction(1, 2), 12, 2)
    back = CancellationCertificate.from_json(cert.to_json())
    assert back.psi_k == cert.psi_k
    assert back.bound_k == cert.bound_k
    assert back.divides == cert.divides


def test_invalid_args():
    with pytest.raises(ValueError):
        falling.certify_scalar(Fraction(1, 2), 0)
    with pytest.raises(ValueError):
        falling.delta_derivatives(Fraction(1, 2), 3, 0)
