import math
import time

import mpmath
from hypothesis import given, settings
from hypothesis import strategies as st

from factcancel import arith
from factcancel.certificate import bound_steps, growth_constant, make_certificate

# the certificate reals are computed with decimal; mpmath, under workdps, is
# the oracle they must reproduce
_CONSTANT = dict(
    scale=st.integers(1, 10**6),
    b=st.integers(1, 10**6),
    shift=st.integers(0, 3),
)
_LOG_RATIO = dict(psi=st.integers(1, 2**1000), k=st.integers(1, 10**4))


def _oracle_constant(scale, b, shift, digits):
    with mpmath.workdps(digits):
        return float(scale * b * mpmath.e ** (arith.chi(b, digits) + shift))


def _oracle_log_ratio(psi, k, digits):
    with mpmath.workdps(digits):
        return float(mpmath.log(psi) / k)


@settings(max_examples=200, deadline=None)
@given(digits=st.sampled_from([30, 50, 80]), **_CONSTANT, **_LOG_RATIO)
def test_certificate_reals_equal_mpmath_oracle(digits, scale, b, shift, psi, k):
    assert growth_constant(scale, b, shift, digits) == _oracle_constant(scale, b, shift, digits)
    cert = make_certificate(k, psi, None, None, digits)
    assert cert.log_ratio_per_k == _oracle_log_ratio(psi, k, digits)


@settings(max_examples=200, deadline=None)
@given(digits=st.integers(5, 29), **_CONSTANT, **_LOG_RATIO)
def test_low_precision_reals_agree_with_mpmath_oracle(digits, scale, b, shift, psi, k):
    # Below 30 digits the two roundings to a double may differ, so agreement
    # is relative: one unit in the last decimal digit for ln(psi)/k (one ln
    # and one division) and ten for the constant (up to 2 omega(b) + 3
    # roundings, omega(b) <= 7 here), plus the final rounding to a double.
    ulp = 2.0**-52
    want = _oracle_constant(scale, b, shift, digits)
    got = growth_constant(scale, b, shift, digits)
    assert abs(got - want) <= (10.0 ** (2 - digits) + ulp) * want
    want = _oracle_log_ratio(psi, k, digits)
    got = make_certificate(k, psi, None, None, digits).log_ratio_per_k
    assert abs(got - want) <= (10.0 ** (1 - digits) + ulp) * want


def test_low_precision_reports_the_requested_digits():
    cert = make_certificate(1, 2, 2, growth_constant(1, 2, 0, 5), 5)
    assert cert.log_ratio_per_k == 0.69315
    assert cert.asymptotic_constant == 4.0


@settings(max_examples=150, deadline=None)
@given(
    b=st.integers(1, 10**6),
    base=st.integers(1, 50),
    d_exp=st.integers(0, 3),
    k_max=st.integers(0, 80),
)
def test_bound_steps_matches_factored_formula(b, base, d_exp, k_max):
    primes = arith.prime_factors(b)
    want = [
        (base * b) ** k
        * arith.lcm_upto(k) ** d_exp
        * math.prod(p ** arith.tau_p(p, k) for p in primes)
        for k in range(1, k_max + 1)
    ]
    assert list(bound_steps(b, k_max, base, d_exp)) == want


def test_bound_steps_does_not_factor_b():
    # b = (10^15 + 37)(10^15 + 91) is past the Miller-Rabin range, where
    # is_prime falls back to trial division up to 10^15
    b = (10**15 + 37) * (10**15 + 91)
    start = time.perf_counter()
    *_, last = bound_steps(b, 60)
    assert last == b**60
    *_, last = bound_steps(b * 2**3 * 7, 60, d_exp=1)
    assert last == (b * 2**3 * 7) ** 60 * arith.lcm_upto(60) * 2**56 * 7**9
    assert time.perf_counter() - start < 1.0
