import math
import time

import mpmath
from hypothesis import given, settings
from hypothesis import strategies as st

from factcancel import arith
from factcancel.certificate import (
    CancellationCertificate,
    bound_steps,
    growth_constant,
    make_certificate,
)

# the certificate reals are computed with decimal; mpmath, under workdps, is
# the oracle they must reproduce
_CONSTANT = dict(
    scale=st.integers(1, 10**6),
    b=st.integers(1, 10**6),
    shift=st.integers(0, 3),
)
_LOG_RATIO = dict(psi=st.integers(1, 2**1000), k=st.integers(1, 10**4))


@settings(max_examples=200, deadline=None)
@given(**_CONSTANT, **_LOG_RATIO)
def test_certificate_reals_equal_mpmath_oracle(scale, b, shift, psi, k):
    # both reals are computed at 50 digits, so both round to the same double
    with mpmath.workdps(50):
        want_constant = float(scale * b * mpmath.e ** (arith.chi(b) + shift))
        want_log_ratio = float(mpmath.log(psi) / k)
    assert growth_constant(scale, b, shift) == want_constant
    assert make_certificate(k, psi, None, None).log_ratio_per_k == want_log_ratio


def test_json_ignores_a_stray_digits_key():
    cert = make_certificate(30, 10**9, 10**12, growth_constant(1, 10, 0))
    d = cert.to_dict()
    assert "digits" not in d
    assert CancellationCertificate.from_dict({**d, "digits": 80}) == cert


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
