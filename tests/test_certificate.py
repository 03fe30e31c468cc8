import math
import time

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from factcancel import checks
from factcancel.certificate import (
    CancellationCertificate,
    bound_steps,
    certificate_steps,
    certify,
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
        want_constant = float(scale * b * mpmath.e ** (checks.chi(b) + shift))
        want_log_ratio = float(mpmath.log(psi) / k)
    assert growth_constant(scale, b, shift) == want_constant
    assert make_certificate(k, psi, None, None).log_ratio_per_k == want_log_ratio


def test_json_ignores_a_stray_digits_key():
    cert = make_certificate(30, 10**9, 10**12, growth_constant(1, 10, 0))
    d = cert.to_dict()
    assert "digits" not in d
    assert CancellationCertificate.from_dict({**d, "digits": 80}) == cert


def test_json_round_trip_past_the_int_string_limit():
    # str(int) and int(str) stop at 4,300 digits; the wire form does not
    cert = make_certificate(3000, 7**6000, 7**6001 * 10**9, None)
    d = cert.to_dict()
    assert len(d["bound_k"]) > 5000
    assert d["psi_k"].isdigit()
    assert CancellationCertificate.from_json(cert.to_json()) == cert


@pytest.mark.parametrize("text", ["1e3", "1.5", "nan", "Infinity", "x", ""])
def test_from_dict_rejects_non_integer_digits(text):
    d = make_certificate(3, 8, 16, None).to_dict()
    with pytest.raises(ValueError):
        CancellationCertificate.from_dict({**d, "psi_k": text})


@settings(max_examples=150, deadline=None)
@given(
    b=st.integers(1, 10**6),
    base=st.integers(1, 50),
    d_exp=st.integers(0, 3),
    k_max=st.integers(0, 80),
)
def test_bound_steps_matches_factored_formula(b, base, d_exp, k_max):
    primes = checks.prime_divisors(b)
    want = [
        (base * b) ** k
        * checks.lcm_upto(k) ** d_exp
        * math.prod(p ** checks.tau_p(p, k) for p in primes)
        for k in range(1, k_max + 1)
    ]
    assert list(bound_steps(b, k_max, base, d_exp)) == want


def test_bound_steps_does_not_factor_b():
    # b = (10^15 + 37)(10^15 + 91): both primes lie past any trial division,
    # so the bound must come without them
    b = (10**15 + 37) * (10**15 + 91)
    start = time.perf_counter()
    *_, last = bound_steps(b, 60)
    assert last == b**60
    *_, last = bound_steps(b * 2**3 * 7, 60, d_exp=1)
    assert last == (b * 2**3 * 7) ** 60 * checks.lcm_upto(60) * 2**56 * 7**9
    assert time.perf_counter() - start < 1.0


@settings(max_examples=150, deadline=None)
@given(
    data=st.data(),
    b=st.integers(1, 10**4),
    base=st.integers(1, 50),
    d_exp=st.integers(0, 3),
    k=st.integers(1, 40),
    scale=st.integers(1, 10**4),
    shift=st.integers(0, 3),
)
def test_one_pass_is_running_lcm_against_bound_steps(data, b, base, d_exp, k, scale, shift):
    dens = data.draw(st.lists(st.integers(1, 10**6), min_size=k + 1, max_size=k + 6))
    bounds = list(bound_steps(b, k, base, d_exp))
    steps = list(certificate_steps(dens, b, k, base, d_exp))
    assert steps == [(math.lcm(*dens[: n + 1]), bounds[n - 1]) for n in range(1, k + 1)]
    psi, bound = steps[-1]
    want = make_certificate(k, psi, scale * bound, growth_constant(base, b, shift))
    assert certify(k, iter(dens), b, base, d_exp, scale, shift) == want
    # with no b the certificate only measures psi_k, the lcm of D_0..D_k
    assert certify(k, iter(dens[: k + 1]), None) == make_certificate(k, psi, None)
