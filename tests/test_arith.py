import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from factcancel import arith
from factcancel.errors import NotPrime


def test_parse_format_roundtrip():
    for s in ["1/2", "-7/10", "3", "0", "-11/12"]:
        assert arith.format_rat(arith.parse_rat(s)) == s


@given(st.integers(-10**6, 10**6), st.integers(1, 10**4))
def test_parse_format_random(n, d):
    x = Fraction(n, d)
    assert arith.parse_rat(arith.format_rat(x)) == x


def test_is_prime_small():
    known = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31}
    for n in range(2, 32):
        assert arith.is_prime(n) == (n in known)
    assert not arith.is_prime(1)
    assert not arith.is_prime(0)
    assert arith.is_prime(2**31 - 1)


def test_primes_upto_and_pi():
    assert arith.primes_upto(30) == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert arith.prime_pi(100) == 25
    assert arith.prime_pi(1) == 0


def test_prime_factors():
    assert arith.prime_factors(1) == []
    assert arith.prime_factors(12) == [2, 3]
    assert arith.prime_factors(30) == [2, 3, 5]


def _trial_division_factors(n):
    out, d = [], 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    return out + [n] if n > 1 else out


def test_prime_factors_hostile_denominator():
    # trial division needs ~10^9 steps here; Pollard-Brent rho a few 10^4
    assert arith.prime_factors(998244353 * 1000000007) == [998244353, 1000000007]
    assert arith.prime_factors(6 * 101**2 * 1000003) == [2, 3, 101, 1000003]


# the examples leave a composite cofactor for Pollard-Brent rho, squares included
@example(101 * 103)
@example(991 * 997)
@example(997**2)
@example(2**5 * 101**2)
@given(st.integers(1, 10**6))
def test_prime_factors_match_trial_division(n):
    assert arith.prime_factors(n) == _trial_division_factors(n)


@given(st.sampled_from([2, 3, 5, 7, 11]), st.integers(0, 400))
def test_tau_p_is_factorial_valuation(p, k):
    fact = math.factorial(k)
    v = 0
    while fact and fact % p == 0:
        fact //= p
        v += 1
    assert arith.tau_p(p, k) == v


def test_prime_power_product():
    # b = 6, k = 10: 2^8 * 3^4
    assert arith.prime_power_product(6, 10) == 2**8 * 3**4
    assert arith.prime_power_product(1, 50) == 1


def test_lcm_upto():
    assert arith.lcm_upto(1) == 1
    assert arith.lcm_upto(10) == 2520
    acc = 1
    for i in range(1, 31):
        acc = math.lcm(acc, i)
    assert arith.lcm_upto(30) == acc


def test_chi_values():
    import mpmath

    with mpmath.workdps(50):
        want = mpmath.log(2) + mpmath.log(3) / 2
        assert abs(arith.chi(6) - want) < mpmath.mpf(10) ** -45
        assert arith.chi(1) == 0


@pytest.mark.parametrize("k", list(range(41)) + [55])
def test_g_k_matches_enumeration(k):
    assert arith.g_k(k) == arith.g_k_by_enumeration(k)


def test_g_k_exponent_matches_brute_force():
    # max of tau_p(k) - tau_p(k0) - tau_p(k1) - tau_p(k2) over k0 + k1 + k2 = k
    for p in arith.primes_upto(60):
        tau = [arith.tau_p(p, n) for n in range(61)]
        for k in range(p, 61):
            brute = max(
                tau[k] - tau[k0] - tau[k1] - tau[k - k0 - k1]
                for k0 in range(k + 1)
                for k1 in range(k - k0 + 1)
            )
            assert arith.g_k_exponent(p, k) == brute, (p, k)


@pytest.mark.parametrize("p", [2, 3, 5, 7, 101, 999983])
def test_g_k_exponent_huge_k(p):
    k = 10**12
    e = arith.g_k_exponent(p, k)
    # floor(log_p k), computed exactly
    log_floor, q = 0, p
    while q <= k:
        log_floor += 1
        q *= p
    assert 0 <= e <= 2 * log_floor


def test_g_k_exponent_rejects_non_prime():
    with pytest.raises(NotPrime):
        arith.g_k_exponent(4, 10)


def test_g_k_exponent_bound():
    # per-prime exponent bounded by 2*floor(ln k / ln p)
    for k in (10, 50, 137):
        for p in arith.primes_upto(k):
            assert arith.g_k_exponent(p, k) <= 2 * int(math.log(k) / math.log(p))


def test_totient():
    assert [arith.totient(b) for b in range(1, 11)] == [1, 1, 2, 2, 4, 2, 6, 4, 6, 4]


def test_rho_exact_small():
    assert arith.rho_exact(1) == 1
    assert arith.rho_exact(2) == 2
    # b=3: (3/2)(1 + 1/2) = 9/4
    assert arith.rho_exact(3) == Fraction(9, 4)
    # b=4: (4/2)(1 + 1/3) = 8/3
    assert arith.rho_exact(4) == Fraction(8, 3)


def test_common_denominator():
    assert arith.common_denominator([Fraction(1, 2), Fraction(1, 3)]) == 6
    assert arith.common_denominator([]) == 1


def test_denominator():
    assert arith.denominator(Fraction(-7, 10)) == 10
    assert arith.denominator(Fraction(4)) == 1
