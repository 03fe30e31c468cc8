import math
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from factcancel import arith, checks
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
    assert not any(arith.is_prime(n) for n in range(-100, 2))
    assert arith.is_prime(2**31 - 1)
    # 43^2 = 1849, a prime square, right after a prime
    assert arith.is_prime(1847) and not arith.is_prime(1849)
    flags = arith._sieve(10**5)
    assert all(arith.is_prime(n) == bool(flags[n]) for n in range(10**5 + 1))


# psi_12 = 3.2e23 = 399165290221 * 798330580441: both primes exceed
# TRIAL_LIMIT, so trial division cannot decide it
_PSI_12 = 318665857834031151167461


def test_is_prime_needs_base_41_below_mr_limit():
    start = time.perf_counter()
    with pytest.raises(ValueError):
        checks.g_k_exponent(_PSI_12, 10)
    assert time.perf_counter() - start < 1.0


def test_is_prime_raises_without_a_small_factor():
    start = time.perf_counter()
    with pytest.raises(ValueError):
        arith.is_prime(_PSI_12)
    assert time.perf_counter() - start < 1.0
    # a small factor settles it, however large n is
    assert not arith.is_prime(2 * _PSI_12)
    assert not arith.is_prime(999983 * _PSI_12)
    # exact below TRIAL_LIMIT**2 = 10^12: the largest prime there, and a
    # product of the primes next to TRIAL_LIMIT; just above, it raises
    assert arith.is_prime(999999999989)
    assert not arith.is_prime(999983 * 1000003)
    with pytest.raises(ValueError):
        arith.is_prime(1000003 * 1000033)


def test_primes_upto_and_pi():
    assert checks.primes_upto(30) == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert arith.prime_pi(100) == 25
    assert arith.prime_pi(1) == 0
    # every n from -1 up, the edges n <= 3 of the sieve included
    primes = []
    for n in range(-1, 3001):
        if arith.is_prime(n):
            primes.append(n)
        assert checks.primes_upto(n) == primes, n
        assert arith.prime_pi(n) == len(primes), n


def test_prime_factors():
    assert arith.small_prime_factors(1) == ([], 1)
    assert arith.small_prime_factors(12) == ([2, 3], 1)
    assert arith.small_prime_factors(30) == ([2, 3, 5], 1)
    assert checks.prime_divisors(1) == []
    assert checks.prime_divisors(360) == [2, 3, 5]
    assert checks.prime_divisors(997**2 * 991) == [991, 997]


def test_prime_factors_hostile_denominator():
    # both primes exceed TRIAL_LIMIT and their product exceeds TRIAL_LIMIT**2:
    # trial division stops, and the product is the cofactor
    n = 998244353 * 1000000007
    assert arith.small_prime_factors(n) == ([], n)
    # a leftover 1000003 < TRIAL_LIMIT**2 is prime
    assert arith.small_prime_factors(6 * 101**2 * 1000003) == ([2, 3, 101, 1000003], 1)


# the examples end the trial division early (a prime square, a leftover
# prime above the last trial divisor) and on a prime power
@example(101 * 103)
@example(991 * 997)
@example(997**2)
@example(2**5 * 101**2)
@example(2**19)
@given(st.integers(1, 10**6))
def test_prime_factors_match_trial_division(n):
    assert arith.small_prime_factors(n) == (checks.prime_divisors(n), 1)


def _next_prime(n):
    while any(n % d == 0 for d in range(2, math.isqrt(n) + 1)):
        n += 1
    return n


@settings(max_examples=50, deadline=None)
@example(1, [1000003, 1000033])
@example(2 * 3 * 7, [999999937])
@example(10**6, [1000003, 1000003])
@given(
    st.integers(1, 10**6),
    st.lists(st.integers(10**6, 999_999_000).map(_next_prime), min_size=1, max_size=2),
)
def test_small_prime_factors_stops_at_the_trial_limit(s, large):
    # b = s * c, s <= 10^6 and c a product of one or two primes in
    # (10^6, 10^9): c stays whole exactly when it reaches TRIAL_LIMIT**2
    c = math.prod(large)
    small = checks.prime_divisors(s)
    if c >= arith.TRIAL_LIMIT**2:
        want = (small, c)
    else:
        want = (sorted(set(small + large)), 1)
    assert arith.small_prime_factors(s * c) == want


@given(st.sampled_from([2, 3, 5, 7, 11]), st.integers(0, 400))
def test_tau_p_is_factorial_valuation(p, k):
    fact = math.factorial(k)
    v = 0
    while fact and fact % p == 0:
        fact //= p
        v += 1
    assert checks.tau_p(p, k) == v


def test_prime_power_product():
    # b = 6, k = 10: 2^8 * 3^4
    assert checks.prime_power_product(6, 10) == 2**8 * 3**4
    assert checks.prime_power_product(1, 50) == 1


def test_prime_power_product_matches_factored_definition():
    for b in range(1, 2001):
        primes = checks.prime_divisors(b)
        for k in range(61):
            want = math.prod(p ** checks.tau_p(p, k) for p in primes)
            assert checks.prime_power_product(b, k) == want, (b, k)


def test_prime_power_product_never_factors_b():
    # b has two ~15-digit prime factors, which took matrix_bound > 30 s to
    # find; every prime <= k is coprime to b, so the product needs none of them
    b = 1000000000000128000000000003367
    start = time.perf_counter()
    assert checks.prime_power_product(b, 60) == 1
    assert checks.prime_power_product(b * 2**3 * 7, 60) == 2**56 * 7**9
    assert time.perf_counter() - start < 0.1


def test_lcm_upto():
    assert checks.lcm_upto(1) == 1
    assert checks.lcm_upto(10) == 2520
    acc = 1
    for i in range(1, 31):
        acc = math.lcm(acc, i)
    assert checks.lcm_upto(30) == acc


def test_chi_values():
    import mpmath

    with mpmath.workdps(50):
        want = mpmath.log(2) + mpmath.log(3) / 2
        assert abs(checks.chi(6) - want) < mpmath.mpf(10) ** -45
        assert checks.chi(1) == 0


@pytest.mark.parametrize("k", range(61))
def test_g_k_matches_enumeration(k):
    assert arith.g_k(k) == arith.g_k_by_enumeration(k)


def test_g_k_is_the_product_of_its_prime_powers():
    # the per-prime exponents against g_k's one product over the primes
    # above sqrt(k), far past the enumeration oracle's reach
    for k in range(2001):
        want = math.prod(p ** checks.g_k_exponent(p, k) for p in checks.primes_upto(k))
        assert arith.g_k(k) == want, k


def test_g_k_exponent_matches_brute_force():
    # max of tau_p(k) - tau_p(k0) - tau_p(k1) - tau_p(k2) over k0 + k1 + k2 = k;
    # every prime above 8 meets k <= 80 only in the closed form for p^2 > k,
    # so the carry-DP primes p <= 11 run on to k = 150, the sweep's range
    for p in checks.primes_upto(80):
        k_max = 150 if p <= 11 else 80
        tau = [checks.tau_p(p, n) for n in range(k_max + 1)]
        for k in range(p, k_max + 1):
            brute = max(
                tau[k] - tau[k0] - tau[k1] - tau[k - k0 - k1]
                for k0 in range(k + 1)
                for k1 in range(k - k0 + 1)
            )
            assert checks.g_k_exponent(p, k) == brute, (p, k)


@pytest.mark.parametrize("p", [2, 3, 5, 7, 101, 999983])
def test_g_k_exponent_huge_k(p):
    k = 10**12
    e = checks.g_k_exponent(p, k)
    # floor(log_p k), computed exactly
    log_floor, q = 0, p
    while q <= k:
        log_floor += 1
        q *= p
    assert 0 <= e <= 2 * log_floor


def test_g_k_exponent_rejects_non_prime():
    with pytest.raises(NotPrime):
        checks.g_k_exponent(4, 10)


def test_g_k_exponent_bound():
    # per-prime exponent bounded by 2*floor(ln k / ln p)
    for k in (10, 50, 137):
        for p in checks.primes_upto(k):
            assert checks.g_k_exponent(p, k) <= 2 * int(math.log(k) / math.log(p))


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
