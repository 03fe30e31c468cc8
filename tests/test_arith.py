import math
import time
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
    # trial division by the primes <= 41 settles every n < 43^2 = 1849
    assert arith.is_prime(1847) and not arith.is_prime(1849)
    flags = arith._sieve(10**5)
    assert all(arith.is_prime(n) == bool(flags[n]) for n in range(10**5 + 1))


# psi_12 = 3.2e23: the least strong pseudoprime to the twelve prime bases
# up to 37, caught only by base 41
_PSI_12 = 318665857834031151167461


def test_is_prime_needs_base_41_below_mr_limit():
    assert _PSI_12 < arith._MR_LIMIT
    assert all(arith._strong_prp(_PSI_12, a) for a in arith._MR_BASES[:-1])
    assert not arith.is_prime(_PSI_12)
    assert arith.prime_factors(_PSI_12) == [399165290221, 798330580441]
    with pytest.raises(NotPrime):
        arith.g_k_exponent(_PSI_12, 10)


# psi_7 = 3.4e14 and psi_6 = 3.5e12 (Jaeschke, Math. Comp. 61, 1993): the
# least strong pseudoprimes to the first seven and the first six prime bases
_PSI_7 = 341_550_071_728_321
_PSI_6 = 3_474_749_660_383


def test_is_prime_at_the_seven_base_limit():
    assert _PSI_7 == arith._MR7_LIMIT
    assert all(arith._strong_prp(_PSI_7, a) for a in arith._MR_BASES[:7])
    assert not arith.is_prime(_PSI_7)
    assert all(arith._strong_prp(_PSI_6, a) for a in arith._MR_BASES[:6])
    assert not arith._strong_prp(_PSI_6, 17)
    assert not arith.is_prime(_PSI_6)


@pytest.mark.parametrize("n", [2**89 - 1, 2**107 - 1, 2**127 - 1, 10**30 + 57])
def test_bpsw_accepts_large_primes(n):
    assert n > arith._MR_LIMIT
    start = time.perf_counter()
    assert arith.is_prime(n)
    assert arith.prime_factors(n) == [n]
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize(
    "n",
    [
        arith._MR_LIMIT,  # psi_13: a strong pseudoprime to all 13 bases
        (10**15 + 37) * (10**15 + 91),
        999999999999989 * 1000000000000037,
        (2**61 - 1) * (2**89 - 1),
        (2**89 - 1) ** 2,
        (10**13 + 37) ** 2,  # a square: the Lucas test needs (D/n) = -1
    ],
)
def test_bpsw_rejects_large_composites(n):
    assert n >= arith._MR_LIMIT
    start = time.perf_counter()
    assert not arith.is_prime(n)
    assert time.perf_counter() - start < 1.0


# each half of BPSW alone is fooled by some composites; the other half
# catches them: strong base-2 pseudoprimes and strong Lucas pseudoprimes
@pytest.mark.parametrize("n", [2047, 3277, 4033, 4681, 8321, 15841, 29341, 3215031751])
def test_strong_lucas_rejects_base_2_pseudoprimes(n):
    assert arith._strong_prp(n, 2)
    assert not arith._strong_lucas_prp(n)


@pytest.mark.parametrize("n", [5459, 5777, 10877, 16109, 18971, 22499, 24569, 25199])
def test_base_2_rejects_strong_lucas_pseudoprimes(n):
    assert arith._strong_lucas_prp(n)
    assert not arith._strong_prp(n, 2)


def _bpsw(n):
    return arith._strong_prp(n, 2) and arith._strong_lucas_prp(n)


@settings(max_examples=300)
@example(_PSI_12)
@example(3215031751)
@example(2**61 - 1)
@example(999999999989 * 1000000000039)
@given(st.integers(21, (arith._MR_LIMIT - 3) // 2).map(lambda h: 2 * h + 1))
def test_bpsw_matches_miller_rabin_below_limit(n):
    # below _MR_LIMIT the 13-base Miller-Rabin test is deterministic
    if math.gcd(n, math.prod(arith._MR_BASES)) > 1 or math.isqrt(n) ** 2 == n:
        return
    assert _bpsw(n) == all(arith._strong_prp(n, a) for a in arith._MR_BASES)


def test_primes_upto_and_pi():
    assert arith.primes_upto(30) == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert arith.prime_pi(100) == 25
    assert arith.prime_pi(1) == 0
    # every n from -1 up, the edges n <= 3 of the sieve included
    primes = []
    for n in range(-1, 3001):
        if arith.is_prime(n):
            primes.append(n)
        assert arith.primes_upto(n) == primes, n
        assert arith.prime_pi(n) == len(primes), n


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


def test_prime_power_product_matches_factored_definition():
    for b in range(1, 2001):
        primes = _trial_division_factors(b)
        for k in range(61):
            want = math.prod(p ** arith.tau_p(p, k) for p in primes)
            assert arith.prime_power_product(b, k) == want, (b, k)


def test_prime_power_product_never_factors_b():
    # b has two ~15-digit prime factors, which took matrix_bound > 30 s to
    # find; every prime <= k is coprime to b, so the product needs none of them
    b = 1000000000000128000000000003367
    start = time.perf_counter()
    assert arith.prime_power_product(b, 60) == 1
    assert arith.prime_power_product(b * 2**3 * 7, 60) == 2**56 * 7**9
    assert time.perf_counter() - start < 0.1


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


@pytest.mark.parametrize("k", range(61))
def test_g_k_matches_enumeration(k):
    assert arith.g_k(k) == arith.g_k_by_enumeration(k)


def test_g_k_is_the_product_of_its_prime_powers():
    # the per-prime exponents against g_k's one product over the primes
    # above sqrt(k), far past the enumeration oracle's reach
    for k in range(2001):
        want = math.prod(p ** arith.g_k_exponent(p, k) for p in arith.primes_upto(k))
        assert arith.g_k(k) == want, k


def test_g_k_exponent_matches_brute_force():
    # max of tau_p(k) - tau_p(k0) - tau_p(k1) - tau_p(k2) over k0 + k1 + k2 = k;
    # every prime above 8 meets k <= 80 only in the closed form for p^2 > k,
    # so the carry-DP primes p <= 11 run on to k = 150, the sweep's range
    for p in arith.primes_upto(80):
        k_max = 150 if p <= 11 else 80
        tau = [arith.tau_p(p, n) for n in range(k_max + 1)]
        for k in range(p, k_max + 1):
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
