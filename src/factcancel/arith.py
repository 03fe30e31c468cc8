"""Exact integer/rational arithmetic kernels.

Everything here is deterministic and pure: the prime sieve, bounded trial
division (small_prime_factors, is_prime), the trinomial-coefficient lcm g_k,
and the growth constant rho(b).  Nothing is factored past TRIAL_LIMIT, so a
hostile denominator costs at most pi(TRIAL_LIMIT) trial divisions.
Divisibility data is always exact integers.  rho_exact is the exact rational
that hyper encloses Phi from.  The references the tests compare with (tau_p,
lcm_upto, prime_power_product, chi and g_k_exponent) are in ``checks``.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from itertools import compress
from math import gcd, isqrt, lcm, prod
from typing import Iterable

DEFAULT_DIGITS = 50

Rat = Fraction

#: trial division stops at this prime bound: a cofactor left below
#: TRIAL_LIMIT**2 is prime, and every prime factor of a larger one exceeds it
TRIAL_LIMIT = 10**6

#: the carry count of a state no split of k reaches
_UNREACHABLE = float("-inf")


def parse_rat(text) -> Fraction:
    """Parse the wire form "p/q" or "p" (or a JSON integer) into an exact
    rational; malformed text and a zero denominator both raise ValueError."""
    try:
        return Fraction(str(text).strip())
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None


def format_rat(x: Fraction) -> str:
    """Serialize a rational as "p/q", or "p" when the denominator is 1."""
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def _sieve(n: int) -> bytearray:
    """Eratosthenes' flags: flags[i] is 1 exactly when i is prime, for
    0 <= i <= n (empty for n < 0)."""
    if n < 2:
        return bytearray(max(n + 1, 0))
    flags = bytearray([1]) * (n + 1)
    flags[0] = flags[1] = 0
    for p in range(2, isqrt(n) + 1):
        if flags[p]:
            flags[p * p :: p] = bytes((n - p * p) // p + 1)
    return flags


@cache
def _small_sieve() -> bytearray:
    """is_prime's flags for n < 2**16, sieved on first use."""
    return _sieve(2**16 - 1)


def prime_pi(n: int) -> int:
    """pi(n), the number of primes <= n: the sieve's flags counted, no list
    built."""
    return _sieve(n).count(1)


def small_prime_factors(b: int) -> tuple[list[int], int]:
    """(primes, cofactor): the distinct primes of b >= 1, ascending, that
    trial division by the sieve's primes up to min(TRIAL_LIMIT, sqrt(b))
    finds, and the part of b they leave.  A leftover below TRIAL_LIMIT**2 is
    prime and joins the primes, so the cofactor is 1 or >= TRIAL_LIMIT**2,
    and then all its prime factors exceed TRIAL_LIMIT."""
    if b < 1:
        raise ValueError("b must be >= 1")
    n = min(TRIAL_LIMIT, isqrt(b))
    primes = []
    for p in compress(range(n + 1), _sieve(n)):
        if p * p > b:
            break
        if b % p == 0:
            primes.append(p)
            while b % p == 0:
                b //= p
    if 1 < b < TRIAL_LIMIT**2:
        primes.append(b)
        b = 1
    return primes, b


def is_prime(n: int) -> bool:
    """Primality: a sieve lookup below 2**16, above it by small_prime_factors,
    exact for n < TRIAL_LIMIT**2 and for every n with a prime factor <=
    TRIAL_LIMIT.  A larger n without one raises ValueError: trial division
    cannot tell a prime from a product of large primes, so it answers
    neither."""
    if n < 2**16:
        return n > 1 and bool(_small_sieve()[n])
    primes, _ = small_prime_factors(n)
    if not primes:
        raise ValueError(f"{n} has no prime factor <= {TRIAL_LIMIT}: primality undecided")
    return primes == [n]


def common_denominator(xs: Iterable[Fraction]) -> int:
    """lcm of the denominators of xs; 1 for the empty collection."""
    out = 1
    for x in xs:
        out = lcm(out, x.denominator)
    return out


def from_roots(roots: Iterable) -> list:
    """Ascending coefficients of prod (x - r) over the roots, in the roots'
    own type (int or Fraction); [1] for no roots."""
    out = [1]
    for r in roots:
        out = [a - r * b for a, b in zip([0] + out, out + [0])]
    return out


def _most_carries(p: int, k: int) -> int:
    """The most base-p carries over all splits k0 + k1 + k2 = k >= 0, for a
    prime p, read digit by digit from the units up.

    e0, e1, e2 are the most carries so far with carry 0, 1, 2 out of the
    digits read (-inf: unreachable); the last carry out must be 0.  At a
    digit d with carry c in, the three digits sum to d + p c' - c for carry
    c' out, which must lie in [0, 3(p - 1)]: carry 0 out needs d >= c, carry
    1 out always fits, and carry 2 out needs d <= p - 3 + c.  The units take
    carry 0 in; after them e0 < e1, since carry 1 out extends the best state.
    So with top = max(e1, e2) a step takes carry 0 out from e0, e1 or top
    for d = 0, 1 or more, carry 1 out from top, and carry 2 out from top
    unless d = p - 1, where only e2 fits.
    """
    k, d = divmod(k, p)
    e0, e1, e2 = 0, 1, 2 if d <= p - 3 else _UNREACHABLE
    while k:
        k, d = divmod(k, p)
        top = e1 if e1 > e2 else e2
        e0, e1, e2 = (
            e0 if d == 0 else e1 if d == 1 else top,
            top + 1,
            top + 2 if d < p - 1 else e2 + 2,
        )
    return e0


def g_k(k: int) -> int:
    """lcm of the trinomial coefficients k!/(k0! k1! k2!), k0+k1+k2 = k.

    The primes p <= sqrt(k) go through the carry DP one by one.  The primes
    above sqrt(k) take one product:

        prod_{sqrt(k) < p <= k} p  *  M / gcd(M, (k+1)(k+2)),
        M = prod_{sqrt(k) < p <= k/2} p.

    Proof: for p^2 > k, k = a p + d has two base-p digits, so only the
    carry c out of the units counts; the units digits sum to d + p c <=
    3(p - 1), so c = 2 needs d <= p - 3, and the tens digits sum to
    a - c >= 0: the exponent is min(a, 2 if d <= p - 3 else 1).  That is 1
    when p > k/2, where a = 1; when p <= k/2, a >= 2 and it is 2 unless d
    is p - 1 or p - 2, that is unless p divides (k+1)(k+2), and
    M / gcd(M, (k+1)(k+2)) is the product of the primes of M that do not.
    """
    if k < 2:
        return 1
    flags = _sieve(k)
    r, h = isqrt(k), k // 2
    out = prod(p ** _most_carries(p, k) for p in compress(range(r + 1), flags))
    above = prod(compress(range(r + 1, k + 1), flags[r + 1 :]))
    mid = prod(compress(range(r + 1, h + 1), flags[r + 1 : h + 1]))
    return out * above * (mid // gcd(mid, (k + 1) * (k + 2)))


def g_k_by_enumeration(k: int) -> int:
    """Independent oracle for g_k: direct lcm over all trinomials."""
    from math import factorial

    fk = factorial(k)
    out = 1
    for k0 in range(k + 1):
        for k1 in range(k - k0 + 1):
            k2 = k - k0 - k1
            out = lcm(out, fk // (factorial(k0) * factorial(k1) * factorial(k2)))
    return out


def rho_exact(b: int) -> Fraction:
    """(b/phi(b)) * sum of 1/n over 1 <= n <= b coprime to b, exactly."""
    if b < 1:
        raise ValueError("b must be >= 1")
    coprime = [n for n in range(1, b + 1) if gcd(n, b) == 1]
    harm = sum((Fraction(1, n) for n in coprime), Fraction(0))
    return Fraction(b, len(coprime)) * harm

