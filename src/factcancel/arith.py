"""Exact integer/rational arithmetic kernels.

Everything here is deterministic and pure: p-adic valuations of factorials,
the prime-power common denominators of scaled falling factorials, lcm(1..k),
the trinomial-coefficient lcm g_k, and the growth constants chi(b) and
rho(b).  Divisibility data is always exact integers.  rho_exact is the exact
rational that hyper encloses Phi from; chi returns an mpmath real (mpmath is
imported only inside it) and is the oracle that tests and scripts compare
certificate.growth_constant and hyper.theorem6's C0 with.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import TYPE_CHECKING, Iterable

from .errors import NotPrime

if TYPE_CHECKING:
    import mpmath

DEFAULT_DIGITS = 50

Rat = Fraction

#: witnesses making Miller-Rabin deterministic below 3.3e24
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_LIMIT = 3_317_044_064_679_887_385_961_981


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


def is_prime(n: int) -> bool:
    """Deterministic primality test (Miller-Rabin witnesses below 3.3e24,
    trial division above; inputs here are tiny in practice)."""
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    if n >= _MR_LIMIT:
        i = 41
        while i * i <= n:
            if n % i == 0:
                return False
            i += 2
        return True
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


#: trial divisors tried before Pollard-Brent rho; they cover every b < 101**2
_TRIAL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47,
                 53, 59, 61, 67, 71, 73, 79, 83, 89, 97)


def _brent_factor(n: int) -> int:
    """A proper divisor of the odd composite n: Pollard rho with Brent's
    cycle detection and batched gcds (Brent, BIT 20, 1980).  The polynomial
    x^2 + c runs over c = 1, 2, ... until one splits n, so the result is
    deterministic."""
    c = 0
    while True:
        c += 1
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            i = 0
            while i < r and g == 1:
                ys = y
                for _ in range(min(128, r - i)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = gcd(q, n)
                i += 128
            r *= 2
        if g == n:  # the batch overshot: redo it one step at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(abs(x - ys), n)
        if g != n:
            return g


def prime_factors(b: int) -> list[int]:
    """Distinct prime divisors of b >= 1, ascending.

    Trial division by the primes below 100 settles every small denominator;
    a larger cofactor is split by Pollard-Brent rho down to factors that
    is_prime accepts.
    """
    if b < 1:
        raise ValueError("b must be >= 1")
    out = []
    for p in _TRIAL_PRIMES:
        if p * p > b:
            break
        if b % p == 0:
            out.append(p)
            while b % p == 0:
                b //= p
    stack = [b] if b > 1 else []
    while stack:
        n = stack.pop()
        if n < 101 * 101 or is_prime(n):
            out.append(n)
        else:
            d = _brent_factor(n)
            stack += [d, n // d]
    return sorted(set(out))


def primes_upto(n: int) -> list[int]:
    """All primes <= n via a sieve."""
    if n < 2:
        return []
    flags = bytearray([1]) * (n + 1)
    flags[0:2] = b"\x00\x00"
    p = 2
    while p * p <= n:
        if flags[p]:
            flags[p * p :: p] = b"\x00" * len(range(p * p, n + 1, p))
        p += 1
    return [i for i in range(2, n + 1) if flags[i]]


def prime_pi(n: int) -> int:
    """pi(n), the number of primes <= n."""
    return len(primes_upto(n))


def common_denominator(xs: Iterable[Fraction]) -> int:
    """lcm of the denominators of xs; 1 for the empty collection."""
    out = 1
    for x in xs:
        out = lcm(out, x.denominator)
    return out


def tau_p(p: int, k: int) -> int:
    """Legendre sum: the exponent of the prime p in k!.

    tau_p(k) = floor(k/p) + floor(k/p^2) + ...  <= k/(p-1).
    """
    if not is_prime(p):
        raise NotPrime(f"{p} is not prime")
    if k < 0:
        raise ValueError("k must be >= 0")
    total, q = 0, p
    while q <= k:
        total += k // q
        q *= p
    return total


def prime_power_product(b: int, k: int) -> int:
    """prod over primes p | b of p^tau_p(k); the exact common denominator of
    the integers b^n <lambda>_n / n!, n <= k, for den(lambda) = b.

    tau_p(k) = 0 for p > k, so only the primes p <= min(b, k) are tried and
    b is never factored.  This is the test reference for the factor that
    certificate.bound_steps builds incrementally; no certificate calls it.
    """
    if b < 1 or k < 0:
        raise ValueError("need b >= 1 and k >= 0")
    out = 1
    for p in primes_upto(min(b, k)):
        if b % p == 0:
            out *= p ** tau_p(p, k)
    return out


def chi(b: int, digits: int = DEFAULT_DIGITS) -> mpmath.mpf:
    """chi(b) = sum over primes p | b of ln(p)/(p-1)."""
    import mpmath

    with mpmath.workdps(digits):
        return +mpmath.fsum(mpmath.log(p) / (p - 1) for p in prime_factors(b))


def lcm_upto(k: int) -> int:
    """d_k = lcm(1, 2, ..., k); d_0 = 1."""
    out = 1
    for i in range(2, k + 1):
        out = lcm(out, i)
    return out


def g_k_exponent(p: int, k: int) -> int:
    """Exponent of the prime p in g_k, i.e. the maximum over k0+k1+k2 = k of
    v_p(k!/(k0! k1! k2!)) = tau_p(k) - tau_p(k0) - tau_p(k1) - tau_p(k2).

    By Kummer's theorem that valuation is the sum of the base-p carries of
    the addition k0 + k1 + k2, each carry c in {0, 1, 2}.  A digit DP takes
    the most carries over all splits: at a digit d of k, carry c goes to c'
    when the digit sum d + p c' - c lies in [0, 3(p-1)], and the final carry
    must be 0.  Cost O(log_p k), with no table and no cache.
    """
    if not is_prime(p):
        raise NotPrime(f"{p} is not prime")
    if k < 0:
        raise ValueError("k must be >= 0")
    top = 3 * (p - 1)
    best = [0, -1, -1]  # best[c]: most carries so far with carry c; -1 unreachable
    while k:
        k, d = divmod(k, p)
        nxt = [-1, -1, -1]
        for c, e in enumerate(best):
            if e < 0:
                continue
            for c2 in range(3):
                if 0 <= d + p * c2 - c <= top and e + c2 > nxt[c2]:
                    nxt[c2] = e + c2
        best = nxt
    return best[0]


def g_k(k: int) -> int:
    """lcm of the trinomial coefficients k!/(k0! k1! k2!), k0+k1+k2 = k."""
    out = 1
    for p in primes_upto(k):
        out *= p ** g_k_exponent(p, k)
    return out


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

