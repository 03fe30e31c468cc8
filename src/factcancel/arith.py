"""Exact integer/rational arithmetic kernels.

Everything here is deterministic and pure: primality and factoring, the
prime sieve, the trinomial-coefficient lcm g_k, and the growth constant
rho(b).  Divisibility data is always exact integers.  rho_exact is the exact
rational that hyper encloses Phi from.  The references the tests compare
with (tau_p, lcm_upto, prime_power_product, chi and g_k_exponent) are in
``checks``.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import compress
from math import gcd, isqrt, lcm, prod
from typing import Iterable

DEFAULT_DIGITS = 50

Rat = Fraction

#: the first 13 primes: as Miller-Rabin witnesses they are deterministic
#: below psi_13 = 3.3e24 (Sorenson and Webster, Math. Comp. 86, 2017); the
#: first 12 only below psi_12 = 3.2e23, the first 7 below psi_7 = 3.4e14
#: (Jaeschke, Math. Comp. 61, 1993)
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3_317_044_064_679_887_385_961_981
_MR7_LIMIT = 341_550_071_728_321

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


def _strong_prp(n: int, a: int) -> bool:
    """True if the odd n > a is a strong probable prime to base a (one
    Miller-Rabin round)."""
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    x = pow(a, d, n)
    if x in (1, n - 1):
        return True
    for _ in range(r - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def _jacobi(a: int, n: int) -> int:
    """The Jacobi symbol (a/n) for odd n > 0."""
    a %= n
    out = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                out = -out
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            out = -out
        a %= n
    return out if n == 1 else 0


def _half(x: int, n: int) -> int:
    """x / 2 modulo the odd n."""
    return (x if x % 2 == 0 else x + n) // 2 % n


def _strong_lucas_prp(n: int) -> bool:
    """True if n is a strong Lucas probable prime for Selfridge's
    parameters: P = 1, Q = (1 - D)/4 with D the first of 5, -7, 9, -11, ...
    with (D/n) = -1.  With n + 1 = d 2^s, that means U_d = 0 or
    V_{d 2^r} = 0 (mod n) for some r < s.  The odd n must not be a square
    (no such D exists then) and must exceed every |D| tried, so that
    (D/n) = 0 means a proper factor."""
    D = 5
    while (j := _jacobi(D, n)) != -1:
        if j == 0:  # gcd(D, n) > 1 and n > |D|
            return False
        D = -D - 2 if D > 0 else -D + 2
    Q = (1 - D) // 4
    d, s = n + 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    U, V, Qk = 0, 2, 1  # U_k, V_k, Q^k at k = 0, then along the bits of d
    for bit in bin(d)[2:]:
        U, V, Qk = U * V % n, (V * V - 2 * Qk) % n, Qk * Qk % n
        if bit == "1":
            U, V, Qk = _half(U + V, n), _half(D * U + V, n), Qk * Q % n
    if U == 0 or V == 0:
        return True
    for _ in range(s - 1):
        V, Qk = (V * V - 2 * Qk) % n, Qk * Qk % n
        if V == 0:
            return True
    return False


def is_prime(n: int) -> bool:
    """Primality: trial division by _MR_BASES, which settles n < 43^2, then
    Miller-Rabin with their first seven witnesses below _MR7_LIMIT = 3.4e14
    and all of them below _MR_LIMIT = 3.3e24; above it, BPSW, a strong
    base-2 test and a strong Lucas test (Baillie and Wagstaff, Math. Comp.
    35, 1980), which has no known counterexample and none below 2^64."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    if n < 43 * 43:
        return True
    if n < _MR_LIMIT:
        return all(_strong_prp(n, a) for a in _MR_BASES[: 7 if n < _MR7_LIMIT else None])
    return _strong_prp(n, 2) and isqrt(n) ** 2 != n and _strong_lucas_prp(n)


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


def prime_pi(n: int) -> int:
    """pi(n), the number of primes <= n: the sieve's flags counted, no list
    built."""
    return _sieve(n).count(1)


def common_denominator(xs: Iterable[Fraction]) -> int:
    """lcm of the denominators of xs; 1 for the empty collection."""
    out = 1
    for x in xs:
        out = lcm(out, x.denominator)
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

