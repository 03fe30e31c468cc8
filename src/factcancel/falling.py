"""Scalar falling-factorial calculus.

<lambda>_n = lambda(lambda-1)...(lambda-n+1), the integer-valued binomial
polynomial Delta_n(lambda) = <lambda>_n / n!, its scaled derivatives
Delta_n^{(j)}(lambda)/j!, and exact per-k certificates: the measured common
denominator psi_k of all these values for n <= k divides
b^k d_k^{r-1} prod_{p|b} p^{tau_p(k)} with b = den(lambda).
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Iterator

import mpmath

from . import arith
from .certificate import CancellationCertificate, make_certificate
from .poly import UniPoly


def falling(lam: Fraction, n: int) -> Fraction:
    """<lambda>_n = lambda(lambda-1)...(lambda-n+1); 1 for n = 0."""
    out = Fraction(1)
    for i in range(n):
        out *= lam - i
    return out


def delta(lam: Fraction, n: int) -> Fraction:
    """Delta_n(lambda) = <lambda>_n / n!, computed incrementally."""
    out = Fraction(1)
    for i in range(n):
        out = out * (lam - i) / (i + 1)
    return out


def falling_table(lam: Fraction, k: int) -> list[Fraction]:
    """values[n] = Delta_n(lam) for n = 0..k."""
    out = [Fraction(1)]
    for n in range(1, k + 1):
        out.append(out[-1] * (lam - n + 1) / n)
    return out


def delta_poly_coeffs(n: int) -> UniPoly:
    """Delta_n(x) as an exact polynomial in x (degree n)."""
    p = UniPoly.one()
    for i in range(n):
        p = p * UniPoly((Fraction(-i, i + 1), Fraction(1, i + 1)))
    return p


def _taylor_rows(lam: Fraction, k: int, r: int) -> Iterator[list[Fraction]]:
    """Yield delta_derivatives(lam, n, r) for n = 0, 1, ..., k in turn.

    The recursion Delta_n(x) = Delta_{n-1}(x)(x-n+1)/n translates, with
    x - n + 1 = (lam - n + 1) + (x - lam), into an O(r) update of the
    truncated Taylor vector, so the whole run costs O(k r).
    """
    if r < 1:
        raise ValueError("r must be >= 1")
    v = [Fraction(1)] + [Fraction(0)] * (r - 1)
    yield v
    for m in range(1, k + 1):
        c = lam - m + 1
        v = [(v[j] * c + (v[j - 1] if j else 0)) / m for j in range(r)]
        yield v


def delta_derivatives(lam: Fraction, n: int, r: int) -> list[Fraction]:
    """The values Delta_n^{(j)}(lambda)/j! for j = 0..r-1.

    These are the first r Taylor coefficients of Delta_n at lambda, the last
    row of _taylor_rows; no full polynomial expansion is needed.
    """
    for v in _taylor_rows(lam, n, r):
        pass
    return v


def delta_derivatives_via_shift(lam: Fraction, n: int, r: int) -> list[Fraction]:
    """Independent oracle: expand Delta_n(x) and Taylor-shift it to lambda."""
    shifted = delta_poly_coeffs(n).taylor_shift(lam)
    return [shifted[j] for j in range(r)]


def scalar_bound(b: int, k: int, r: int) -> int:
    """b^k d_k^{r-1} prod_{p|b} p^{tau_p(k)}."""
    return b**k * arith.lcm_upto(k) ** (r - 1) * arith.prime_power_product(b, k)


def psi_scalar(lam: Fraction, k: int, r: int = 1) -> int:
    """Measured lcm of the denominators of Delta_n^{(j)}(lam)/j!,
    j < r, n <= k, from one O(k r) pass of the Taylor rows."""
    out = 1
    for row in _taylor_rows(lam, k, r):
        for v in row:
            out = lcm(out, v.denominator)
    return out


def certify_scalar(
    lam: Fraction, k: int, r: int = 1, digits: int = arith.DEFAULT_DIGITS
) -> CancellationCertificate:
    """Exact certificate: psi_k | b^k d_k^{r-1} prod p^{tau_p(k)}."""
    if k < 1 or r < 1:
        raise ValueError("k and r must be >= 1")
    b = arith.denominator(lam)
    psi = psi_scalar(lam, k, r)
    bound = scalar_bound(b, k, r)
    with mpmath.workdps(digits):
        const = b * mpmath.e ** (arith.chi(b, digits) + (r - 1))
    return make_certificate(k, psi, bound, const, digits)


def certify_scalar_sweep(lam: Fraction, k_max: int, r: int = 1) -> list[bool]:
    """Divisibility verdicts for every k = 1..k_max.

    psi_k grows by the row of n = k, so one O(k_max r) pass of the Taylor
    rows serves every k.
    """
    b = arith.denominator(lam)
    primes = arith.prime_factors(b)
    psi = 1
    d_k = 1
    verdicts = []
    for k, row in enumerate(_taylor_rows(lam, k_max, r)):
        for v in row:
            psi = lcm(psi, v.denominator)
        if k == 0:
            continue
        d_k = lcm(d_k, k)
        ppp = 1
        for p in primes:
            ppp *= p ** arith.tau_p(p, k)
        bound = b**k * d_k ** (r - 1) * ppp
        verdicts.append(bound % psi == 0)
    return verdicts
