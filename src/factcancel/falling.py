"""Scalar falling-factorial calculus.

<lambda>_n = lambda(lambda-1)...(lambda-n+1), the integer-valued binomial
polynomial Delta_n(lambda) = <lambda>_n / n!, its scaled derivatives
Delta_n^{(j)}(lambda)/j!, and exact per-k certificates: the measured common
denominator psi_k of all these values for n <= k divides
b^k d_k^{r-1} prod_{p|b} p^{tau_p(k)} with b = den(lambda).

pencil_steps is the one fraction-free recurrence behind every psi_k: it
carries N_n / D_n = (N_0 / D_0) prod_{i<n} (L0 - i L1) / (n! tau^n) for an
integer pencil.  delta_steps, the Delta_n table of an integer matrix, is its
constant case (L0, L1, tau) = (A, q E, q), used by the scalar, matrix and
constant-coefficient certificates; fuchs._scaled_qn builds the polynomial
pencil of T^n Q^[n] / n!.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from math import gcd, lcm
from typing import Iterator

from .certificate import CancellationCertificate, bound_steps, growth_constant, make_certificate


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


def delta_poly_coeffs(n: int) -> UniPoly:
    """Delta_n(x) as an exact polynomial in x (degree n).  Only the
    oracles use it, so poly is imported here, not by the scalar path."""
    from .poly import UniPoly

    p = UniPoly.one()
    for i in range(n):
        p = p * UniPoly((Fraction(-i, i + 1), Fraction(1, i + 1)))
    return p


def pencil_steps(
    cols: list, tau: int, k: int, N: list[list[int]], D: int = 1, grow: int = 0
) -> Iterator[tuple[list[list[int]], int]]:
    """Yield (N_n, D_n) for n = 0, 1, ..., k with
    N_n / D_n = (N_0 / D_0) prod_{i<n} (L0 - i L1) / (n! tau^n)
    for the integer pencil L0 - s L1, integer row vectors N_0 and tau >= 1.

    cols[j] lists the nonzero triples (i, L0[i][j], L1[i][j]) of column j.
    The step N <- N (L0 - (n-1) L1), D <- D n tau is followed by division of
    both by g = gcd(D, content(N)) (the common-denominator idea of Bareiss'
    fraction-free elimination), so D_n is exactly the lcm of the entry
    denominators of N_n / D_n.  Rows are kept len(cols) long, and step n
    computes only their first len(N_0[0]) + n grow slots: the caller
    promises that the other slots stay zero.  A step costs one product per
    triple of a computed column and per row.
    """
    live = len(N[0])
    N = [row + [0] * (len(cols) - live) for row in N]
    yield N, D
    for n in range(1, k + 1):
        s = n - 1
        live += grow
        computed, tail = cols[:live], [0] * (len(cols) - live)
        N = [[sum(row[i] * (a - s * b) for i, a, b in col) for col in computed] + tail for row in N]
        D *= n * tau
        g = gcd(D, *chain.from_iterable(N))
        if g > 1:
            N = [[x // g for x in row] for row in N]
            D //= g
        yield N, D


def delta_steps(
    A: list[list[int]], q: int, k: int
) -> Iterator[tuple[list[list[int]], int]]:
    """Yield (N_n, D_n) with Delta_n(A/q) = N_n / D_n for n = 0, 1, ..., k:
    pencil_steps on (L0, L1, tau) = (A, q E, q), from Delta_0 = E.  A is a
    square integer matrix (list of rows) and q >= 1; a step costs
    O(m (nnz(A) + m)) integer operations for an m x m matrix."""
    m = len(A)
    cols = [
        [(i, A[i][j], q * (i == j)) for i in range(m) if A[i][j] or i == j]
        for j in range(m)
    ]
    return pencil_steps(cols, q, k, [[int(i == j) for j in range(m)] for i in range(m)])


def _jordan_steps(lam: Fraction, k: int, r: int):
    """delta_steps on the integer form of J_r(lam): Delta_n(J_r(lam)) is the
    upper-triangular Toeplitz matrix of Delta_n^{(j)}(lam)/j!, j < r."""
    if r < 1:
        raise ValueError("r must be >= 1")
    p, q = lam.numerator, lam.denominator
    J = [[p if j == i else q if j == i + 1 else 0 for j in range(r)] for i in range(r)]
    return delta_steps(J, q, k)


def delta_derivatives(lam: Fraction, n: int, r: int) -> list[Fraction]:
    """The values Delta_n^{(j)}(lambda)/j! for j = 0..r-1: the first row of
    Delta_n(J_r(lambda)); no full polynomial expansion is needed."""
    for N, D in _jordan_steps(lam, n, r):
        pass
    return [Fraction(x, D) for x in N[0]]


def delta_derivatives_via_shift(lam: Fraction, n: int, r: int) -> list[Fraction]:
    """Independent oracle: expand Delta_n(x) and Taylor-shift it to lambda."""
    shifted = delta_poly_coeffs(n).taylor_shift(lam)
    return [shifted[j] for j in range(r)]


def psi_scalar(lam: Fraction, k: int, r: int = 1) -> int:
    """Measured lcm of the denominators of Delta_n^{(j)}(lam)/j!,
    j < r, n <= k, from one delta_steps pass over J_r(lam)."""
    out = 1
    for _, D in _jordan_steps(lam, k, r):
        out = lcm(out, D)
    return out


def certify_scalar(lam: Fraction, k: int, r: int = 1) -> CancellationCertificate:
    """Exact certificate: psi_k | b^k d_k^{r-1} prod p^{tau_p(k)}."""
    if k < 1 or r < 1:
        raise ValueError("k and r must be >= 1")
    b = lam.denominator
    psi = psi_scalar(lam, k, r)
    for bound in bound_steps(b, k, d_exp=r - 1):
        pass
    const = growth_constant(1, b, r - 1)
    return make_certificate(k, psi, bound, const)


def certify_scalar_sweep(lam: Fraction, k_max: int, r: int = 1) -> list[bool]:
    """Divisibility verdicts for every k = 1..k_max.

    psi_k grows by the denominator of Delta_k(J_r(lam)), and bound_steps
    grows the bound alongside, so one pass serves every k.
    """
    steps = _jordan_steps(lam, k_max, r)
    _, psi = next(steps)  # Delta_0 = I, so psi starts at 1
    verdicts = []
    for (_, D), bound in zip(steps, bound_steps(lam.denominator, k_max, d_exp=r - 1)):
        psi = lcm(psi, D)
        verdicts.append(bound % psi == 0)
    return verdicts
