"""Scalar falling-factorial calculus.

<lambda>_n = lambda(lambda-1)...(lambda-n+1), the integer-valued binomial
polynomial Delta_n(lambda) = <lambda>_n / n!, its scaled derivatives
Delta_n^{(j)}(lambda)/j!, and exact per-k certificates: the measured common
denominator psi_k of all these values for n <= k divides
b^k d_k^{r-1} prod_{p|b} p^{tau_p(k)} with b = den(lambda).

pencil_steps is the one fraction-free recurrence behind every psi_k: it
carries N_n / D_n = (N_0 / D_0) prod_{i<n} (L0 - i L1) / (n! tau^n) for an
integer pencil given as rows of nonzero entries, scattering each nonzero
entry of N_n straight from its pencil row.  delta_steps, the Delta_n table
of an integer matrix, is its constant case (L0, L1, tau) = (A, q E, q),
used by the matrix and constant-coefficient certificates.  The scalar
certificates run the pencil of q J_r(lambda) on one row: Delta_n(J_r) is
upper-triangular Toeplitz, so row 0 holds every entry.  fuchs._scaled_qn
builds the polynomial pencil.
certify_scalar and certify_scalar_sweep hand that pencil's D_n stream to
the one certificate pass, certificate.certify and certificate_steps.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from math import gcd, lcm
from typing import Iterator

from .certificate import CancellationCertificate, certificate_steps, certify


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
    rows: list, tau: int, k: int, N: list[list[int]], D: int = 1
) -> Iterator[tuple[list[list[int]], int]]:
    """Yield (N_n, D_n) for n = 0, 1, ..., k with
    N_n / D_n = (N_0 / D_0) prod_{i<n} (L0 - i L1) / (n! tau^n)
    for the integer pencil L0 - s L1, integer row vectors N_0 and tau >= 1.

    rows[i] lists the nonzero triples (j, L0[i][j], L1[i][j]) of pencil row
    i; rows of N_0 are zero-padded to len(rows).  Step n scatters each
    nonzero x = N[r][i] straight from pencil row i, as
    N[r][j] += x (L0[i][j] - (n-1) L1[i][j]) (a table of each row's
    coefficients, formed once per step, costs more than it saves); then
    D <- D n tau, and both are divided by g = gcd(D, content(N)) (the
    common-denominator idea of Bareiss' fraction-free elimination), so D_n
    is exactly the lcm of the entry denominators of N_n / D_n.  k steps cost
    O(k len(N) sum_rows nnz) products, fewer while N_n has zero entries.

    When every row i lists only targets j >= i, det M = prod_i (L0[i][i] -
    s L1[i][i]) for M = L0 - s L1.  From step 2 on N_{n-1} / D_{n-1} is in
    lowest terms, so Cramer's rule, N_{n-1} det M = N_n adj M before the
    strip, shows that g divides n tau det M, and the strip runs
    gcd(n tau det M, *N, D), in which no gcd takes two large arguments.
    It keeps gcd(D, *N) when det M = 0, and when n tau det M reaches the
    size of D, as on wide triangular pencils (fuchs._scaled_qn with a pole
    at 0 and upper-triangular residues), where it would save nothing.
    """
    width = len(rows)
    N = [row + [0] * (width - len(row)) for row in N]
    diag = None
    if all(j >= i for i, row in enumerate(rows) for j, _, _ in row):
        diag = [next(((a, b) for j, a, b in row if j == i), (0, 0)) for i, row in enumerate(rows)]
    yield N, D
    for n in range(1, k + 1):
        s = n - 1
        scattered = [[0] * width for _ in N]
        for row, acc in zip(N, scattered):
            for x, pencil_row in zip(row, rows):
                if x:
                    for j, a, b in pencil_row:
                        acc[j] += x * (a - s * b)
        N = scattered
        D *= n * tau
        bound = 0
        if diag and n > 1:
            bound, bits = n * tau, D.bit_length()
            for a, b in diag:
                bound *= a - s * b
                if not bound or bound.bit_length() >= bits:
                    bound = 0
                    break
        g = gcd(bound or D, *chain.from_iterable(N), D)
        if g > 1:
            N = [[x // g for x in row] for row in N]
            D //= g
        yield N, D


def delta_steps(
    A: list[list[int]], q: int, k: int
) -> Iterator[tuple[list[list[int]], int]]:
    """Yield (N_n, D_n) with Delta_n(A/q) = N_n / D_n for n = 0, 1, ..., k:
    pencil_steps on (L0, L1, tau) = (A, q E, q), from Delta_0 = E.  A is a
    square integer matrix (list of rows) and q >= 1; pencil row i is row i
    of A plus q on the diagonal, so a step costs O(m (nnz(A) + m))."""
    m = len(A)
    rows = [
        [(j, A[i][j], q * (i == j)) for j in range(m) if A[i][j] or i == j]
        for i in range(m)
    ]
    return pencil_steps(rows, q, k, [[int(i == j) for j in range(m)] for i in range(m)])


def _jordan_steps(lam: Fraction, k: int, r: int):
    """pencil_steps on the integer form q J_r(lam), q = den(lam), from the
    single row e_0: Delta_n(J_r(lam)) is the upper-triangular Toeplitz
    matrix of Delta_n^{(j)}(lam)/j!, j < r, so its row 0 holds every entry
    and carries the same content and D_n as the full r x r table."""
    if r < 1:
        raise ValueError("r must be >= 1")
    p, q = lam.numerator, lam.denominator
    rows = [[(i, p, q), (i + 1, q, 0)] for i in range(r - 1)] + [[(r - 1, p, q)]]
    return pencil_steps(rows, q, k, [[1] + [0] * (r - 1)])


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
    j < r, n <= k, from one pencil pass over row 0 of J_r(lam)."""
    return lcm(*(D for _, D in _jordan_steps(lam, k, r)))


def certify_scalar(lam: Fraction, k: int, r: int = 1) -> CancellationCertificate:
    """Exact certificate: psi_k | b^k d_k^{r-1} prod p^{tau_p(k)}."""
    if k < 1 or r < 1:
        raise ValueError("k and r must be >= 1")
    dens = (D for _, D in _jordan_steps(lam, k, r))
    return certify(k, dens, lam.denominator, d_exp=r - 1, shift=r - 1)


def certify_scalar_sweep(lam: Fraction, k_max: int, r: int = 1) -> list[bool]:
    """Divisibility verdicts for every k = 1..k_max, from the same one pass
    as certify_scalar."""
    dens = (D for _, D in _jordan_steps(lam, k_max, r))
    steps = certificate_steps(dens, lam.denominator, k_max, d_exp=r - 1)
    return [bound % psi == 0 for psi, bound in steps]
