"""The paper's identities and lemmas, checked exactly, and the `verify` suites.

Only `verify` and the tests import this module; `certify` and `hyper` never
load it, so the family modules hold only their production paths.  Here are
identities (14), (16) and (24), the bracket, projector and partial-fraction
identities, Lemmas 17 and 19, the Wronskian, and the references the tests
compare production code with (min_poly, jordan_form, chi, tau_p, lcm_upto,
prime_power_product, g_k_exponent, g_class_phi).  The oracles the benchmark
imports by module (g_k_by_enumeration, delta_derivatives_via_shift,
qn_via_brackets, lemma17_rhs, ...) stay in their family modules.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import compress
from math import comb, factorial, lcm

from . import arith, catalog, constcoef, fuchs, hyper
from .errors import DimensionMismatch, NotCommuting, NotPrime
from .falling import certify_scalar, delta_derivatives
from .fuchs import FuchsianSystem, PolyMat, _polymat, _scaled_qn
from .matfun import MatQ, SpectralData, _check_same_size, _compositions, bracket_table
from .matfun import certify_matrix, commuting_check, matrix_delta_table
from .poly import MultiPoly, UniPoly

# ---------------------------------------------------------------------------
# arith: the bound's factors, chi and the g_k exponent


def primes_upto(n: int) -> list[int]:
    """All primes <= n, read off arith's sieve by itertools.compress."""
    return list(compress(range(n + 1), arith._sieve(n)))


def tau_p(p: int, k: int) -> int:
    """Legendre sum: the exponent of the prime p in k!.

    tau_p(k) = floor(k/p) + floor(k/p^2) + ...  <= k/(p-1).
    """
    if not arith.is_prime(p):
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
    certificate.bound_steps builds incrementally.
    """
    if b < 1 or k < 0:
        raise ValueError("need b >= 1 and k >= 0")
    out = 1
    for p in primes_upto(min(b, k)):
        if b % p == 0:
            out *= p ** tau_p(p, k)
    return out


def chi(b: int, digits: int = arith.DEFAULT_DIGITS):
    """chi(b) = sum over primes p | b of ln(p)/(p-1), an mpmath real: the
    oracle for certificate.growth_constant and theorem6's C0."""
    import mpmath

    with mpmath.workdps(digits):
        return +mpmath.fsum(mpmath.log(p) / (p - 1) for p in arith.prime_factors(b))


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
    the addition k0 + k1 + k2, each carry c in {0, 1, 2}; arith._most_carries
    takes the most of them in O(log_p k), with no table and no cache.
    """
    if not arith.is_prime(p):
        raise NotPrime(f"{p} is not prime")
    if k < 0:
        raise ValueError("k must be >= 0")
    return arith._most_carries(p, k)


# ---------------------------------------------------------------------------
# falling factorials and polynomials


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


def differentiate_scaled(f: UniPoly, n: int) -> UniPoly:
    """(1/n!) d^n f / dz^n, via (1/n!)(d/dz)^n z^d = C(d, n) z^{d-n} so that
    integral polynomials stay integral."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if n == 0:
        return f
    return UniPoly([comb(d, n) * f[d] for d in range(n, f.degree + 1)])


# ---------------------------------------------------------------------------
# matrices: minimal polynomial, Jordan form, falling factorials, brackets


def rref(rows: list[list[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form (copy) and pivot column indices."""
    m = [list(r) for r in rows]
    nr, nc = len(m), (len(m[0]) if m else 0)
    pivots = []
    r = 0
    for c in range(nc):
        piv = next((i for i in range(r, nr) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        f = m[r][c]
        m[r] = [x / f for x in m[r]]
        for i in range(nr):
            if i != r and m[i][c]:
                g = m[i][c]
                m[i] = [x - g * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == nr:
            break
    return m[:r], pivots


def min_poly(A: MatQ) -> UniPoly:
    """Monic minimal polynomial, found as the first linear dependence among
    E, A, A^2, ... in the n^2-dimensional matrix space.  Kept independent of
    matfun.spectral, as the oracle for its eigenvalues and minpoly_mults:
    the minimal polynomial is prod (x - lambda)^(r_lambda)."""
    n = A.size
    powers = [MatQ.identity(n)]
    vecs = [[x for r in powers[0].rows for x in r]]
    for d in range(1, n + 1):
        powers.append(powers[-1] @ A)
        vecs.append([x for r in powers[-1].rows for x in r])
        # solve sum_{i<d} c_i vec(A^i) = -vec(A^d)
        nc = n * n
        aug = [[vecs[i][j] for i in range(d)] + [-vecs[d][j]] for j in range(nc)]
        rows, pivots = rref(aug)
        if d not in pivots:  # consistent system
            sol = [Fraction(0)] * d
            for row, p in zip(rows, pivots):
                sol[p] = row[d]
            return UniPoly(sol + [1])
    raise AssertionError("unreachable: Cayley-Hamilton bounds the degree")


def jordan_form(data: SpectralData) -> MatQ:
    """The Jordan matrix J of data, with jordan_T J jordan_T_inv = A."""
    n = data.jordan_T.size
    J = [[0] * n for _ in range(n)]
    pos = 0
    for lam, sizes in zip(data.eigenvalues, data.block_sizes):
        for h in sizes:
            for i in range(h):
                J[pos + i][pos + i] = lam
                if i + 1 < h:
                    J[pos + i][pos + i + 1] = 1
            pos += h
    return MatQ(J)


def matrix_falling(A: MatQ, n: int) -> MatQ:
    """<A>_n = A(A-E)...(A-(n-1)E); E for n = 0."""
    out = MatQ.identity(A.size)
    for i in range(n):
        out = out @ A.shift(-i)
    return out


def jordan_block_delta(lam: Fraction, size: int, n: int) -> MatQ:
    """Delta_n of a Jordan block: upper-triangular Toeplitz with entries
    Delta_n^{(j)}(lam)/j! on the j-th superdiagonal."""
    if size < 1:
        raise ValueError("size must be >= 1")
    d = delta_derivatives(lam, n, size)
    return MatQ(
        [[d[j - i] if j >= i else 0 for j in range(size)] for i in range(size)]
    )


def conjugation_check(A: MatQ, T: MatQ, n: int) -> bool:
    """Exact check of Delta_n(T A T^{-1}) == T Delta_n(A) T^{-1}."""
    T_inv = T.inverse()
    lhs = matrix_delta_table(T @ A @ T_inv, n)[n]
    rhs = T @ matrix_delta_table(A, n)[n] @ T_inv
    return lhs == rhs


def bracket(mats: list[MatQ], n_index: tuple) -> MatQ:
    """<A_1, ..., A_s>_n via the simplex recursion (memoized per call)."""
    n_index = tuple(n_index)
    if len(n_index) != len(mats):
        raise DimensionMismatch("index arity must match the matrix count")
    size = _check_same_size(mats)
    if any(c < 0 for c in n_index):
        return MatQ.zero(size)
    return bracket_table(mats, sum(n_index))[n_index]


def bracket_sum_identity(mats: list[MatQ], k: int) -> bool:
    """<A_1 + ... + A_s>_k == sum over |n| = k of <A_1..A_s>_n, exactly."""
    size = _check_same_size(mats)
    total = MatQ.zero(size)
    for M in mats:
        total = total + M
    table = bracket_table(mats, k)
    rhs = MatQ.zero(size)
    for idx in _compositions(k, len(mats)):
        rhs = rhs + table[idx]
    return matrix_falling(total, k) == rhs


def bracket_commuting_identity(mats: list[MatQ], n_index: tuple) -> bool:
    """For pairwise commuting matrices the bracket collapses to the
    multinomial coefficient times the product of <A_i>_{n_i}."""
    if not commuting_check(mats):
        raise NotCommuting("matrices must pairwise commute")
    n_index = tuple(n_index)
    size = _check_same_size(mats)
    lhs = bracket(mats, n_index)
    coeff = 1
    rem = sum(n_index)
    for ni in n_index:
        coeff *= comb(rem, ni)
        rem -= ni
    rhs = MatQ.identity(size)
    for M, ni in zip(mats, n_index):
        rhs = rhs @ matrix_falling(M, ni)
    return lhs == rhs.scale(coeff)


# ---------------------------------------------------------------------------
# Fuchsian operator identities (14), (16), (24)


def _flat(R: PolyMat) -> tuple[list, int]:
    """The start (N_0, D_0) of fuchs._scaled_qn with R = N_0 / D_0, the
    inverse of fuchs._polymat: N_0[r][d m + j] is D_0 times the z^d
    coefficient of entry (r, j)."""
    D = R.coeff_denominator()
    width = max([1] + [len(e.coeffs) for row in R.rows for e in row])
    return [[int(e[d] * D) for d in range(width) for e in row] for row in R.rows], D


def operator_identity_14(lam: Fraction, f: UniPoly, n: int) -> bool:
    """Single pole at 0: z^n (d/dz + lam/z)^n f equals
    sum_l C(n,l) <lam>_l z^{n-l} f^{(n-l)}, exactly."""
    system = FuchsianSystem(m=1, gammas=(Fraction(0),), residues=(MatQ([[lam]]),))
    for N, D in _scaled_qn(system, n, _flat(PolyMat([[f]]))):
        pass
    G = _polymat(N, D, factorial(n))[0, 0]
    rhs = UniPoly.zero()
    fall = Fraction(1)
    for l in range(n + 1):
        if l:
            fall *= lam - (l - 1)
        deriv = f
        for _ in range(n - l):
            deriv = deriv.derivative()
        rhs = rhs + (UniPoly.monomial(1, n - l) * deriv).scale(comb(n, l) * fall)
    return G == rhs


def operator_identity_16(lams, gammas, f: UniPoly, n: int) -> bool:
    """Commuting scalar multi-pole case: T^n D^n f / n! equals the multinomial
    sum of prod (z-gamma_i)^{n-n_i} Delta_{n_i}(lam_i) f^{(n_0)}/n_0!."""
    s = len(lams)
    system = FuchsianSystem(
        m=1, gammas=tuple(gammas), residues=tuple(MatQ([[lam]]) for lam in lams)
    )
    for N, D in _scaled_qn(system, n, _flat(PolyMat([[f]]))):
        pass
    G = _polymat(N, D)[0, 0]
    rhs = UniPoly.zero()
    for idx in _compositions(n, s + 1):
        n0, rest = idx[0], idx[1:]
        term = differentiate_scaled(f, n0)
        coeff = Fraction(1)
        for lam, ni in zip(lams, rest):
            coeff *= delta(lam, ni)
        if not coeff:
            continue
        for g, ni in zip(gammas, rest):
            term = term * UniPoly((-g, 1)) ** (n - ni)
        rhs = rhs + term.scale(coeff)
    return G == rhs


def operator_identity_24(system: FuchsianSystem, n: int) -> bool:
    """Commuting-residue matrix identity: T^n D^n / n! with
    D = d/dz + sum tA_i/(z-gamma_i) equals the multinomial sum of
    prod (z-gamma_i)^{n-n_i} Delta_{n_1}(tA_1)...Delta_{n_s}(tA_s)
    (1/n_0!) d^{n_0}/dz^{n_0}, checked on the basis z^d E, d <= 2n."""
    if not commuting_check(list(system.residues)):
        raise NotCommuting("the residue matrices must pairwise commute")
    s = system.npoles
    size = system.size
    tmats = [A.transpose() for A in system.residues]
    deltas = [matrix_delta_table(M, n) for M in tmats]
    for d in range(2 * n + 1):
        # lhs: T^n D^n (z^d E) / n! is the transpose of the row-acting run
        start = PolyMat.identity(size).scale_poly(UniPoly.monomial(1, d))
        for N, D in _scaled_qn(system, n, _flat(start)):
            pass
        G = _polymat(N, D).transpose()
        rhs = PolyMat([[UniPoly.zero()] * size for _ in range(size)])
        for idx in _compositions(n, s + 1):
            n0, rest = idx[0], idx[1:]
            if n0 > d:
                continue
            M = MatQ.identity(size)
            for i, ni in enumerate(rest):
                M = M @ deltas[i][ni]
            if M.is_zero():
                continue
            cof = UniPoly.monomial(comb(d, n0), d - n0)
            for g, ni in zip(system.gammas, rest):
                cof = cof * UniPoly((-g, 1)) ** (n - ni)
            rhs = rhs + PolyMat.from_matq(M).scale_poly(cof)
        if G != rhs:
            return False
    return True


# ---------------------------------------------------------------------------
# hypergeometric: projector, partial fractions, Phi, Wronskian


def projector_relations(forms: hyper.SpectralForms, n2: int) -> bool:
    """B2^2 = gamma B2 and <B2>_{n2} = <gamma-1>_{n2-1} B2, exactly."""
    if n2 < 1:
        raise ValueError("n2 must be >= 1")
    g = forms.gamma
    if forms.B2 @ forms.B2 != forms.B2.scale(g):
        return False
    return matrix_falling(forms.B2, n2) == forms.B2.scale(falling(g - 1, n2 - 1))


def partial_fraction_identity(n1: int, n2: int) -> bool:
    """1/(z^{n1+1}(1-z)^{n2+1}) as the two binomial partial-fraction sums,
    verified after clearing denominators."""
    z = UniPoly.x()
    one_minus = UniPoly((1, -1))
    rhs = UniPoly.zero()
    for j in range(n1 + 1):
        rhs = rhs + (z ** (n1 - j) * one_minus ** (n2 + 1)).scale(
            comb(n1 + n2 - j, n2)
        )
    for j in range(n2 + 1):
        rhs = rhs + (z ** (n1 + 1) * one_minus ** (n2 - j)).scale(
            comb(n1 + n2 - j, n1)
        )
    return rhs == UniPoly.one()


def g_class_phi(params: hyper.HyperParams, digits: int = arith.DEFAULT_DIGITS):
    """The G-class data of the series, with Phi = e^{rho(b_1) + ... +
    rho(b_m)} q1/b, b_j = den(beta_j), the midpoint of the enclosure that
    theorem6 decides with, at `digits` decimal digits."""
    return hyper._phi_enclosure(params, digits)[0]


def phi_empirical_check(params: hyper.HyperParams, k: int) -> bool:
    """Measured lcm of series-coefficient denominators divides the exact
    per-k product q1^k times, for each beta_j, the product of the numerators
    of beta_j + n over n = 1..k (the denominator of 1/prod(beta_j + n))."""
    phi_k = arith.common_denominator(hyper.series(params, k))
    target = 1
    for al in params.alpha:
        target *= al.denominator**k
    for be in params.beta:
        for n in range(1, k + 1):
            target *= abs((be + n).numerator)
    return target % phi_k == 0


@dataclass(frozen=True)
class WronskianReport:
    trace_ok: bool
    e0: Fraction
    e1: Fraction
    e0_alt: Fraction
    e1_alt: Fraction
    residual_zero: bool


def wronskian_checks(params: hyper.HyperParams) -> WronskianReport:
    """Trace of the homogeneous system equals (beta - z alpha)/(z(z-1)) with
    alpha = sigma_1(alpha), beta = sigma_1(beta), checked with the
    denominator z(z-1) cleared; the exponent pair (e0, e1)
    with z^{e0}(1-z)^{e1} solving the first-order Wronskian equation is
    derived by coefficient matching; (e0_alt, e1_alt) records the commonly
    quoted pair, which flips the sign of the exponent at z = 1."""
    sa, sb = hyper.vieta(params)
    al, be = sa[0], sb[0]
    # homogeneous residues: companion at 0, last-row matrix at 1
    system = hyper.build_system(params)
    m = params.m
    A0 = MatQ([[system.residues[0][i, j] for j in range(1, m + 1)] for i in range(1, m + 1)])
    A1 = MatQ([[system.residues[1][i, j] for j in range(1, m + 1)] for i in range(1, m + 1)])
    # tr A0/z + tr A1/(z-1) = (beta - z alpha)/(z(z-1)), times z(z-1)
    trace = UniPoly((-1, 1)).scale(A0.trace()) + UniPoly((0, 1)).scale(A1.trace())
    trace_ok = trace == UniPoly((be, -al))
    # delta log y + beta = z (delta log y + alpha) for y = z^e0 (1-z)^e1:
    # matching coefficients of (e0+beta)(1-z) - e1 z = z(e0+alpha)(1-z) - e1 z^2
    e0 = -be
    e1 = be - al
    lhs = UniPoly((e0 + be, -(e0 + be) - e1))
    rhs = UniPoly((0, e0 + al, -(e0 + al) - e1))
    return WronskianReport(
        trace_ok=trace_ok,
        e0=e0,
        e1=e1,
        e0_alt=-be,
        e1_alt=al - be,
        residual_zero=(lhs - rhs).is_zero(),
    )


# ---------------------------------------------------------------------------
# constant-coefficient operators: the integrality step and Lemma 19


def monomial_integrality_check(B: MatQ, s: int, degree_cap: int) -> bool:
    """For integral B, (1/s!) [B]^s (symbol power) maps every monomial of
    degree <= degree_cap into Z[y]."""
    if B.entry_denominator() != 1:
        raise ValueError("B must be integral")
    m = B.size
    if s == 0:
        return True
    op = constcoef.formal_product([constcoef.bracket_op(B)] * s)
    op = op.scale(Fraction(1, factorial(s)))
    for d in range(degree_cap + 1):
        for expo in _compositions(d, m):
            if not op.apply(MultiPoly.monomial(m, expo)).is_integral():
                return False
    return True


def lemma19_inequality(s, p: int) -> bool:
    """sum_i s_i tau_p(i) <= tau_p(sum_i i s_i), exactly."""
    if not arith.is_prime(p):
        raise NotPrime(f"{p} is not prime")
    lhs = sum(si * tau_p(p, i) for i, si in enumerate(s, start=1))
    n = sum(i * si for i, si in enumerate(s, start=1))
    return lhs <= tau_p(p, n)


# ---------------------------------------------------------------------------
# the verify suites: lists of (name, check) with check() -> bool


def identity_checks(seed: int):
    rng = random.Random(seed)
    cases = []
    polys = [
        UniPoly(tuple(rng.randint(-4, 4) for _ in range(rng.randint(2, 6))))
        for _ in range(5)
    ]
    for lam in catalog.SCALAR_LAMBDAS[:6]:
        for f in polys[:2]:
            for n in (1, 3, 6):
                cases.append(
                    ("eq14", lambda lam=lam, f=f, n=n: operator_identity_14(lam, f, n))
                )
    for lam1, lam2 in [(Fraction(1, 2), Fraction(1, 3)), (Fraction(-1, 4), Fraction(2, 5))]:
        cases.append(
            (
                "eq16",
                lambda a=lam1, b=lam2: operator_identity_16(
                    [a, b], [Fraction(0), Fraction(1)], polys[0], 4
                ),
            )
        )
    for system in catalog.fuchsian_catalog(seed)[:6]:
        for n in (1, 2, 4):
            cases.append(
                (
                    "bracket",
                    lambda s=system, n=n: fuchs.qn_via_brackets(s, n)
                    == fuchs.qn_recurrence(s, n),
                )
            )
    mats = [catalog.random_rational_matrix(2, rng) for _ in range(3)]
    cases.append(("bracket-sum", lambda: bracket_sum_identity(mats, 4)))
    for A in catalog.constcoef_catalog()[:4]:
        for n in (2, 3, 4):
            cases.append(
                (
                    "partition",
                    lambda A=A, n=n: constcoef.lemma17_rhs(A, n)
                    == constcoef.script_A_n(A, n).scale(
                        Fraction(1, factorial(n))
                    ),
                )
            )
    for params in catalog.HYPER_CATALOG:
        forms = hyper.adjoint_system(params)
        cases.append(("projector", lambda f=forms: projector_relations(f, 3)))
    for n1, n2 in [(0, 0), (2, 3), (4, 1)]:
        cases.append(
            ("partial-fraction", lambda a=n1, b=n2: partial_fraction_identity(a, b))
        )
    return cases


def divisibility_checks(seed: int):
    cases = []
    for lam in catalog.SCALAR_LAMBDAS[:8]:
        cases.append(
            ("scalar", lambda lam=lam: certify_scalar(lam, 60).divides)
        )
    for A in catalog.matrix_catalog()[:6]:
        cases.append(("matrix", lambda A=A: certify_matrix(A, 20).divides))
    for system in catalog.fuchsian_catalog(seed)[:4]:
        cases.append(
            (
                "fuchsian",
                lambda s=system: fuchs.certify_system(s, 8).divides in (True, None),
            )
        )
    for params in catalog.HYPER_CATALOG[:2]:
        cases.append(
            (
                "lemma11",
                lambda p=params: hyper.certify_lemma11(p, 10).inner.divides,
            )
        )
    for A in catalog.constcoef_catalog()[:4]:
        cases.append(
            ("theorem7", lambda A=A: constcoef.certify_constcoef(A, 10).divides)
        )
    return cases
