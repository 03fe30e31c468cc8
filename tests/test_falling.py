import time
from fractions import Fraction
from math import comb, factorial, gcd, lcm

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from factcancel import checks, falling
from factcancel.certificate import CancellationCertificate

rats = st.fractions(min_value=-30, max_value=30, max_denominator=12)


@given(rats, st.integers(0, 15))
def test_falling_vs_delta(lam, n):
    assert checks.delta(lam, n) == checks.falling(lam, n) / factorial(n)


@given(st.integers(0, 40), st.integers(0, 12))
def test_delta_is_binomial_on_integers(a, n):
    # Delta_n(a) = C(a, n) for integer a >= 0
    assert checks.delta(Fraction(a), n) == comb(a, n)


@given(rats, st.integers(1, 12))
def test_pascal_recurrence(lam, n):
    # Delta_n(x) - Delta_n(x-1) = Delta_{n-1}(x-1)
    assert checks.delta(lam, n) - checks.delta(lam - 1, n) == checks.delta(
        lam - 1, n - 1
    )


@given(rats, st.integers(0, 10), st.integers(1, 4))
def test_delta_derivatives_match_shift_oracle(lam, n, r):
    assert falling.delta_derivatives(lam, n, r) == falling.delta_derivatives_via_shift(
        lam, n, r
    )


@given(rats, st.integers(0, 12))
def test_delta_derivatives_order_one_is_delta(lam, n):
    assert falling.delta_derivatives(lam, n, 1) == [checks.delta(lam, n)]


@st.composite
def _pencils(draw):
    m = draw(st.integers(1, 4))
    entry = st.integers(-9, 9)
    if draw(st.booleans()):  # sparse: about two entries in three are zero
        entry = entry.map(lambda x: x if abs(x) > 6 else 0)
    row = st.lists(entry, min_size=m, max_size=m)
    L0 = draw(st.lists(row, min_size=m, max_size=m))
    L1 = draw(st.lists(row, min_size=m, max_size=m))
    if draw(st.booleans()):  # upper triangular: the kernel strips by n tau det
        for i in range(m):
            L0[i][:i] = L1[i][:i] = [0] * i
            # a diagonal (b s, b) makes det 0 at step s + 1, or at every step if b = 0
            if draw(st.booleans()):
                b = draw(st.integers(-3, 3))
                L0[i][i], L1[i][i] = b * draw(st.integers(0, 10)), b
    # N_0 rows may be all zero or shorter than the pencil (zero-padded)
    n0_row = st.integers(0, m).flatmap(lambda w: st.lists(entry, min_size=w, max_size=w))
    N0 = draw(st.lists(st.one_of(n0_row, st.just([0] * m)), min_size=1, max_size=3))
    # a common factor c: N_0 / D_0 need not be in lowest terms
    c = draw(st.integers(1, 6))
    N0 = [[c * x for x in row] for row in N0]
    return L0, L1, draw(st.integers(1, 12)), N0, c * draw(st.integers(1, 12))


@settings(max_examples=120, deadline=None)
# not triangular: the product of the diagonal, 0 at no step, is not det
@example(([[1, 2], [1, -1]], [[2, 1], [1, 2]], 2, [[1, 0]], 1), 6)
# two N_0 rows nonzero in the same slots, and an off-diagonal L1 entry (the
# t' v term of a Fuchsian pencil): each row scatters from the same pencil row
@example(([[3, 2, 0], [0, 1, 5], [0, 0, 2]], [[1, 4, 0], [0, 1, 1], [0, 0, 1]], 3,
          [[2, 1, 0], [6, -1, 4]], 2), 8)
@given(_pencils(), st.integers(0, 10))
def test_pencil_steps_matches_fraction_product(pencil, k):
    # N_n/D_n = (N_0/D_0) prod_{i<n} (L0 - i L1) / (n! tau^n), in lowest terms
    L0, L1, tau, N0, D0 = pencil
    m = len(L0)
    rows = [[(j, L0[i][j], L1[i][j]) for j in range(m) if L0[i][j] or L1[i][j]] for i in range(m)]
    want = [[Fraction(x, D0) for x in row] + [Fraction(0)] * (m - len(row)) for row in N0]
    for n, (N, D) in enumerate(falling.pencil_steps(rows, tau, k, N0, D0)):
        if n:
            step = [[Fraction(L0[i][j] - (n - 1) * L1[i][j], n * tau) for j in range(m)] for i in range(m)]
            want = [[sum(row[i] * step[i][j] for i in range(m)) for j in range(m)] for row in want]
            assert gcd(D, *(x for row in N for x in row)) == 1
        assert [[Fraction(x, D) for x in row] for row in N] == want


@settings(max_examples=60, deadline=None)
@given(
    st.fractions(min_value=-30, max_value=30, max_denominator=30),
    st.integers(1, 5),
    st.integers(0, 40),
)
def test_jordan_row_matches_full_delta_table(lam, r, k):
    # Delta_n(J_r(lam)) is upper-triangular Toeplitz: row 0 carries the
    # same D_n as the full table, and is that table's row 0
    p, q = lam.numerator, lam.denominator
    J = [[p if j == i else q if j == i + 1 else 0 for j in range(r)] for i in range(r)]
    full = falling.delta_steps(J, q, k)
    for (N, D), (N_full, D_full) in zip(falling._jordan_steps(lam, k, r), full, strict=True):
        assert D == D_full
        assert N == [N_full[0]]


def test_delta_poly_coeffs_evaluates():
    p = falling.delta_poly_coeffs(4)
    for x in (Fraction(1, 2), Fraction(7), Fraction(-2, 3)):
        assert p.evaluate(x) == checks.delta(x, 4)


@pytest.mark.parametrize(
    "lam",
    [Fraction(1, 2), Fraction(2, 3), Fraction(-7, 10), Fraction(5, 6)],
)
def test_certify_scalar_divides(lam):
    cert = falling.certify_scalar(lam, 60)
    assert cert.divides
    assert cert.bound_k == lam.denominator**60 * checks.prime_power_product(lam.denominator, 60)


def test_integer_lambda_unit_denominator():
    cert = falling.certify_scalar(Fraction(3), 10)
    assert cert.psi_k == 1
    assert cert.divides


def test_half_saturates_bound():
    # lambda = 1/2: psi_k equals the bound exactly (2-adic saturation)
    cert = falling.certify_scalar(Fraction(1, 2), 40)
    assert cert.psi_k == cert.bound_k


@pytest.mark.parametrize("r", [2, 3, 4])
def test_certify_scalar_derivatives(r):
    cert = falling.certify_scalar(Fraction(-7, 10), 30, r)
    assert cert.divides


def test_certify_scalar_sweep_consistent():
    K = 30
    for lam, r in [(Fraction(5, 6), 2), (Fraction(1, 2), 1), (Fraction(-7, 10), 3), (Fraction(3), 2)]:
        sweep = falling.certify_scalar_sweep(lam, K, r)
        assert len(sweep) == K
        assert all(sweep)
        for k in range(1, K + 1):
            assert sweep[k - 1] == falling.certify_scalar(lam, k, r).divides, (lam, r, k)


@settings(max_examples=40, deadline=None)
@given(
    st.fractions(min_value=-50, max_value=50, max_denominator=10**6),
    st.integers(1, 80),
    st.integers(1, 3),
)
def test_certify_scalar_sweep_matches_factored_bound(lam, k_max, r):
    # reference: the bound over every prime factor of b, psi measured afresh
    b = lam.denominator
    want = []
    for k in range(1, k_max + 1):
        ppp = 1
        for p in checks.prime_divisors(b):
            ppp *= p ** checks.tau_p(p, k)
        bound = b**k * checks.lcm_upto(k) ** (r - 1) * ppp
        want.append(bound % falling.psi_scalar(lam, k, r) == 0)
    assert falling.certify_scalar_sweep(lam, k_max, r) == want


def test_certify_scalar_sweep_does_not_factor_b():
    # b = (10^15 + 37)(10^15 + 91): both primes lie past any trial division,
    # so the bound must come without them
    lam = Fraction(1, 1000000000000128000000000003367)
    start = time.perf_counter()
    assert falling.certify_scalar_sweep(lam, 5) == [True] * 5
    assert time.perf_counter() - start < 1.0


@settings(max_examples=60, deadline=None)
@given(rats, st.integers(0, 20), st.integers(1, 4))
def test_psi_scalar_matches_shift_oracle(lam, k, r):
    want = 1
    for n in range(k + 1):
        for v in falling.delta_derivatives_via_shift(lam, n, r):
            want = lcm(want, v.denominator)
    assert falling.psi_scalar(lam, k, r) == want


def test_certificate_json_roundtrip():
    cert = falling.certify_scalar(Fraction(1, 2), 12, 2)
    back = CancellationCertificate.from_json(cert.to_json())
    assert back.psi_k == cert.psi_k
    assert back.bound_k == cert.bound_k
    assert back.divides == cert.divides


def test_invalid_args():
    with pytest.raises(ValueError):
        falling.certify_scalar(Fraction(1, 2), 0)
    with pytest.raises(ValueError):
        falling.delta_derivatives(Fraction(1, 2), 3, 0)
