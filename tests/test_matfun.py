import random
from fractions import Fraction
from math import comb, factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from factcancel import catalog, falling, matfun
from factcancel.errors import (
    DimensionMismatch,
    IrrationalSpectrum,
    NotCommuting,
    SingularT,
)
from factcancel.matfun import (
    MatQ,
    bracket,
    bracket_commuting_identity,
    bracket_sum_identity,
    bracket_table,
    char_poly,
    commuting_check,
    conjugation_check,
    jordan_block_delta,
    matrix_delta,
    matrix_delta_table,
    matrix_falling,
    min_poly,
    rational_roots_monic,
    spectral,
)
from factcancel.poly import UniPoly

F = Fraction


def _rand_mat(n, seed, den=4):
    rng = random.Random(seed)
    return MatQ(
        [[F(rng.randint(-3, 3), rng.randint(1, den)) for _ in range(n)] for _ in range(n)]
    )


def test_matq_basic_algebra():
    A = MatQ([[1, 2], [3, 4]])
    B = MatQ([[0, 1], [1, 0]])
    assert A @ B == MatQ([[2, 1], [4, 3]])
    assert (A + B) - B == A
    assert A.transpose().transpose() == A
    assert A.trace() == 5
    assert A.shift(F(1)) == MatQ([[2, 2], [3, 5]])


def test_matq_inverse():
    A = MatQ([[1, 2], [3, 4]])
    assert A @ A.inverse() == MatQ.identity(2)
    with pytest.raises(SingularT):
        MatQ([[1, 2], [2, 4]]).inverse()


def test_matq_json_roundtrip():
    A = MatQ([[F(1, 2), F(-3)], [F(0), F(7, 5)]])
    assert MatQ.from_json(A.to_json()) == A


def test_char_poly_companion():
    # companion of z^2 - 5z + 6 has char poly z^2 - 5z + 6
    A = MatQ([[0, -6], [1, 5]])
    assert char_poly(A) == UniPoly((6, -5, 1))


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_cayley_hamilton(seed):
    A = _rand_mat(3, seed)
    p = char_poly(A)
    acc = MatQ.zero(3)
    power = MatQ.identity(3)
    for c in p.coeffs:
        acc = acc + power.scale(c)
        power = power @ A
    assert acc.is_zero()


def test_min_poly_divides_char_poly():
    A = catalog.IDEMPOTENT_HALF
    mp = min_poly(A)
    # idempotent-like: eigenvalues 0 and 1, min poly z(z-1)
    assert mp == UniPoly((0, -1, 1))
    cp = char_poly(A)
    q, r = cp.divmod(mp)
    assert r.is_zero()


def test_rational_roots_monic():
    p = UniPoly.from_roots([F(1, 2), F(1, 2), F(-3)])
    roots, rest = rational_roots_monic(p)
    assert roots == {F(1, 2): 2, F(-3): 1}
    assert rest.degree == 0


def test_rational_roots_leaves_irrational_factor():
    p = UniPoly((-2, 0, 1))  # z^2 - 2
    roots, rest = rational_roots_monic(p)
    assert roots == {}
    assert rest == p


@pytest.mark.parametrize("i", range(len(catalog.matrix_catalog())))
def test_spectral_reconstructs(i):
    A = catalog.matrix_catalog()[i]
    data = spectral(A)
    J = data.jordan_form()
    assert data.jordan_T @ J @ data.jordan_T_inv == A
    assert sum(sum(s) for s in data.block_sizes) == A.size


def test_spectral_idempotent_constants():
    data = spectral(catalog.IDEMPOTENT_HALF)
    assert set(data.eigenvalues) == {F(0), F(1)}
    assert data.b == 1
    assert data.t1 * data.t2 == 2
    assert data.r_max == 1


def test_irrational_spectrum_raises():
    rot = MatQ([[0, -1], [1, 0]])
    with pytest.raises(IrrationalSpectrum):
        spectral(rot)


@given(st.integers(2, 4), st.integers(0, 8))
def test_jordan_block_delta_toeplitz(size, n):
    lam = F(1, 3)
    J = MatQ.jordan_block(lam, size)
    direct = matrix_delta(J, n)
    toeplitz = jordan_block_delta(lam, size, n)
    assert direct == toeplitz
    taylor = falling.delta_derivatives(lam, n, size)
    for i in range(size):
        for j in range(size):
            want = taylor[j - i] if j >= i else F(0)
            assert direct[i, j] == want


@pytest.mark.parametrize("seed", [5, 6])
def test_conjugation_invariance(seed):
    A = _rand_mat(2, seed)
    U = catalog.unimodular(2, random.Random(seed))
    assert conjugation_check(A, U, 6)


def test_matrix_falling_scalar_consistency():
    # diagonal matrix: matrix falling factorial acts entrywise
    D = MatQ.diagonal([F(1, 2), F(-2, 3)])
    M = matrix_falling(D, 5)
    assert M[0, 0] == falling.falling(F(1, 2), 5)
    assert M[1, 1] == falling.falling(F(-2, 3), 5)


def test_matrix_delta_table_incremental():
    A = catalog.matrix_catalog()[3]
    tab = matrix_delta_table(A, 6)
    assert len(tab) == 7
    for n, M in enumerate(tab):
        assert M == matrix_delta(A, n)


int_mats = st.integers(1, 4).flatmap(
    lambda m: st.lists(
        st.lists(st.integers(-20, 20), min_size=m, max_size=m), min_size=m, max_size=m
    )
)


@settings(max_examples=80, deadline=None)
@given(int_mats, st.integers(1, 12))
def test_delta_steps_matches_fraction_table(A, q):
    # the fraction-free kernel against the exact-rational reference: same
    # Delta_n(A/q), and D_n is exactly the lcm of its entry denominators
    ref = matrix_delta_table(MatQ(A).scale(F(1, q)), 12)
    steps = list(falling.delta_steps(A, q, 12))
    assert len(steps) == len(ref)
    for (N, D), M in zip(steps, ref):
        assert D == M.entry_denominator()
        assert MatQ([[F(x, D) for x in row] for row in N]) == M


@pytest.mark.parametrize("i", range(len(catalog.matrix_catalog())))
def test_certify_matrix_divides(i):
    A = catalog.matrix_catalog()[i]
    cert = matfun.certify_matrix(A, 25)
    assert cert.divides


def test_certify_matrix_idempotent_psi():
    for k in (1, 5, 20):
        cert = matfun.certify_matrix(catalog.IDEMPOTENT_HALF, k)
        assert cert.psi_k == 2
        assert cert.divides


# bracket machinery


def test_bracket_base_cases():
    A, B = _rand_mat(2, 11), _rand_mat(2, 12)
    assert bracket([A, B], (0, 0)) == MatQ.identity(2)
    assert bracket([A, B], (1, 0)) == A
    assert bracket([A, B], (0, 1)) == B


def test_bracket_recursion_11():
    A, B = _rand_mat(2, 11), _rand_mat(2, 12)
    # <A,B>_{1,1} = A<A,B>_{0,1} + B<A,B>_{1,0} = AB + BA
    assert bracket([A, B], (1, 1)) == A @ B + B @ A


def test_bracket_single_is_falling():
    A = _rand_mat(3, 13)
    for n in range(5):
        assert bracket([A], (n,)) == matrix_falling(A, n)


@pytest.mark.parametrize("seed", [21, 22, 23])
def test_bracket_sum_identity(seed):
    mats = [_rand_mat(2, seed), _rand_mat(2, seed + 100), _rand_mat(2, seed + 200)]
    assert bracket_sum_identity(mats, 5)


def test_bracket_permutation_symmetry():
    A, B = _rand_mat(2, 31), _rand_mat(2, 32)
    tab = bracket_table([A, B], 5)
    tab_swapped = bracket_table([B, A], 5)
    for (n1, n2), M in tab.items():
        assert tab_swapped[(n2, n1)] == M


def test_bracket_commuting_collapse():
    A = MatQ.diagonal([F(1, 2), F(1, 3)])
    B = MatQ.diagonal([F(2), F(-1, 4)])
    assert commuting_check([A, B])
    for n1 in range(4):
        for n2 in range(4):
            assert bracket_commuting_identity([A, B], (n1, n2))


def test_bracket_noncommuting_raises():
    A, B = _rand_mat(2, 41), _rand_mat(2, 42)
    assert not commuting_check([A, B])
    with pytest.raises(NotCommuting):
        bracket_commuting_identity([A, B], (1, 1))


def test_bracket_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        bracket([_rand_mat(2, 1), _rand_mat(3, 2)], (1, 1))
