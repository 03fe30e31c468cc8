import random
from fractions import Fraction
from math import comb, factorial, gcd, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from factcancel import catalog, checks, falling, matfun
from factcancel.checks import (
    bracket,
    bracket_commuting_identity,
    bracket_sum_identity,
    conjugation_check,
    jordan_block_delta,
    matrix_falling,
    min_poly,
)
from factcancel.errors import (
    DimensionMismatch,
    IrrationalSpectrum,
    NotCommuting,
    SingularT,
)
from factcancel.matfun import (
    MatQ,
    bracket_table,
    char_poly,
    commuting_check,
    matrix_delta_table,
    rational_roots_monic,
    simultaneous_eigenbasis,
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
    J = checks.jordan_form(data)
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


# Oracles for the fraction-free spectral layer.  Everything on the test side
# is plain Fraction arithmetic: the conjugating matrix and its inverse come
# from elementary row operations, J and the reconstruction are built here,
# and the characteristic polynomial is a cofactor determinant.

_eigen = st.builds(F, st.integers(-12, 12), st.integers(1, 12))
_jordan_data = st.lists(st.tuples(_eigen, st.integers(1, 3)), min_size=1, max_size=4).filter(
    lambda blocks: sum(h for _, h in blocks) <= 4
)
_row_ops = st.lists(
    st.tuples(st.integers(0, 3), st.integers(0, 3), st.sampled_from([-2, -1, 1, 2])), max_size=12
)


def _fmul(X, Y):
    return [[sum(a * b for a, b in zip(row, col)) for col in zip(*Y)] for row in X]


def _jordan_matrix(blocks):
    n = sum(h for _, h in blocks)
    J = [[F(0)] * n for _ in range(n)]
    at = 0
    for lam, h in blocks:
        for i in range(h):
            J[at + i][at + i] = lam
            if i + 1 < h:
                J[at + i][at + i + 1] = F(1)
        at += h
    return J


def _cofactor_det(M):
    if len(M) == 1:
        return M[0][0]
    out = UniPoly.zero()
    for j, a in enumerate(M[0]):
        term = a * _cofactor_det([row[:j] + row[j + 1:] for row in M[1:]])
        out = out + term if j % 2 == 0 else out - term
    return out


@settings(max_examples=120, deadline=None)
@given(_jordan_data, _row_ops)
def test_spectral_recovers_conjugated_jordan_data(blocks, ops):
    n = sum(h for _, h in blocks)
    U = [[F(int(i == j)) for j in range(n)] for i in range(n)]
    U_inv = [row[:] for row in U]
    for i, j, c in ops:
        i, j = i % n, j % n
        if i == j:
            continue
        U[i] = [a + c * b for a, b in zip(U[i], U[j])]  # U <- E_ij(c) U
        for row in U_inv:  # U^-1 <- U^-1 E_ij(-c)
            row[j] -= c * row[i]
    A = MatQ(_fmul(_fmul(U, _jordan_matrix(blocks)), U_inv))
    data = spectral(A)

    want: dict = {}
    for lam, h in blocks:
        want.setdefault(lam, []).append(h)
    assert data.eigenvalues == tuple(sorted(want))
    assert data.block_sizes == tuple(tuple(sorted(want[lam], reverse=True)) for lam in sorted(want))
    assert data.minpoly_mults == tuple(max(want[lam]) for lam in sorted(want))

    J = _jordan_matrix(
        [(lam, h) for lam, hs in zip(data.eigenvalues, data.block_sizes) for h in hs]
    )
    T = [list(r) for r in data.jordan_T.rows]
    T_inv = [list(r) for r in data.jordan_T_inv.rows]
    assert _fmul(T, T_inv) == [[F(int(i == j)) for j in range(n)] for i in range(n)]
    assert MatQ(_fmul(_fmul(T, J), T_inv)) == A
    assert data.t2 == data.jordan_T_inv.entry_denominator()
    lams = data.eigenvalues
    assert min_poly(A) == UniPoly.from_roots(
        [lam for lam, r in zip(lams, data.minpoly_mults) for _ in range(r)]
    )
    assert char_poly(A) == UniPoly.from_roots(
        [lam for lam, hs in zip(lams, data.block_sizes) for _ in range(sum(hs))]
    )


@settings(max_examples=120, deadline=None)
@given(
    st.integers(1, 4).flatmap(
        lambda m: st.lists(st.lists(_eigen, min_size=m, max_size=m), min_size=m, max_size=m)
    )
)
def test_char_poly_and_inverse_match_cofactor_determinant(rows):
    n = len(rows)
    xE_minus_A = [
        [UniPoly((-a, 1)) if i == j else UniPoly((-a,)) for j, a in enumerate(row)]
        for i, row in enumerate(rows)
    ]
    cp = _cofactor_det(xE_minus_A)
    assert char_poly(MatQ(rows)) == cp
    if cp[0] == 0:  # det A = (-1)^n cp(0)
        with pytest.raises(SingularT):
            MatQ(rows).inverse()
    else:
        inv = [list(r) for r in MatQ(rows).inverse().rows]
        assert _fmul(rows, inv) == [[F(int(i == j)) for j in range(n)] for i in range(n)]


def _roots_by_enumeration(p):
    """Every rational root of the monic p by the rational root theorem on
    the cleared integer polynomial, each divided out as often as it goes."""
    roots = {}
    while p.degree > 0 and p[0] == 0:
        roots[F(0)] = roots.get(F(0), 0) + 1
        p, _ = p.divmod(UniPoly.x())
    den = 1
    for c in p.coeffs:
        den = den * c.denominator // gcd(den, c.denominator)
    ints = [int(c * den) for c in p.coeffs]
    cands = {
        F(sign * s, t)
        for s in range(1, abs(ints[0]) + 1) if ints[0] % s == 0
        for t in range(1, abs(ints[-1]) + 1) if ints[-1] % t == 0
        for sign in (1, -1)
    } if p.degree > 0 else set()
    for r in sorted(cands):
        while p.degree > 0 and p.evaluate(r) == 0:
            roots[r] = roots.get(r, 0) + 1
            p, _ = p.divmod(UniPoly((-r, 1)))
    return roots, p


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.builds(F, st.integers(-6, 6), st.integers(1, 6)), max_size=4),
    st.lists(st.builds(F, st.integers(-4, 4), st.integers(1, 4)), max_size=3),
)
def test_rational_roots_monic_matches_enumeration(roots, tail):
    # (x - r_1)...(x - r_k) times a monic factor with small rational
    # coefficients, which may have rational roots or none (x^2 - 2, x^2 + 1)
    p = UniPoly.from_roots(roots) * UniPoly(list(tail) + [1])
    got, rest = rational_roots_monic(p)
    want, want_rest = _roots_by_enumeration(p)
    assert got == want
    assert rest == want_rest


_eigen_pool = st.lists(st.builds(F, st.integers(-4, 4), st.sampled_from([1, 2, 3, 6])),
                      min_size=2, max_size=2)


@settings(max_examples=100, deadline=None)
@given(
    st.integers(2, 4).flatmap(
        lambda n: st.tuples(
            st.lists(st.lists(st.integers(-3, 3), min_size=n, max_size=n), min_size=n, max_size=n),
            st.lists(st.lists(st.integers(0, 1), min_size=n, max_size=n), min_size=2, max_size=3),
        )
    ),
    _eigen_pool,
)
def test_simultaneous_eigenbasis_is_a_primitive_common_eigenbasis(drawn, pool):
    # commuting diagonalizable P D_i P^-1 with eigenvalues from a pool of
    # two, so common eigenspaces of dimension above 1 are frequent
    rows, picks = drawn
    P = MatQ(rows)
    try:
        P_inv = P.inverse()
    except SingularT:
        return
    mats = [P @ MatQ.diagonal([pool[i] for i in pick]) @ P_inv for pick in picks]
    T = simultaneous_eigenbasis(mats, [spectral(A) for A in mats])
    n = len(rows)
    assert T.entry_denominator() == 1
    assert T @ T.inverse() == MatQ.identity(n)
    for t in zip(*T.rows):
        assert gcd(*(x.numerator for x in t)) == 1
        assert next(x for x in t if x) > 0
        col = MatQ([[x] for x in t])
        for A in mats:
            image = A @ col
            i = next(i for i, x in enumerate(t) if x)
            assert image == col.scale(image[i, 0] / t[i])


@given(st.integers(2, 4), st.integers(0, 8))
def test_jordan_block_delta_toeplitz(size, n):
    lam = F(1, 3)
    J = MatQ.jordan_block(lam, size)
    direct = matrix_delta_table(J, n)[n]
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
    assert M[0, 0] == checks.falling(F(1, 2), 5)
    assert M[1, 1] == checks.falling(F(-2, 3), 5)


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


# repeated eigenvalues and Jordan blocks: several chains per eigenvalue
_pooled_jordan_data = st.lists(
    st.tuples(st.sampled_from([F(0), F(1, 2), F(-2, 3), F(3)]), st.integers(1, 3)),
    min_size=1,
    max_size=4,
).filter(lambda blocks: sum(h for _, h in blocks) <= 4)


def _upper(M):
    return all(M[i][j] == 0 for i in range(len(M)) for j in range(i))


@settings(max_examples=120, deadline=None)
@given(_pooled_jordan_data, st.integers(0, 50))
def test_flag_form_is_unimodular_upper_triangular(blocks, seed):
    A = catalog.from_jordan_data(blocks, seed)
    data = spectral(A)
    q, B = matfun._integer_form(A)
    T = [[x.numerator for x in row] for row in data.jordan_T.rows]
    V, C = matfun._flag_form(B, T)
    assert MatQ(V).inverse().entry_denominator() == 1  # V^-1 is integral
    assert _upper(matfun._mat_mul(V, T))
    assert matfun._mat_mul(C, V) == matfun._mat_mul(V, B)  # C = V B V^-1
    assert _upper(C)
    diag = [q * lam for lam, sizes in zip(data.eigenvalues, data.block_sizes) for _ in range(sum(sizes))]
    assert [C[i][i] for i in range(len(C))] == diag


@settings(max_examples=60, deadline=None)
@given(_jordan_data, st.integers(0, 50), st.integers(1, 30))
def test_certify_matrix_psi_matches_unconjugated_delta_steps(blocks, seed, k):
    # reference: the delta_steps route on q A itself, without the flag basis
    A = catalog.from_jordan_data(blocks, seed)
    q, B = matfun._integer_form(A)
    want = 1
    for _, D in falling.delta_steps(B, q, k):
        want = lcm(want, D)
    assert matfun.certify_matrix(A, k).psi_k == want


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
