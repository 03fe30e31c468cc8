import random
from fractions import Fraction
from math import factorial, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from factcancel import catalog, checks, constcoef as cc, falling
from factcancel.errors import NotPrime, RepeatedRootMinPoly
from factcancel.matfun import MatQ, _compositions, _integer_form, matrix_delta_table
from factcancel.poly import MultiPoly

F = Fraction


def _rand_mat(n, seed):
    rng = random.Random(seed)
    return MatQ(
        [[F(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(n)] for _ in range(n)]
    )


def test_bracket_op_euler():
    op = cc.bracket_op(MatQ.identity(2))
    # Euler operator: y1 d1 + y2 d2; acts on y1^a y2^b as (a+b) * monomial
    mono = MultiPoly.monomial(2, (2, 3))
    assert cc.apply(op, mono) == mono.scale(5)


def test_bracket_op_zero_and_linearity():
    assert cc.bracket_op(MatQ.zero(2)).is_zero()
    A, B = _rand_mat(2, 1), _rand_mat(2, 2)
    lin = cc.bracket_op(A.scale(F(2, 3)) + B.scale(F(-5)))
    assert lin == cc.bracket_op(A).scale(F(2, 3)) + cc.bracket_op(B).scale(F(-5))


@pytest.mark.parametrize("seed", [3, 4, 5])
def test_formal_product_commutes(seed):
    A, B = _rand_mat(2, seed), _rand_mat(2, seed + 50)
    a, b = cc.bracket_op(A), cc.bracket_op(B)
    assert cc.formal_product([a, b]) == cc.formal_product([b, a])


def test_formal_product_hand_expansion():
    # diagonal A, B for m=2: ([A].[B]) y1 y2 = (A11 B22 + A22 B11) y1 y2
    A = MatQ.diagonal([F(2), F(3)])
    B = MatQ.diagonal([F(5), F(7)])
    op = cc.formal_product([cc.bracket_op(A), cc.bracket_op(B)])
    out = cc.apply(op, MultiPoly.monomial(2, (1, 1)))
    assert out == MultiPoly.monomial(2, (1, 1), 2 * 7 + 3 * 5)


@pytest.mark.parametrize("seed", [7, 8, 9])
def test_composition_rule(seed):
    # [B] o [A] = [AB] + [A].[B]
    A, B = _rand_mat(2, seed), _rand_mat(2, seed + 50)
    a, b = cc.bracket_op(A), cc.bracket_op(B)
    assert cc.compose(b, a) == cc.bracket_op(A @ B) + cc.formal_product([a, b])


def test_compose_with_identity():
    a = cc.bracket_op(_rand_mat(2, 10))
    e = MultiPoly.constant(4, 1)
    assert cc.compose(a, e) == a
    assert cc.compose(e, a) == a


@pytest.mark.parametrize("seed", [11, 12])
def test_compose_derivation_over_formal_products(seed):
    # true composition obeys the Leibniz expansion only after removing the
    # double-counted third-order term:
    # [B] o ([A1].[A2]) = ([B]o[A1]).[A2] + [A1].([B]o[A2]) - [A1].[A2].[B]
    A1, A2, B = _rand_mat(2, seed), _rand_mat(2, seed + 30), _rand_mat(2, seed + 60)
    a1, a2, b = cc.bracket_op(A1), cc.bracket_op(A2), cc.bracket_op(B)
    lhs = cc.compose(b, cc.formal_product([a1, a2]))
    naive = cc.formal_product([cc.compose(b, a1), a2]) + cc.formal_product(
        [a1, cc.compose(b, a2)]
    )
    assert lhs == naive - cc.formal_product([a1, a2, b])
    # the uncorrected form overcounts whenever [A1].[A2].[B] is nonzero
    if not cc.formal_product([a1, a2, b]).is_zero():
        assert lhs != naive


_small_rat = st.builds(F, st.integers(-3, 3), st.integers(1, 4))


@st.composite
def _op_and_poly(draw):
    m = draw(st.sampled_from([2, 3]))
    row = st.lists(_small_rat, min_size=m, max_size=m)
    mats = [MatQ(draw(st.lists(row, min_size=m, max_size=m))) for _ in range(2)]
    terms = draw(st.dictionaries(st.tuples(*[st.integers(0, 2)] * m), _small_rat, max_size=4))
    return mats, MultiPoly(m, terms)


@settings(max_examples=40, deadline=None)
@given(_op_and_poly())
def test_compose_is_application_in_sequence(data):
    (A, B), p = data
    a, b = cc.bracket_op(A), cc.bracket_op(B)
    assert cc.apply(cc.compose(b, a), p) == cc.apply(b, cc.apply(a, p))
    # and on operators with second-order and constant terms
    ab = cc.formal_product([a, b]) + MultiPoly.constant(a.nvars, F(1, 2))
    assert cc.apply(cc.compose(ab, a), p) == cc.apply(ab, cc.apply(a, p))


def test_script_A_basic():
    A = _rand_mat(2, 20)
    a = cc.bracket_op(A)
    assert cc.script_A_n(A, 1) == a
    # A_2 = [<A>_2] + [A].[A] with <A>_2 = A^2 - A
    want = cc.bracket_op(A @ A - A) + cc.formal_product([a, a])
    assert cc.script_A_n(A, 2) == want


def test_script_A_kills_constants():
    A = _rand_mat(2, 21)
    op = cc.script_A_n(A, 3)
    assert cc.apply(op, MultiPoly.constant(2, F(5))).is_zero()


@pytest.mark.parametrize("seed", [22, 23])
def test_script_A_order_independent(seed):
    A = _rand_mat(2, seed)
    assert cc.script_A_n(A, 5) == cc.script_A_n(A, 5, reverse=True)


def test_partitions_weighted():
    parts = set(cc.partitions_weighted(4))
    assert parts == {
        (4, 0, 0, 0),
        (2, 1, 0, 0),
        (0, 2, 0, 0),
        (1, 0, 1, 0),
        (0, 0, 0, 1),
    }
    assert set(cc.partitions_weighted(1)) == {(1,)}


def test_lemma17_small_forms():
    A = _rand_mat(2, 25)
    a = cc.bracket_op(A)
    assert cc.lemma17_rhs(A, 1) == a
    want = cc.formal_product([a, a]).scale(F(1, 2)) + cc.bracket_op(matrix_delta_table(A, 2)[2])
    assert cc.lemma17_rhs(A, 2) == want


@pytest.mark.parametrize("seed", [30, 31, 32])
@pytest.mark.parametrize("size", [2, 3])
def test_lemma17_oracle(seed, size):
    A = _rand_mat(size, seed)
    for n in range(1, 6):
        assert cc.lemma17_rhs(A, n) == cc.script_A_n(A, n).scale(F(1, factorial(n)))


def test_monomial_integrality():
    assert checks.monomial_integrality_check(MatQ.identity(3), 3, 4)
    rng = random.Random(77)
    B = MatQ([[rng.randint(-4, 4) for _ in range(3)] for _ in range(3)])
    for s in range(6):
        assert checks.monomial_integrality_check(B, s, 4)


def test_monomial_integrality_rejects_rational():
    with pytest.raises(ValueError):
        checks.monomial_integrality_check(catalog.IDEMPOTENT_HALF, 2, 2)


def test_lemma19_exhaustive_small():
    assert checks.lemma19_inequality((1, 1), 2)
    assert checks.lemma19_inequality((0, 0, 0), 5)
    with pytest.raises(NotPrime):
        checks.lemma19_inequality((1,), 4)


def test_certify_integer_diagonal_trivial():
    cert = cc.certify_constcoef(MatQ.diagonal([F(2), F(-3)]), 10)
    assert cert.psi_k == 1
    assert cert.divides


def test_certify_idempotent_saturates():
    cert = cc.certify_constcoef(catalog.IDEMPOTENT_HALF, 20)
    assert cert.divides
    assert cert.bound_k == 2**20


def test_certify_diag_sixth():
    cert = cc.certify_constcoef(MatQ.diagonal([F(1, 2), F(1, 3)]), 25)
    assert cert.divides


@pytest.mark.parametrize("cap", [0, -1])
def test_certify_rejects_degree_cap_below_one(cap):
    # cap < 1 tests no monomial, so any verdict would be empty
    with pytest.raises(ValueError):
        cc.certify_constcoef(catalog.IDEMPOTENT_HALF, 5, degree_cap=cap)


def test_certify_rejects_repeated_root():
    J = MatQ.jordan_block(F(1, 2), 2)
    with pytest.raises(RepeatedRootMinPoly):
        cc.certify_constcoef(J, 5)


@pytest.mark.parametrize("i", range(len(catalog.constcoef_catalog())))
def test_certify_catalog(i):
    cert = cc.certify_constcoef(catalog.constcoef_catalog()[i], 15)
    assert cert.divides


@pytest.mark.parametrize("i", range(len(catalog.constcoef_catalog())))
def test_certify_psi_matches_operator_oracle(i):
    # psi_k from the induced-matrix kernel against the composed operator
    # (1/n!) A_n applied to every monomial of degree <= cap
    A = catalog.constcoef_catalog()[i]
    m = A.size
    dens = {}  # (n, degree) -> lcm of coefficient denominators
    for n in range(1, 6):
        op = cc.script_A_n(A, n).scale(F(1, factorial(n)))
        for d in range(4):
            for e in _compositions(d, m):
                image = cc.apply(op, MultiPoly.monomial(m, e))
                dens[n, d] = lcm(dens.get((n, d), 1), image.coeff_denominator())
    for k in range(1, 6):
        for cap in range(1, 4):
            want = 1
            for (n, d), den in dens.items():
                if n <= k and d <= cap:
                    want = lcm(want, den)
            assert cc.certify_constcoef(A, k, cap).psi_k == want, (k, cap)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.builds(F, st.integers(-6, 6), st.integers(1, 6)), min_size=1, max_size=3),
    st.integers(0, 50),
    st.integers(1, 12),
    st.integers(1, 5),
)
def test_certify_psi_matches_unconjugated_delta_steps(eigenvalues, seed, k, cap):
    # reference: the delta_steps route on the induced matrices of q A itself,
    # without the flag basis
    A = catalog.from_jordan_data([(lam, 1) for lam in eigenvalues], seed)
    q, qA = _integer_form(A)
    want = 1
    for S in cc._induced_matrices(qA, cap):
        for _, D in falling.delta_steps(S, q, k):
            want = lcm(want, D)
    assert cc.certify_constcoef(A, k, cap).psi_k == want
