"""Identities between the families: where two families' definitions
coincide, their certifiers must give the same psi_k and bound_k.  Each side
is a production certifier, so these properties check the families' pencils
and bound specs against each other and need no new oracle."""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from factcancel import catalog, falling
from factcancel.fuchs import FuchsianSystem, certify_system
from factcancel.matfun import MatQ, certify_matrix

F = Fraction

_lams = st.fractions(min_value=-5, max_value=5, max_denominator=12)


def _exact(cert):
    return cert.psi_k, cert.bound_k


@settings(max_examples=60, deadline=2000)
@given(_lams, st.integers(1, 40), st.integers(1, 4))
def test_scalar_equals_matrix_on_a_jordan_block(lam, k, r):
    # Delta_n(J_r(lambda)) is upper-triangular Toeplitz with the entries
    # Delta_n^(j)(lambda)/j!, which the scalar certificate measures
    matrix = certify_matrix(MatQ.jordan_block(lam, r), k)
    assert _exact(falling.certify_scalar(lam, k, r)) == _exact(matrix)


#: few eigenvalues, so that blocks often share one
_EIGENVALUES = [F(1, 2), F(-1, 2), F(1, 3), F(2, 3), F(1, 6), F(-3, 4), F(2)]


def _fit(blocks, size=4):
    """The longest prefix of the (eigenvalue, block size) list that fits in
    a size x size matrix."""
    out = []
    for lam, s in blocks:
        if s > size:
            break
        out.append((lam, s))
        size -= s
    return out


_jordan_data = st.lists(
    st.tuples(st.sampled_from(_EIGENVALUES), st.integers(1, 3)), min_size=1, max_size=4
).map(_fit)


@settings(max_examples=400, deadline=2000)
@given(_jordan_data, st.integers(0, 10**6), st.integers(1, 10))
def test_matrix_equals_one_pole_system(blocks, seed, k):
    # with the one pole at 0, T = z and T^n Q^[n]/n! = Delta_n(A) z^0
    A = catalog.from_jordan_data(blocks, seed)
    system = FuchsianSystem(A.size, (0,), (A,))
    assert _exact(certify_matrix(A, k)) == _exact(certify_system(system, k))
