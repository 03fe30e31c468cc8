import ast
import inspect
import json
import random
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from factcancel import catalog, falling, fuchs, matfun
from factcancel.errors import FactCancelError, NotCommuting, SingularT
from factcancel.fuchs import (
    FuchsianSystem,
    PolyMat,
    certify_system,
    qn_recurrence,
    qn_via_brackets,
)
from factcancel.checks import operator_identity_14, operator_identity_16, operator_identity_24
from factcancel.matfun import MatQ, _integer_form, commuting_check, simultaneous_eigenbasis, spectral
from factcancel.poly import UniPoly

F = Fraction


def _rand_poly(rng, deg):
    return UniPoly(tuple(rng.randint(-5, 5) for _ in range(deg + 1)))


def test_system_json_roundtrip():
    for system in catalog.fuchsian_catalog()[:4]:
        assert FuchsianSystem.from_json(system.to_json()) == system


def test_system_json_without_m_derives_it():
    A = MatQ([[0, 0, 0], [1, F(1, 2), 0], [0, 0, F(1, 3)]])
    for system in catalog.fuchsian_catalog()[:4] + [
        FuchsianSystem(m=2, gammas=(F(0), F(1)), residues=(A, A), augmented=True)
    ]:
        d = json.loads(system.to_json())
        del d["m"]
        assert FuchsianSystem.from_json(json.dumps(d)) == system


def test_system_validation():
    A = MatQ.identity(2)
    with pytest.raises((ValueError, FactCancelError)):
        FuchsianSystem(m=2, gammas=(F(0), F(0)), residues=(A, A))
    with pytest.raises((ValueError, FactCancelError)):
        FuchsianSystem(m=2, gammas=(F(0), F(1)), residues=(A,))


def test_qn_zero_is_identity():
    system = catalog.fuchsian_catalog()[0]
    assert qn_recurrence(system, 0) == PolyMat.identity(system.size)


@pytest.mark.parametrize("i", range(10))
def test_bracket_oracle_matches_recurrence(i):
    system = catalog.fuchsian_catalog()[i]
    for n in range(1, 6):
        assert qn_via_brackets(system, n) == qn_recurrence(system, n)


_rats = st.fractions(min_value=-3, max_value=3, max_denominator=6)


@st.composite
def _systems(draw):
    size = draw(st.integers(1, 3))
    poles = draw(st.integers(2, 3))
    gammas = draw(st.lists(_rats, min_size=poles, max_size=poles, unique=True))
    residues = [
        MatQ(draw(st.lists(st.lists(_rats, min_size=size, max_size=size), min_size=size, max_size=size)))
        for _ in range(poles)
    ]
    return FuchsianSystem(m=size, gammas=tuple(gammas), residues=tuple(residues))


@settings(max_examples=40, deadline=None)
@given(_systems(), st.integers(0, 6))
# integer poles, so tau comes only from TQ (a residue entry of denominator 7)
@example(
    FuchsianSystem(
        m=2,
        gammas=(F(0), F(1), F(-2)),
        residues=(MatQ([[F(1, 7), 1], [0, F(1, 2)]]), MatQ([[1, 0], [F(2, 3), 0]]), MatQ.identity(2)),
    ),
    5,
)
# pole denominators sharing primes: T = z^3 - 7/12 z^2 - 7/72 z + 1/36 needs
# a 9 that neither their lcm 12 nor TQ supplies
@example(
    FuchsianSystem(
        m=2,
        gammas=(F(1, 6), F(-1, 4), F(2, 3)),
        residues=(MatQ([[F(1, 5), 0], [1, 0]]), MatQ([[0, 9], [0, F(9, 2)]]), MatQ([[1, 1], [0, F(1, 2)]])),
    ),
    4,
)
def test_scaled_qn_matches_bracket_oracle(system, n):
    # the integer generator against the bracket expansion divided by n!;
    # row r of N holds the z^d coefficient of entry (r, j) at d m + j
    for N, D in fuchs._scaled_qn(system, n):
        pass
    R = qn_via_brackets(system, n).scale(F(1, factorial(n)))
    m = system.size
    assert [[UniPoly([F(x, D) for x in row[j::m]]) for j in range(m)] for row in N] == [
        list(row) for row in R.rows
    ]
    assert D == R.coeff_denominator()


def _one_pole_matches_delta_steps(A, n):
    # T = z and Q = A/z make T^n Q^[n]/n! = Delta_n(A): the same pencil steps
    q, qA = _integer_form(A)
    system = FuchsianSystem(m=A.size, gammas=(F(0),), residues=(A,))
    assert list(fuchs._scaled_qn(system, n)) == list(falling.delta_steps(qA, q, n))


@pytest.mark.parametrize("i", range(len(catalog.matrix_catalog())))
def test_one_pole_is_the_constant_case(i):
    _one_pole_matches_delta_steps(catalog.matrix_catalog()[i], 15)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(1, 4).flatmap(
        lambda m: st.lists(st.lists(st.integers(-20, 20), min_size=m, max_size=m), min_size=m, max_size=m)
    ),
    st.integers(1, 12),
    st.integers(0, 12),
)
def test_one_pole_is_the_constant_case_on_integer_matrices(B, q, n):
    _one_pole_matches_delta_steps(MatQ(B).scale(F(1, q)), n)


# operator identities


@pytest.mark.parametrize("lam", catalog.SCALAR_LAMBDAS[:6])
def test_identity_14(lam):
    rng = random.Random(int(lam * 1000))
    for _ in range(3):
        f = _rand_poly(rng, rng.randint(1, 8))
        for n in (1, 4, 9):
            assert operator_identity_14(lam, f, n)


def test_identity_14_lambda_zero_reduces_to_derivative():
    f = UniPoly((1, 2, 3))
    assert operator_identity_14(F(0), f, 3)


def test_identity_16_two_scalars():
    rng = random.Random(99)
    f = _rand_poly(rng, 5)
    assert operator_identity_16(
        [F(1, 2), F(-2, 3)], [F(0), F(1)], f, 5
    )
    assert operator_identity_16(
        [F(1, 4), F(1, 4)], [F(-1), F(2)], f, 4
    )


def test_identity_24_commuting():
    for system in catalog.fuchsian_catalog()[:3]:
        assert commuting_check(list(system.residues))
        for n in (1, 2, 4):
            assert operator_identity_24(system, n)


def test_identity_24_rejects_noncommuting():
    system = catalog.fuchsian_catalog()[4]
    assert not commuting_check(list(system.residues))
    with pytest.raises(NotCommuting):
        operator_identity_24(system, 2)


def test_simultaneous_eigenbasis():
    A = MatQ.diagonal([F(1, 2), F(1, 3)])
    B = MatQ.diagonal([F(1, 4), F(-1, 6)])
    U = catalog.unimodular(2, random.Random(5))
    mats = [U @ A @ U.inverse(), U @ B @ U.inverse()]
    T = simultaneous_eigenbasis(mats, [spectral(M) for M in mats])
    T_inv = T.inverse()
    for M in mats:
        C = T_inv @ M @ T
        for i in range(2):
            for j in range(2):
                if i != j:
                    assert C[i, j] == 0


def test_simultaneous_eigenbasis_rejects_noncommuting():
    # each matrix is diagonalizable, but no basis diagonalizes both
    mats = [MatQ.diagonal([1, 2]), MatQ([[1, 1], [0, 2]])]
    with pytest.raises(SingularT):
        simultaneous_eigenbasis(mats, [spectral(M) for M in mats])
    with pytest.raises(SingularT):
        simultaneous_eigenbasis(mats[::-1], [spectral(M) for M in mats[::-1]])


def test_simultaneous_eigenbasis_needs_one_spectral_data_per_matrix():
    mats = [MatQ.diagonal([1, 2]), MatQ.diagonal([3, 4])]
    for datas in ([], [spectral(mats[0])], [spectral(M) for M in mats * 2]):
        with pytest.raises(ValueError):
            simultaneous_eigenbasis(mats, datas)
    with pytest.raises(ValueError):
        simultaneous_eigenbasis([], [])


# certificates


@pytest.mark.parametrize("i", range(3))
def test_certify_system_solves_each_eigenproblem_once(i, monkeypatch):
    system = catalog.fuchsian_catalog()[i]
    calls = []
    eigenvalues = matfun._eigenvalues
    monkeypatch.setattr(matfun, "_eigenvalues", lambda B: calls.append(B) or eigenvalues(B))
    assert certify_system(system, 5).bound_k is not None
    assert len(calls) == system.npoles


def test_fuchs_imports_no_matfun_private_but_compositions():
    tree = ast.parse(inspect.getsource(fuchs))
    names = {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "matfun"
        for alias in node.names
    }
    assert {n for n in names if n.startswith("_")} == {"_compositions"}


@pytest.mark.parametrize("i", range(3))
def test_certify_commuting_has_bound(i):
    system = catalog.fuchsian_catalog()[i]
    cert = certify_system(system, 12)
    assert cert.bound_k is not None
    assert cert.divides


@pytest.mark.parametrize("i", [4, 5, 6])
def test_certify_noncommuting_measurement_only(i):
    system = catalog.fuchsian_catalog()[i]
    cert = certify_system(system, 6)
    assert cert.bound_k is None
    assert cert.divides is None
    assert cert.psi_k >= 1


def test_scalar_system_matches_scalar_certificate():
    # one-pole 1x1 system at 0 with residue lambda: T^n Q^[n]/n! has the
    # same denominators as Delta_n(lambda)
    lam = F(1, 2)
    system = FuchsianSystem(m=1, gammas=(F(0),), residues=(MatQ([[lam]]),))
    cert = certify_system(system, 30)
    scalar = falling.certify_scalar(lam, 30)
    assert cert.psi_k == scalar.psi_k
    assert cert.divides
