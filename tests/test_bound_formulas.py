"""Every family's bound_k equals its documented formula.

The references are built from the checks oracles (lcm_upto,
prime_power_product), arith.g_k and the spectral data of each instance,
never from the certificate modules' own bound builder.
"""

from fractions import Fraction
from math import lcm

import pytest

from factcancel import arith, catalog, checks, constcoef, fuchs, hyper, matfun
from factcancel.fuchs import FuchsianSystem
from factcancel.matfun import MatQ

F = Fraction
KS = (1, 7, 20)


def _formula(scale, base, b, k, d_exp):
    """scale (base b)^k d_k^d_exp prod_{p|b} p^tau_p(k)."""
    return (
        scale
        * (base * b) ** k
        * checks.lcm_upto(k) ** d_exp
        * checks.prime_power_product(b, k)
    )


# matrix_catalog indices: r_max = 1 (1, 10) and r_max = 2, 3 (4, 5, 8)
@pytest.mark.parametrize("index", [1, 10, 4, 5, 8])
@pytest.mark.parametrize("k", KS)
def test_matrix_bound_formula(index, k):
    A = catalog.matrix_catalog()[index]
    data = matfun.spectral(A)
    want = _formula(data.t1 * data.t2, 1, data.b, k, data.r_max - 1)
    assert matfun.certify_matrix(A, k).bound_k == want


@pytest.mark.parametrize("index", range(len(catalog.constcoef_catalog())))
@pytest.mark.parametrize("k", KS)
def test_constcoef_bound_formula(index, k):
    A = catalog.constcoef_catalog()[index]
    data = matfun.spectral(A)
    want = _formula(1, data.t1 * data.t2, data.b, k, 0)
    assert constcoef.certify_constcoef(A, k, degree_cap=2).bound_k == want


_JORDAN = MatQ([[F(1, 2), F(1)], [F(0), F(1, 2)]])
_SYSTEMS = {
    "eigenbasis": catalog.fuchsian_catalog()[0],
    "eigenbasis_3x3": catalog.fuchsian_catalog()[2],
    "eigenbasis_fractional_poles": FuchsianSystem(
        m=2,
        gammas=(F(1, 3), F(3, 4)),
        residues=(MatQ.diagonal([F(1, 2), F(2, 5)]), MatQ.diagonal([F(1, 4), F(1, 5)])),
    ),
    "jordan": catalog.fuchsian_catalog()[1],
    "jordan_fractional_poles": FuchsianSystem(
        m=2,
        gammas=(F(-1, 2), F(2, 3)),
        residues=(_JORDAN, _JORDAN @ _JORDAN),
    ),
}


# bound_k of the diagonalizable systems at KS, pinned so that a changed
# common eigenbasis T (whose den(T) den(T^-1) is t) shows
_EIGENBASIS_BOUNDS = {
    "eigenbasis": (12, 5159780352, 6593786494438050175804174761984),
    "eigenbasis_3x3": (
        30,
        15746400000000,
        374813367582081024000000000000000000000000,
    ),
    "eigenbasis_fractional_poles": (
        240,
        3669177139200000000,
        65863495153100450590078097424384000000000000000000000000,
    ),
}


@pytest.mark.parametrize("name", sorted(_SYSTEMS))
@pytest.mark.parametrize("k", KS)
def test_fuchsian_bound_formula(name, k):
    system = _SYSTEMS[name]
    datas = [matfun.spectral(A) for A in system.residues]
    b = lcm(*(data.b for data in datas))
    q = 1
    for g in system.gammas:
        q *= g.denominator
    if all(data.r_max == 1 for data in datas):
        T = matfun.simultaneous_eigenbasis(system.residues, datas)
        t = T.entry_denominator() * T.inverse().entry_denominator()
        d_exp = 0
    else:
        t = 1
        for data in datas:
            t *= data.t1 * data.t2
        d_exp = sum(data.r_max - 1 for data in datas)
    assert (d_exp > 0) == name.startswith("jordan")
    want = _formula(t, q, b, k, d_exp)
    if name in _EIGENBASIS_BOUNDS:
        assert want == _EIGENBASIS_BOUNDS[name][KS.index(k)]
    assert fuchs.certify_system(system, k).bound_k == want


@pytest.mark.parametrize(
    "params, gamma_zero",
    [(catalog.HYPER_M1, False), (catalog.HYPER_GAMMA0, True)],
)
@pytest.mark.parametrize("k", KS)
def test_lemma11_bound_formulas(params, gamma_zero, k):
    forms = hyper.adjoint_system(params)
    assert (forms.gamma == 0) == gamma_zero
    a = arith.common_denominator(forms.a)
    b = arith.common_denominator((forms.gamma,) + params.beta)
    inner = _formula(arith.g_k(k) * a, 1, b, k, 1 if gamma_zero else 0)
    outer = forms.T.entry_denominator() * forms.T_inv.entry_denominator() * inner
    cert = hyper.certify_lemma11(params, k)
    assert cert.inner.bound_k == inner
    assert cert.outer.bound_k == outer
    assert cert.outer.asymptotic_constant == cert.inner.asymptotic_constant
