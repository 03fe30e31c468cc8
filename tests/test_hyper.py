from fractions import Fraction
from math import factorial, lcm

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from factcancel import catalog, hyper
from factcancel.errors import (
    ConditionsFailed,
    EpsilonOutOfRange,
    InvalidBeta,
    RepeatedBeta,
    XiZero,
)
from factcancel.hyper import HyperParams
from factcancel.matfun import MatQ, bracket_table

F = Fraction


def test_params_json_roundtrip():
    p = catalog.HYPER_M2
    assert HyperParams.from_json(p.to_json()) == p


def test_invalid_beta_rejected():
    with pytest.raises(InvalidBeta):
        HyperParams.of([F(1, 3)], [F(-2)])


def test_series_first_coefficients():
    f = hyper.series(catalog.HYPER_M1, 3)
    # f_1 = (-1/3)/(-3/2) = 2/9
    assert f[0] == 1
    assert f[1] == F(2, 9)
    assert f[2] == F(16, 135)


def test_series_geometric():
    # alpha = beta + 1 makes every coefficient 1
    p = HyperParams.of([F(3, 2)], [F(1, 2)])
    f = hyper.series(p, 10)
    assert all(c == 1 for c in f.coeffs)


def test_vieta():
    sa, sb = hyper.vieta(catalog.HYPER_M2)
    assert sa == [F(1, 3) + F(1, 5), F(1, 15)]
    assert sb == [F(3, 4), F(1, 8)]


@pytest.mark.parametrize("p", catalog.HYPER_CATALOG)
def test_series_satisfies_system(p):
    assert hyper.system_residual(p, 25)


def test_build_system_m1_entries():
    system = hyper.build_system(catalog.HYPER_M1)
    A0, A1 = system.residues
    assert A0[1, 1] == F(-1, 2)
    assert A0[1, 0] == F(1, 2)
    assert A1[1, 1] == F(1, 2) - F(1, 3)
    assert A1[1, 0] == F(-1, 2)


@pytest.mark.parametrize("p", catalog.HYPER_CATALOG)
def test_adjoint_is_negative_transpose_of_homogeneous(p):
    m = p.m
    system = hyper.build_system(p)
    A1, A2 = hyper.adjoint_matrices(p)
    hom0 = MatQ([[system.residues[0][i, j] for j in range(1, m + 1)] for i in range(1, m + 1)])
    hom1 = MatQ([[system.residues[1][i, j] for j in range(1, m + 1)] for i in range(1, m + 1)])
    assert A1 == -hom0.transpose()
    assert A2 == -hom1.transpose()


@pytest.mark.parametrize("p", catalog.HYPER_CATALOG)
def test_spectral_closed_forms(p):
    forms = hyper.adjoint_system(p)
    m = p.m
    assert forms.T_inv @ forms.T == MatQ.identity(m)
    assert forms.T_inv @ forms.A1 @ forms.T == MatQ.diagonal(p.beta)
    assert (forms.T_inv @ forms.A2 @ forms.T).transpose() == forms.B2
    assert forms.A2.trace() == forms.gamma
    assert sum(forms.a, F(0)) == forms.gamma


def test_repeated_beta_raises():
    p = HyperParams.of([F(1, 3), F(1, 5)], [F(1, 2), F(1, 2)])
    with pytest.raises(RepeatedBeta):
        hyper.adjoint_system(p)


@pytest.mark.parametrize("p", catalog.HYPER_CATALOG + [catalog.HYPER_GAMMA0])
def test_projector_relations(p):
    forms = hyper.adjoint_system(p)
    for n2 in (1, 2, 3, 5):
        assert hyper.projector_relations(forms, n2)


@pytest.mark.parametrize("n1,n2", [(0, 0), (1, 0), (0, 1), (3, 2), (5, 5), (7, 1)])
def test_partial_fraction_identity(n1, n2):
    assert hyper.partial_fraction_identity(n1, n2)


@pytest.mark.parametrize("p", catalog.HYPER_CATALOG)
def test_certify_lemma11(p):
    cert = hyper.certify_lemma11(p, 14)
    assert cert.inner.divides
    assert cert.outer.divides
    assert not cert.gamma_zero


def test_certify_lemma11_gamma_zero():
    cert = hyper.certify_lemma11(catalog.HYPER_GAMMA0, 14)
    assert cert.gamma_zero
    assert cert.inner.divides
    assert cert.outer.divides


def _inner_psi_by_brackets(params, k):
    """The Lemma 11 inner psi by its definition: lcm over n1 + n2 <= k of
    the entry denominators of gamma <B1,B2>_{n1,n2}/(n1+n2)! (no gamma
    factor when gamma = 0)."""
    forms = hyper.adjoint_system(params)
    g = forms.gamma
    psi = 1
    for (n1, n2), M in bracket_table([forms.B1, forms.B2], k).items():
        scaled = M.scale(F(1, factorial(n1 + n2)))
        if g != 0:
            scaled = scaled.scale(g)
        psi = lcm(psi, scaled.entry_denominator())
    return psi


_params_rats = st.fractions(min_value=-3, max_value=3, max_denominator=8).filter(
    lambda x: not (x.denominator == 1 and x <= -1)
)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(1, 3).flatmap(
        lambda m: st.tuples(
            st.lists(_params_rats, min_size=m, max_size=m),
            st.lists(_params_rats, min_size=m, max_size=m, unique=True),
        )
    ),
    st.integers(1, 10),
)
@example((catalog.HYPER_GAMMA0.alpha, catalog.HYPER_GAMMA0.beta), 10)
@example((catalog.HYPER_GAMMA0_EXCESS.alpha, catalog.HYPER_GAMMA0_EXCESS.beta), 7)
def test_lemma11_inner_psi_matches_bracket_definition(alpha_beta, k):
    params = HyperParams.of(*alpha_beta)
    assert hyper.certify_lemma11(params, k).inner.psi_k == _inner_psi_by_brackets(params, k)


def test_gamma_zero_bound_needs_b_smooth_a():
    # documented boundary: when den(a_1..a_m) has a prime outside
    # b = den(gamma, beta), the d_k-augmented target misses that prime's
    # accumulation and the divisibility fails
    cert = hyper.certify_lemma11(catalog.HYPER_GAMMA0_EXCESS, 12)
    assert cert.gamma_zero
    assert not cert.inner.divides


def test_g_class_phi_m1():
    est = hyper.g_class_phi(catalog.HYPER_M1)
    assert est.q1 == 3 and est.q2 == 2 and est.b == 6
    with mpmath.workdps(45):
        assert abs(est.Phi - mpmath.e**2 / 2) < mpmath.mpf(10) ** -40


def test_phi_empirical():
    for p in catalog.HYPER_CATALOG:
        assert hyper.phi_empirical_check(p, 40)


@pytest.mark.parametrize("p", catalog.HYPER_CATALOG)
def test_wronskian(p):
    rep = hyper.wronskian_checks(p)
    assert rep.trace_ok
    assert rep.residual_zero
    sa, sb = hyper.vieta(p)
    assert rep.e0 == -sb[0] == rep.e0_alt
    assert rep.e1 == sb[0] - sa[0] == -rep.e1_alt


# conditions


def test_conditions_pass_catalog():
    for p in catalog.HYPER_CATALOG:
        assert hyper.check_conditions(p).all_hold()


def test_condition1_integral_difference():
    rep = hyper.check_conditions(HyperParams.of([F(3, 2)], [F(1, 2)]))
    assert not rep.linear


def test_condition4_half_integer_gamma():
    # gamma = -1/2 makes 2*gamma integral
    rep = hyper.check_conditions(HyperParams.of([F(1, 4), F(1, 4)], [F(1, 2), F(1, 2)]))
    assert not rep.gamma_nonintegral


def test_condition3_kummer_shift():
    # both families invariant under +1/2 shift mod Z
    p = HyperParams.of([F(1, 4), F(3, 4)], [F(1, 3), F(5, 6)])
    rep = hyper.check_conditions(p)
    assert not rep.kummer


def test_condition2_belyi_family():
    # alpha ~ {u/1} u {v/1}? need m>=2: take alpha = (1/2, 1/3) split
    # m1=m2=1 families, beta a full 1/2-coset: (u+v)/2-type family
    p = HyperParams.of([F(1, 2), F(1, 3)], [F(5, 12), F(11, 12)])
    rep = hyper.check_conditions(p)
    assert not rep.belyi


# theorem 6


def test_theorem6_closed_form_constants():
    rep = hyper.theorem6(catalog.HYPER_M1, F(1, 100000), F(1, 10))
    assert rep.b0 == 6
    assert rep.H == 1
    with mpmath.workdps(45):
        assert abs(rep.Phi - mpmath.e**2 / 2) < mpmath.mpf(10) ** -40
    assert rep.decisive


def test_theorem6_verdict_flips_at_inequality():
    eps = F(1, 10)
    # m=1: verdict is a2^{0.7} > C0 * |a1|^{1.8}; a1 = 1
    base = hyper.theorem6(catalog.HYPER_M1, F(1, 10**30), eps)
    with mpmath.workdps(60):
        threshold = mpmath.mpf(base.C0) ** (mpmath.mpf(10) / 7)
        t = int(threshold)
    for a2 in (t - 1, t, t + 1, t + 2):
        rep = hyper.theorem6(catalog.HYPER_M1, F(1, a2), eps)
        with mpmath.workdps(60):
            direct = mpmath.mpf(a2) ** F(7, 10) > mpmath.mpf(base.C0)
        assert rep.decisive
        assert rep.irrational == direct
        if rep.irrational:
            assert rep.eta0 > 0
            assert rep.measure_exponent == rep.eta0


def test_theorem6_errors():
    p = catalog.HYPER_M1
    with pytest.raises(XiZero):
        hyper.theorem6(p, F(0), F(1, 10))
    with pytest.raises(EpsilonOutOfRange):
        hyper.theorem6(p, F(1, 2), F(1, 2))
    with pytest.raises(ConditionsFailed):
        hyper.theorem6(HyperParams.of([F(3, 2)], [F(1, 2)]), F(1, 7), F(1, 10))


def test_theorem6_report_json():
    rep = hyper.theorem6(catalog.HYPER_M1, F(1, 10**20), F(1, 10))
    d = rep.to_dict()
    assert d["b0"] == 6
    assert isinstance(d["irrational"], bool)
    assert rep.to_json()
