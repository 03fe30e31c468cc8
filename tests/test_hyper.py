import runpy
import sys
import time
from dataclasses import replace
from fractions import Fraction
import random
from math import factorial, lcm, prod
from pathlib import Path

import mpmath
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from factcancel import arith, catalog, checks, hyper
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
    assert f == [1] * 11


def test_vieta():
    sa, sb = hyper.vieta(catalog.HYPER_M2)
    assert sa == [F(1, 3) + F(1, 5), F(1, 15)]
    assert sb == [F(3, 4), F(1, 8)]


@pytest.mark.parametrize("p", catalog.HYPER_CATALOG)
def test_series_satisfies_system(p):
    assert hyper.system_residual(p, hyper.build_system(p), 25)


@pytest.mark.parametrize("N", [0, -1])
def test_system_residual_rejects_empty_range(N):
    with pytest.raises(ValueError):
        p = catalog.HYPER_M1
        hyper.system_residual(p, hyper.build_system(p), N)


def test_system_residual_rejects_a_perturbed_residue():
    # moving any one entry of either residue by 1/7 breaks the identity
    p = catalog.HYPER_M2
    system = hyper.build_system(p)
    size = system.size
    for pole in range(2):
        for l in range(size):
            for j in range(size):
                rows = [list(r) for r in system.residues[pole].rows]
                rows[l][j] += F(1, 7)
                residues = list(system.residues)
                residues[pole] = MatQ(rows)
                bumped = replace(system, residues=tuple(residues))
                assert not hyper.system_residual(p, bumped, 5)


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
        assert checks.projector_relations(forms, n2)


@pytest.mark.parametrize("n1,n2", [(0, 0), (1, 0), (0, 1), (3, 2), (5, 5), (7, 1)])
def test_partial_fraction_identity(n1, n2):
    assert checks.partial_fraction_identity(n1, n2)


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
    Phi = checks.g_class_phi(catalog.HYPER_M1)
    with mpmath.workdps(45):
        assert abs(Phi - mpmath.e**2 / 2) < mpmath.mpf(10) ** -40


def test_phi_empirical():
    for p in catalog.HYPER_CATALOG:
        assert checks.phi_empirical_check(p, 40)


@pytest.mark.parametrize("p", catalog.HYPER_CATALOG)
def test_wronskian(p):
    rep = checks.wronskian_checks(p)
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


@pytest.mark.parametrize(
    "alpha, beta",
    [
        # beta is the 1/2-coset of 0, alpha two 1/1-cosets whose anchors
        # sum to 0; the second pair is the first shifted by 1/4
        ([F(-1, 12), F(1, 12)], [F(0), F(1, 2)]),
        ([F(1, 6), F(1, 3)], [F(1, 4), F(3, 4)]),
        # m = 3: beta the 1/3-coset of 0, and the same shifted by 1/12
        ([F(1, 12), F(7, 12), F(5, 6)], [F(0), F(1, 3), F(2, 3)]),
        ([F(1, 6), F(2, 3), F(11, 12)], [F(1, 12), F(5, 12), F(3, 4)]),
    ],
)
def test_condition2_belyi_coset_through_an_integer(alpha, beta):
    rep = hyper.check_conditions(HyperParams.of(alpha, beta))
    assert not rep.belyi
    assert "arithmetic-progression family match found" in rep.diagnostics
    assert 2 in rep.failed()


_cond_rat = st.builds(F, st.integers(-12, 12), st.sampled_from([1, 2, 3, 4, 6, 12]))
_cond_params = st.integers(1, 4).flatmap(
    lambda m: st.tuples(
        st.lists(_cond_rat, min_size=m, max_size=m), st.lists(_cond_rat, min_size=m, max_size=m)
    )
)


@st.composite
def _belyi_family(draw):
    """A Belyi match: cosets u + i/m1 and v + j/m2 on one side, the coset
    (m1 u + m2 v)/m + l/m on the other, each point moved by an integer."""
    m1, m2 = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    u, v = draw(_cond_rat), draw(_cond_rat)
    m = m1 + m2
    moves = st.integers(-1, 1)
    split = [u + F(i, m1) + draw(moves) for i in range(m1)]
    split += [v + F(j, m2) + draw(moves) for j in range(m2)]
    coset = [(m1 * u + m2 * v + l) / m + draw(moves) for l in range(m)]
    split, coset = draw(st.permutations(split)), draw(st.permutations(coset))
    return (split, coset) if draw(st.booleans()) else (coset, split)


def _flags(rep):
    return rep.linear, rep.belyi, rep.kummer, rep.gamma_nonintegral


def _valid_beta(beta):
    return all(b.denominator > 1 or b > -1 for b in beta)


@settings(max_examples=200, deadline=None)
@given(st.one_of(_cond_params, _belyi_family()), _cond_rat)
@example(([F(1, 6), F(1, 3)], [F(1, 4), F(3, 4)]), F(-1, 4))
def test_conditions_do_not_change_under_a_common_shift(alpha_beta, c):
    alpha, beta = alpha_beta
    assume(_valid_beta(beta) and _valid_beta([b + c for b in beta]))
    rep = hyper.check_conditions(HyperParams.of(alpha, beta))
    shifted = hyper.check_conditions(
        HyperParams.of([a + c for a in alpha], [b + c for b in beta])
    )
    assert _flags(shifted) == _flags(rep)


@settings(max_examples=100, deadline=None)
@given(_belyi_family())
def test_every_belyi_family_is_found(alpha_beta):
    assume(_valid_beta(alpha_beta[1]))
    assert not hyper.check_conditions(HyperParams.of(*alpha_beta)).belyi


@settings(max_examples=200, deadline=None)
@given(st.one_of(_cond_params, _belyi_family()))
def test_a_belyi_match_makes_two_gamma_odd(alpha_beta):
    # a match's split side sums to S + (m - 2)/2 mod 1, its coset side to
    # m w + (m - 1)/2 with S = m w mod 1: gamma = 1/2 mod 1
    assume(_valid_beta(alpha_beta[1]))
    rep = hyper.check_conditions(HyperParams.of(*alpha_beta))
    assert rep.belyi or not rep.gamma_nonintegral


def test_params_need_at_least_one_parameter():
    with pytest.raises(ValueError):
        HyperParams.of([], [])
    with pytest.raises(ValueError):
        HyperParams.from_json('{"alpha": [], "beta": []}')


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
            assert rep.measure_exponent >= rep.eta0


def test_theorem6_indecisive_when_the_precision_cannot_separate():
    # a2 = floor(C0^(10/7)) sits just below the m = 1 threshold a2^0.7 > C0:
    # 50 digits decide it (not irrational), 10 digits leave the intervals
    # overlapping, and an undecided verdict claims nothing
    xi = F(1, 5892916322298416128)
    assert hyper.theorem6(catalog.HYPER_M1, xi, F(1, 10)).decisive
    rep = hyper.theorem6(catalog.HYPER_M1, xi, F(1, 10), digits=10)
    assert (rep.irrational, rep.decisive) == (False, False)
    assert rep.eta0 is None
    assert rep.measure_exponent is None


def test_theorem6_decides_on_the_log_margin_when_the_comparison_straddles():
    # near the m = 1 threshold at 4 digits, the enclosures of a2^(5/8) and
    # C0 |a1|^(7/4) overlap while the log-margin den is provably positive:
    # the verdict is irrational, as it is at 100 digits
    xi = F(3, 11425570287036817117)
    rep = hyper.theorem6(catalog.HYPER_M1, xi, F(1, 8), digits=4)
    assert (rep.irrational, rep.decisive) == (True, True)
    assert rep.eta0 is not None
    assert rep.measure_exponent >= rep.eta0
    hi = hyper.theorem6(catalog.HYPER_M1, xi, F(1, 8), digits=100)
    assert (hi.irrational, hi.decisive) == (True, True)


def test_theorem6_measure_exponent_is_the_upper_end_rounded_up():
    # at 4 digits the midpoint of eta0's enclosure, 2.750671..., lies below
    # eta0 = 2.750692... (100 digits): the reported exponent is the upper
    # end of the enclosure, and it prints rounded toward +inf
    xi = F(1, 500876791760366310946532916929854695973724576326007033692160)
    rep = hyper.theorem6(catalog.HYPER_M1, xi, F(1, 10), digits=4)
    hi = hyper.theorem6(catalog.HYPER_M1, xi, F(1, 10), digits=100)
    assert rep.irrational and hi.irrational
    assert rep.eta0 < hi.eta0 <= rep.measure_exponent
    assert rep.to_dict()["measure_exponent"] == "2.751"
    # nearest rounding would print 2.750
    assert hyper._str_up(mpmath.mpf("2.75001"), 4) == "2.751"


def test_theorem6_errors():
    p = catalog.HYPER_M1
    with pytest.raises(XiZero):
        hyper.theorem6(p, F(0), F(1, 10))
    with pytest.raises(EpsilonOutOfRange):
        hyper.theorem6(p, F(1, 2), F(1, 2))
    with pytest.raises(ConditionsFailed):
        hyper.theorem6(HyperParams.of([F(3, 2)], [F(1, 2)]), F(1, 7), F(1, 10))


class _WriteRecorder:
    """Stands in for a module-level object, forwards every read and records
    the name of every attribute written."""

    def __init__(self, target, writes):
        object.__setattr__(self, "_target", target)
        object.__setattr__(self, "_writes", writes)

    def __getattr__(self, name):
        return getattr(self._target, name)

    def __setattr__(self, name, value):
        self._writes.append(name)
        setattr(self._target, name, value)


@pytest.mark.parametrize("digits", [50, 80])
def test_theorem6_leaves_global_interval_context_alone(monkeypatch, digits):
    writes = []
    monkeypatch.setattr(mpmath, "iv", _WriteRecorder(mpmath.iv, writes))
    for params in catalog.HYPER_CATALOG:
        rep = hyper.theorem6(params, F(1, 10**12), F(1, 10 * params.m + 20), digits=digits)
        assert rep.decisive
    assert writes == []


def test_theorem6_evaluates_each_real_once(monkeypatch):
    calls = {"rho_exact": 0, "small_prime_factors": 0}
    for name in calls:
        fn = getattr(arith, name)

        def counted(*args, fn=fn, name=name):
            calls[name] += 1
            return fn(*args)

        monkeypatch.setattr(arith, name, counted)
    hyper.theorem6(catalog.HYPER_M2, F(1, 10**12), F(1, 10))
    # one rho(b_j) per lower parameter, and b0 factored once
    assert calls == {"rho_exact": 2, "small_prime_factors": 1}


def _theorem6_oracle(params, xi, eps, b0_primes=None):
    """Phi, C0 and eta0 evaluated directly in mpmath at 120 digits; eta0 is
    None where its denominator, the log-margin of the verdict, is <= 0.
    chi(b0) comes from b0_primes when given, else from checks.chi."""
    m = params.m
    with mpmath.workdps(120):
        q1 = prod(a.denominator for a in params.alpha)
        b = lcm(q1, prod(be.denominator for be in params.beta))
        rho = mpmath.fsum(
            mpmath.mpf(r.numerator) / r.denominator
            for r in (arith.rho_exact(be.denominator) for be in params.beta)
        )
        Phi = mpmath.e**rho * q1 / b
        b0 = arith.common_denominator((params.gamma(),) + params.beta)
        H = hyper._height(params)
        e = mpmath.mpf(eps.numerator) / eps.denominator
        if b0_primes is None:
            chi = checks.chi(b0, 120)
        else:
            chi = mpmath.fsum(mpmath.log(p) / (p - 1) for p in b0_primes)
        base = 8 * b0 * mpmath.mpf(H.numerator) / H.denominator * mpmath.e ** (chi + 3)
        expo = 1 + e + (2 - (m - 1) * e) / (e**m * factorial(m - 1))
        C0 = base ** (e * (1 - mpmath.log(e))) * Phi**expo
        ln_a2, ln_a1 = mpmath.log(xi.denominator), mpmath.log(abs(xi.numerator))
        num = (1 + e) * ln_a2 + mpmath.log(C0)
        den = (1 - (m + 2) * e) * ln_a2 - mpmath.log(C0) - (2 - (m + 1) * e) * ln_a1
        return Phi, C0, num / den if den > 0 else None


@pytest.mark.parametrize("digits", [20, 50, 80])
def test_theorem6_reports_accurate_midpoints(digits):
    rng = random.Random(digits)
    for params in catalog.HYPER_CATALOG:
        for _ in range(8):
            xi = F(rng.choice((1, 2, 3, 5, 7)) * rng.choice((1, -1)), int(10 ** rng.uniform(2, 60)))
            eps = rng.choice((F(1, 20), F(1, 10), F(1, 6)))
            rep = hyper.theorem6(params, xi, eps, digits=digits)
            Phi, C0, eta0 = _theorem6_oracle(params, xi, eps)
            pairs = [(rep.Phi, Phi), (rep.C0, C0)]
            if eta0 is None:
                assert rep.eta0 is None
            else:
                pairs.append((rep.eta0, eta0))
            assert all(isinstance(got, mpmath.mpf) for got, _ in pairs)
            with mpmath.workdps(120):
                tol = mpmath.mpf(10) ** (6 - digits)
                for got, want in pairs:
                    assert abs(got - want) <= tol * abs(want)


# two primes far past TRIAL_LIMIT, and two just past it, where the widening
# ln(S)/TRIAL_LIMIT is nearly the primes' own share of chi
@pytest.mark.parametrize("p, q", [(10**15 + 37, 10**15 + 91), (1000003, 1000033)])
def test_theorem6_widens_chi_over_an_unfactored_cofactor(p, q):
    # b0 = 2 S with S = p q: trial division finds only 2, and chi(b0) is
    # widened over S; the proved exponent stays above the true eta0,
    # computed from all three primes
    S = p * q
    params = HyperParams.of([F(1, S)], [F(1, 2)])
    xi, eps = F(1, 10**44), F(1, 10)
    start = time.perf_counter()
    rep = hyper.theorem6(params, xi, eps)
    assert time.perf_counter() - start < 2
    assert rep.b0 == 2 * S
    assert rep.decisive and rep.irrational
    _, _, eta0 = _theorem6_oracle(params, xi, eps, b0_primes=[2, p, q])
    assert eta0 is not None
    with mpmath.workdps(120):
        assert rep.measure_exponent >= eta0
        assert rep.measure_exponent - eta0 < mpmath.mpf(10) ** -4


def test_theorem6_widening_never_rejects_what_the_true_chi_proves():
    # xi = 1/a2 just past the threshold that the true chi(b0) gives (the
    # log-margin is 10^-5 there, below the widening's 0.33 ln(S)/10^6): the
    # criterion holds, so no verdict may come out decisively negative
    primes = [2, 10**15 + 37, 10**15 + 91]
    params = HyperParams.of([F(1, primes[1] * primes[2])], [F(1, 2)])
    eps = F(1, 10)
    _, C0, _ = _theorem6_oracle(params, F(1, 10), eps, b0_primes=primes)
    with mpmath.workdps(120):
        # m = 1, a1 = 1: the log-margin is (1 - 3 eps) ln a2 - ln C0
        a2 = int(mpmath.ceil(mpmath.exp((mpmath.log(C0) + mpmath.mpf(10) ** -5) * 10 / 7)))
    assert _theorem6_oracle(params, F(1, a2), eps, b0_primes=primes)[2] is not None
    rep = hyper.theorem6(params, F(1, a2), eps)
    assert rep.irrational or not rep.decisive


def test_theorem6_report_json():
    rep = hyper.theorem6(catalog.HYPER_M1, F(1, 10**20), F(1, 10))
    d = rep.to_dict()
    assert d["b0"] == 6
    assert isinstance(d["irrational"], bool)
    assert rep.to_json()


_HYPER_REPORT = Path(__file__).resolve().parent.parent / "scripts" / "hyper_report.py"


@pytest.mark.parametrize(
    "argv, code",
    [
        # the m = 2 docstring example: both certificates hold
        (["--alpha", "1/3", "--alpha", "1/5", "--beta", "1/2", "--beta", "1/4", "--k", "30"], 0),
        # both Lemma 11 certificates fail here
        (["--alpha", "1/3", "--alpha", "5/12", "--beta", "1/2", "--beta", "1/4", "--k", "12"], 1),
    ],
)
def test_hyper_report_exit_code_gates_on_the_certificate(monkeypatch, capsys, argv, code):
    main = runpy.run_path(str(_HYPER_REPORT))["main"]
    monkeypatch.setattr(sys, "argv", ["hyper_report.py", *argv])
    assert main() == code
    out = capsys.readouterr().out
    assert ("divides bound: True" in out) is (code == 0)
