"""Acceptance suite: one test per headline criterion, each emitting a single
PASS/FAIL line.  All checks are exact (integer divisibility / polynomial
equality); real-valued steps use 50-digit arithmetic."""

import math
import random
import time
from fractions import Fraction
from math import factorial, lcm

import mpmath
import pytest

from factcancel import arith, catalog, checks, constcoef as cc, falling, fuchs, hyper, matfun
from factcancel.checks import bracket_commuting_identity, bracket_sum_identity
from factcancel.matfun import MatQ
from factcancel.poly import UniPoly

F = Fraction


def report(num, ok, desc):
    print(f"[CRITERION {num}] {'PASS' if ok else 'FAIL'} - {desc}")
    assert ok, f"criterion {num} failed: {desc}"


def test_criterion_1_scalar_certificates():
    t0 = time.time()
    ok = True
    for lam in catalog.SCALAR_LAMBDAS:
        assert lam.denominator <= 30
        sweep = falling.certify_scalar_sweep(lam, 200, 1)
        ok = ok and all(sweep)
    elapsed = time.time() - t0
    report(
        1,
        ok and elapsed < 10.0,
        f"20 scalar certificates, every k <= 200, in {elapsed:.2f}s (< 10 s)",
    )


def test_criterion_2_derivative_certificates():
    ok = True
    for lam in catalog.SCALAR_LAMBDAS:
        for r in (2, 3, 4):
            ok = ok and all(falling.certify_scalar_sweep(lam, 100, r))
    report(2, ok, "derivative certificates r <= 4, every k <= 100, 20 lambdas")


def test_criterion_3_operator_identities():
    rng = random.Random(314)
    polys = [
        UniPoly(tuple(rng.randint(-9, 9) for _ in range(rng.randint(1, 9))))
        for _ in range(20)
    ]
    ok = True
    for i, lam in enumerate(catalog.SCALAR_LAMBDAS):
        f = polys[i]
        for n in range(1, 13):
            ok = ok and checks.operator_identity_14(lam, f, n)
    # cross-check a fixed pair against every polynomial
    for f in polys:
        ok = ok and checks.operator_identity_14(F(1, 2), f, 12)
    # s = 2 scalar and commuting-matrix versions
    for lam1, lam2, g1, g2 in [
        (F(1, 2), F(1, 3), F(0), F(1)),
        (F(-2, 5), F(3, 4), F(-1), F(2)),
    ]:
        for n in range(1, 9):
            ok = ok and checks.operator_identity_16([lam1, lam2], [g1, g2], polys[0], n)
    for system in catalog.fuchsian_catalog()[:3]:
        for n in range(1, 9):
            ok = ok and checks.operator_identity_24(system, n)
    report(3, ok, "derivative-operator expansions, n <= 12 scalar / n <= 8 two-pole")


def test_criterion_4_matrix_certificates():
    mats = catalog.matrix_catalog()
    assert len(mats) >= 10
    ok = True
    for A in mats:
        data = matfun.spectral(A)
        psi = 1
        for n, M in enumerate(matfun.matrix_delta_table(A, 60)):
            psi = lcm(psi, M.entry_denominator())
            if n >= 1:
                bound = (
                    data.t1
                    * data.t2
                    * data.b**n
                    * checks.lcm_upto(n) ** (data.r_max - 1)
                    * checks.prime_power_product(data.b, n)
                )
                ok = ok and bound % psi == 0
    for k in (1, 7, 30, 60):
        ok = ok and matfun.certify_matrix(catalog.IDEMPOTENT_HALF, k).psi_k == 2
    report(4, ok, "matrix certificates, every k <= 60, including psi_k = 2 example")


def test_criterion_5_bracket_oracle():
    systems = catalog.fuchsian_catalog()
    assert len(systems) >= 10
    assert any(not matfun.commuting_check(list(s.residues)) for s in systems)
    ok = True
    for system in systems:
        for n in range(0, 9):
            ok = ok and fuchs.qn_via_brackets(system, n) == fuchs.qn_recurrence(system, n)
    rng = random.Random(2718)
    for _ in range(4):
        mats = [catalog.random_rational_matrix(2, rng) for _ in range(3)]
        ok = ok and bracket_sum_identity(mats, 6)
    A = MatQ.diagonal([F(1, 2), F(-1, 3)])
    B = A @ A
    for n1 in range(4):
        for n2 in range(4):
            ok = ok and bracket_commuting_identity([A, B], (n1, n2))
    report(5, ok, "bracket expansion equals recurrence, n <= 8, 11 two-pole systems")


def test_criterion_6_hypergeometric_structure():
    ok = True
    for p in catalog.HYPER_CATALOG:
        m = p.m
        system = hyper.build_system(p)
        ok = ok and hyper.system_residual(p, system, 60)
        A1, A2 = hyper.adjoint_matrices(p)
        hom0 = MatQ([[system.residues[0][i, j] for j in range(1, m + 1)] for i in range(1, m + 1)])
        hom1 = MatQ([[system.residues[1][i, j] for j in range(1, m + 1)] for i in range(1, m + 1)])
        ok = ok and A1 == -hom0.transpose() and A2 == -hom1.transpose()
        forms = hyper.adjoint_system(p)
        ok = ok and forms.T_inv @ forms.T == MatQ.identity(m)
        ok = ok and forms.T_inv @ forms.A1 @ forms.T == MatQ.diagonal(p.beta)
        ok = ok and (forms.T_inv @ forms.A2 @ forms.T).transpose() == forms.B2
        ok = ok and forms.B2 @ forms.B2 == forms.B2.scale(forms.gamma)
        for n2 in (1, 2, 4):
            ok = ok and checks.projector_relations(forms, n2)
    report(6, ok, "series residual zero through z^59; adjoint closed forms exact")


def test_criterion_7_lemma11_certificates():
    ok = True
    for p in catalog.HYPER_CATALOG:
        cert = hyper.certify_lemma11(p, 40)
        ok = ok and cert.inner.divides and not cert.gamma_zero
    cert0 = hyper.certify_lemma11(catalog.HYPER_GAMMA0, 40)
    ok = ok and cert0.gamma_zero and cert0.inner.divides
    report(7, ok, "trinomial-lcm divisibility k <= 40, plus gamma = 0 variant")


def test_criterion_8_g_k_bound():
    ok = True
    with mpmath.workdps(50):
        for k in range(1, 301):
            g = arith.g_k(k)
            bound = 2 * arith.prime_pi(k) * mpmath.log(k) if k > 1 else 0
            ok = ok and mpmath.log(g) <= bound + mpmath.mpf(10) ** -40
    rng = random.Random(137)
    for k in (50, 100, 200):
        primes = checks.primes_upto(k)
        for _ in range(1000):
            k0 = rng.randint(0, k)
            k1 = rng.randint(0, k - k0)
            k2 = k - k0 - k1
            for p in primes:
                excess = (
                    checks.tau_p(p, k)
                    - checks.tau_p(p, k0)
                    - checks.tau_p(p, k1)
                    - checks.tau_p(p, k2)
                )
                ok = ok and excess <= 2 * int(math.log(k) / math.log(p))
    report(8, ok, "ln g_k <= 2 pi(k) ln k for k <= 300; per-composition p-adic bound")


def test_criterion_9_theorem6_pipeline():
    p = catalog.HYPER_M1
    eps = F(1, 10)
    rep = hyper.theorem6(p, F(1, 100000), eps)
    ok = rep.conditions.all_hold() and rep.b0 == 6 and rep.H == 1
    with mpmath.workdps(45):
        ok = ok and abs(rep.Phi - mpmath.e**2 / 2) < mpmath.mpf(10) ** -40
    with mpmath.workdps(60):
        threshold = int(mpmath.mpf(rep.C0) ** (mpmath.mpf(10) / 7))
    seen = []
    for a2 in (threshold - 1, threshold, threshold + 1, threshold + 2):
        r = hyper.theorem6(p, F(1, a2), eps)
        with mpmath.workdps(60):
            direct = mpmath.mpf(a2) ** F(7, 10) > mpmath.mpf(rep.C0)
        ok = ok and r.decisive and r.irrational == direct
        if r.irrational:
            ok = ok and r.eta0 > 0
        seen.append(r.irrational)
    ok = ok and seen[0] is False and seen[-1] is True
    report(9, ok, "b0=6, H=1, Phi=e^2/2; verdict flips exactly at the inequality")


def test_criterion_10_operator_ring_suite():
    rng = random.Random(555)
    mats = [
        catalog.IDEMPOTENT_HALF,
        MatQ.diagonal([F(1, 2), F(1, 3)]),
        MatQ([[F(1, 2), F(1)], [F(0), F(1, 3)]]),
        MatQ([[rng.randint(-2, 2) for _ in range(2)] for _ in range(2)]).scale(F(1, 2)),
    ] + [catalog.random_rational_matrix(n, rng, den=3) for n in (2, 2, 3, 3)]
    assert len(mats) >= 8
    ok = True
    for A in mats:
        top = 8 if A.size <= 2 else 6
        for n in range(1, top + 1):
            ok = ok and cc.lemma17_rhs(A, n) == cc.script_A_n(A, n).scale(
                F(1, factorial(n))
            )
    # exhaustive weighted-partition inequality
    for n in range(1, 13):
        for s in cc.partitions_weighted(n):
            for p in (2, 3, 5, 7):
                ok = ok and checks.lemma19_inequality(s, p)
    for A in catalog.constcoef_catalog():
        ok = ok and cc.certify_constcoef(A, 40).divides
    report(10, ok, "partition expansion n <= 8; p-adic inequality; operator certificates k <= 40")


def test_criterion_11_cross_module_consistency():
    ok = True
    # m = 1: scalar denominators embed in the two-pole system denominators
    p = catalog.HYPER_M1
    beta = p.beta[0]
    system = hyper.adjoint_fuchsian(p)
    q = 1
    for g in system.gammas:
        q *= g.denominator
    ok = ok and q == 1
    for k in (5, 10, 20):
        sys_psi = fuchs.certify_system(system, k).psi_k
        scal_psi = falling.certify_scalar(beta, k).psi_k
        ok = ok and sys_psi % scal_psi == 0
    for lam in catalog.SCALAR_LAMBDAS:
        for n in range(0, 25):
            ok = ok and falling.delta_derivatives(lam, n, 1) == [checks.delta(lam, n)]
    report(11, ok, "m=1 system absorbs the scalar certificate; r=1 derivatives reduce")
