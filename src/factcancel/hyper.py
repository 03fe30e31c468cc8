"""Generalized hypergeometric machinery.

The series F(alpha; beta+1 | z) as its coefficient list, its first-order
system at the poles 0 and 1 (in augmented form, checked against the series
as a three-term identity on coefficients), the adjoint system with its
explicit eigen-structure, the trinomial-lcm denominator certificate for the
adjoint system, the geometric-growth class constant Phi, the four
irreducibility conditions, and the irrationality decision with its explicit
constants C0 and eta0.  The paper's checks on these objects (projector,
partial fractions, Wronskian) are in ``checks``.

``fuchs`` and ``matfun`` are imported inside the functions that build a
matrix system, and ``certificate`` inside certify_lemma11, so the series,
conditions and theorem6 paths load none of them.
``mpmath`` is imported only by the interval code (theorem6 and its
report): Phi, chi(b0), C0 and eta0 are each enclosed once, in a private
interval context, and reported as the midpoints of those enclosures.
Certificate constants come from ``decimal``.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from fractions import Fraction
from math import factorial, gcd, lcm, prod
from typing import Optional

from . import arith
from .errors import (
    ConditionsFailed,
    EpsilonOutOfRange,
    InvalidBeta,
    RepeatedBeta,
    XiZero,
)


def _fr(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


@dataclass(frozen=True)
class HyperParams:
    """Upper parameters alpha and (unshifted) lower parameters beta; the
    series uses beta_j + 1 downstairs, so beta_j must avoid {-1, -2, ...}."""

    m: int
    alpha: tuple
    beta: tuple

    def __post_init__(self):
        al = tuple(_fr(a) for a in self.alpha)
        be = tuple(_fr(b) for b in self.beta)
        object.__setattr__(self, "alpha", al)
        object.__setattr__(self, "beta", be)
        if len(al) != self.m or len(be) != self.m:
            raise ValueError("need m upper and m lower parameters")
        for b in be:
            if b.denominator == 1 and b <= -1:
                raise InvalidBeta(f"beta = {b} makes series denominators vanish")

    @staticmethod
    def of(alpha, beta) -> "HyperParams":
        alpha = list(alpha)
        return HyperParams(m=len(alpha), alpha=tuple(alpha), beta=tuple(beta))

    def gamma(self) -> Fraction:
        return sum(self.alpha, Fraction(0)) - sum(self.beta, Fraction(0))

    def betas_distinct(self) -> bool:
        return len(set(self.beta)) == self.m

    def to_json(self) -> str:
        return json.dumps(
            {
                "alpha": [arith.format_rat(a) for a in self.alpha],
                "beta": [arith.format_rat(b) for b in self.beta],
            }
        )

    @staticmethod
    def from_json(s: str) -> "HyperParams":
        """Parse the to_json form; any other shape raises ValueError."""
        d = json.loads(s)
        if not (
            isinstance(d, dict)
            and isinstance(d.get("alpha"), list)
            and isinstance(d.get("beta"), list)
        ):
            raise ValueError('hypergeometric parameters need "alpha" and "beta" lists')
        return HyperParams.of(
            [arith.parse_rat(a) for a in d["alpha"]],
            [arith.parse_rat(b) for b in d["beta"]],
        )


def series(params: HyperParams, N: int) -> list[Fraction]:
    """The exact Taylor coefficients [f_0, ..., f_N] of
    sum <-a_1>_n...<-a_m>_n / (<-b_1-1>_n...<-b_m-1>_n) z^n."""
    coeffs = [Fraction(1)]
    cur = Fraction(1)
    for n in range(1, N + 1):
        # ratio of consecutive terms: prod (-a_i-n+1)/(-b_i-n)
        for a in params.alpha:
            cur *= -a - (n - 1)
        for b in params.beta:
            cur /= -b - n
        coeffs.append(cur)
    return coeffs


def vieta(params: HyperParams) -> tuple[list[Fraction], list[Fraction]]:
    """Elementary symmetric values sigma_l(alpha), sigma_l(beta), l = 1..m,
    from the expansions of prod (z + alpha_i) and prod (z + beta_j)."""

    def sigmas(vals):
        return arith.from_roots(-v for v in vals)[-2::-1]

    return sigmas(params.alpha), sigmas(params.beta)


def build_system(params: HyperParams) -> FuchsianSystem:
    """The augmented (m+1)x(m+1) first-order system at the poles {0, 1}
    satisfied by (1, f, delta f, ..., delta^{m-1} f)."""
    from .fuchs import FuchsianSystem
    from .matfun import MatQ

    m = params.m
    sa, sb = vieta(params)
    Z0 = [[Fraction(0)] * (m + 1) for _ in range(m + 1)]
    Z1 = [[Fraction(0)] * (m + 1) for _ in range(m + 1)]
    for l in range(1, m):
        Z0[l][l + 1] = Fraction(1)
    # last row: d/dz y_m picks up every y_l and the inhomogeneous term
    Z0[m][0] = sb[m - 1]
    Z1[m][0] = -sb[m - 1]
    for l in range(1, m + 1):
        # coefficient of y_l carries sigma_{m+1-l}
        Z0[m][l] = -sb[m - l]
        Z1[m][l] = sb[m - l] - sa[m - l]
    return FuchsianSystem(
        m=m,
        gammas=(Fraction(0), Fraction(1)),
        residues=(MatQ(Z0), MatQ(Z1)),
        augmented=True,
    )


def system_residual(params: HyperParams, system: FuchsianSystem, N: int) -> bool:
    """True iff Y = (1, f, delta f, ..., delta^{m-1} f) satisfies
    z(z-1) Y' = (Z0 (z-1) + Z1 z) Y, (Z0, Z1) the residues of system (as
    built by build_system(params)), exactly through the z^{N-1} coefficient.

    The z^n coefficient of Y is y_n = (delta_{n0}, f_n, n f_n, ...,
    n^{m-1} f_n), so the z^n coefficient of the system is the three-term
    identity (n-1) y_{n-1} - n y_n = -Z0 y_n + (Z0 + Z1) y_{n-1}, y_{-1} = 0.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    Z0, Z1 = system.residues
    # row l of the identity as its nonzero terms (j, Z0[l][j], (Z0 + Z1)[l][j])
    rows = [
        [(j, a, a + b) for j, (a, b) in enumerate(zip(r0, r1)) if a or b]
        for r0, r1 in zip(Z0.rows, Z1.rows)
    ]
    prev = [0] * len(rows)
    for n, fn in enumerate(series(params, N - 1)):
        y = [int(n == 0)] + [n**i * fn for i in range(params.m)]
        for l, row in enumerate(rows):
            rhs = sum(s * prev[j] - a * y[j] for j, a, s in row)
            if (n - 1) * prev[l] - n * y[l] != rhs:
                return False
        prev = y
    return True


@dataclass(frozen=True)
class SpectralForms:
    """Closed-form spectral data of the adjoint homogeneous system."""

    sigma_alpha: tuple
    sigma_beta: tuple
    gamma: Fraction
    A1: MatQ
    A2: MatQ
    T: MatQ
    T_inv: MatQ
    a: tuple
    B1: MatQ
    B2: MatQ


def adjoint_matrices(params: HyperParams) -> tuple[MatQ, MatQ]:
    """A1 (sign-flipped Frobenius block, spectrum beta) and the rank-one A2
    of the adjoint system y' = (A1/z + A2/(z-1)) y."""
    from .matfun import MatQ

    m = params.m
    sa, sb = vieta(params)
    A1 = [[Fraction(0)] * m for _ in range(m)]
    A2 = [[Fraction(0)] * m for _ in range(m)]
    for l in range(m):
        A1[l][m - 1] = sb[m - 1 - l]
        A2[l][m - 1] = sa[m - 1 - l] - sb[m - 1 - l]
        if l >= 1:
            A1[l][l - 1] = Fraction(-1)
    return MatQ(A1), MatQ(A2)


def adjoint_system(params: HyperParams) -> SpectralForms:
    """All closed forms from the eigen-decomposition of A1: eigenvector
    matrix T, its explicit inverse, the vector a, and B1, B2."""
    from .matfun import MatQ

    if not params.betas_distinct():
        raise RepeatedBeta("closed forms require pairwise distinct beta")
    m = params.m
    sa, sb = vieta(params)
    A1, A2 = adjoint_matrices(params)
    beta = params.beta
    # column j: sigma_{m-1-l}(beta with beta_j removed), top to bottom
    columns = [arith.from_roots(-beta[k] for k in range(m) if k != j) for j in range(m)]
    T = MatQ(list(zip(*columns)))
    T_inv = [[Fraction(0)] * m for _ in range(m)]
    for l in range(m):
        d = Fraction(1)
        for k in range(m):
            if k != l:
                d *= beta[l] - beta[k]
        for j in range(m):
            T_inv[l][j] = (-1) ** (m + j + 1) * beta[l] ** j / d
    T_inv = MatQ(T_inv)
    a = []
    for j in range(m):
        v = -(beta[j] - params.alpha[j])
        for k in range(m):
            if k != j:
                v *= (beta[j] - params.alpha[k]) / (beta[j] - beta[k])
        a.append(v)
    B1 = MatQ.diagonal(beta)
    B2 = MatQ([[aj for aj in a] for _ in range(m)])
    return SpectralForms(
        sigma_alpha=tuple(sa),
        sigma_beta=tuple(sb),
        gamma=params.gamma(),
        A1=A1,
        A2=A2,
        T=T,
        T_inv=T_inv,
        a=tuple(a),
        B1=B1,
        B2=B2,
    )


def adjoint_fuchsian(params: HyperParams) -> FuchsianSystem:
    from .fuchs import FuchsianSystem

    A1, A2 = adjoint_matrices(params)
    return FuchsianSystem(
        m=params.m, gammas=(Fraction(0), Fraction(1)), residues=(A1, A2)
    )


@dataclass(frozen=True)
class Lemma11Certificate:
    """Two-sided denominator certificate for the adjoint system.

    inner: measured lcm of denominators of gamma <B1,B2>_{n1,n2}/(n1+n2)!
    (without the gamma factor when gamma = 0, where the target gains d_k)
    against g_k a b^k prod p^{tau_p(k)}.  outer: the system-level psi_k of
    the adjoint system against t1 t2 times the inner target.

    The inner psi runs the fraction-free generator fuchs._scaled_qn of
    R_n = T^n Q^[n]/n! = N_n/D_n for residues B1^T at 0 and B2^T at 1: each n
    adds D_n, or den(gamma content(N_n)/D_n) when gamma != 0.  That is the
    bracket definition: R_n^T = sum <B1,B2>_{n1,n2}/n! z^{n2} (z-1)^{n1}, and
    the z^j (z-1)^{n-j} are a Z-basis of Z[z]_{<=n}, so the bracket entries
    and the coefficients of R_n span one Z-module, (content(N_n)/D_n) Z.
    """

    inner: CancellationCertificate
    outer: CancellationCertificate
    gamma_zero: bool
    a: int
    b: int
    t1: int
    t2: int


def certify_lemma11(params: HyperParams, k: int) -> Lemma11Certificate:
    from .certificate import certify, make_certificate
    from .fuchs import FuchsianSystem, _content, _scaled_qn

    if k < 1:
        raise ValueError("k must be >= 1")
    forms = adjoint_system(params)
    g = forms.gamma
    gamma_zero = g == 0
    a = arith.common_denominator(forms.a)
    b = arith.common_denominator((g,) + params.beta)
    brackets = FuchsianSystem(params.m, (0, 1), (forms.B1.transpose(), forms.B2.transpose()))
    dens = (
        D if gamma_zero else (g * Fraction(_content(N), D)).denominator
        for N, D in _scaled_qn(brackets, k)
    )
    inner = certify(
        k, dens, b, d_exp=int(gamma_zero), scale=arith.g_k(k) * a, shift=3 if gamma_zero else 2
    )
    # the outer psi is certify_system's psi_k on the adjoint system (A1 at 0,
    # A2 at 1), measured without the system bound that certify_system builds
    psi_outer = lcm(*(D for _, D in _scaled_qn(adjoint_fuchsian(params), k)))
    t1 = forms.T.entry_denominator()
    t2 = forms.T_inv.entry_denominator()
    outer = make_certificate(k, psi_outer, t1 * t2 * inner.bound_k, inner.asymptotic_constant)
    return Lemma11Certificate(
        inner=inner, outer=outer, gamma_zero=gamma_zero, a=a, b=b, t1=t1, t2=t2
    )


#: the private interval context of Phi and theorem6, made on first use: its
#: precision is set per call, and the global mpmath.iv is never written
_IV = None


def _interval_context(digits: int):
    """The private interval context, set to `digits` decimal digits."""
    global _IV
    if _IV is None:
        import mpmath

        _IV = mpmath.ctx_iv.MPIntervalContext()
    _IV.dps = digits
    return _IV


def _mid(x):
    """The midpoint of the interval x, as an mpmath.mpf with all its bits."""
    import mpmath

    return mpmath.mp.make_mpf(x.mid._mpi_[0])


@dataclass(frozen=True)
class GClassEstimate:
    """Geometric-growth data of the series: common denominators of the
    coefficients f_0..f_k grow like Phi^k inside the unit disk."""

    radius: int
    Phi: object
    b: int
    q1: int
    q2: int
    b_js: tuple
    digits: int = arith.DEFAULT_DIGITS


def _phi_enclosure(params: HyperParams, digits: int) -> tuple[GClassEstimate, object]:
    """The G-class data, with Phi the midpoint, and the interval enclosure
    of Phi in the private interval context at `digits` digits."""
    iv = _interval_context(digits)
    q1 = prod(al.denominator for al in params.alpha)
    q2 = prod(be.denominator for be in params.beta)
    b = lcm(q1, q2)
    b_js = tuple(be.denominator for be in params.beta)
    rho = iv.mpf(0)
    for bj in b_js:
        r = arith.rho_exact(bj)
        rho += iv.mpf(r.numerator) / r.denominator
    phi = iv.exp(rho) * q1 / b
    est = GClassEstimate(radius=1, Phi=_mid(phi), b=b, q1=q1, q2=q2, b_js=b_js, digits=digits)
    return est, phi


# ---------------------------------------------------------------------------
# irreducibility conditions


def _frac(x: Fraction) -> Fraction:
    return x - (x.numerator // x.denominator)


def _is_full_coset(values, mm: int) -> Optional[Fraction]:
    """If the multiset of fractional parts is {w + i/mm mod 1 : i < mm},
    return w (the common fractional part of mm*value); else None."""
    fr = sorted(_frac(v) for v in values)
    if len(set(fr)) != mm:
        return None
    anchors = {_frac(v * mm) for v in values}
    if len(anchors) != 1:
        return None
    return min(fr)


def _equiv(xs, ys) -> bool:
    """The integer-shift permutation relation: equal multisets of
    fractional parts."""
    return sorted(_frac(x) for x in xs) == sorted(_frac(y) for y in ys)


def _belyi_pair_exists(split_side, coset_side, m: int) -> bool:
    """Does some (m1, m2) split of split_side into two arithmetic families
    u/m1-type and v/m2-type exist with coset_side matching the (u+v)/m
    family, for compatible u, v?"""
    if not _is_full_coset(coset_side, m):
        return False
    coset_fracs = {_frac(v) for v in coset_side}
    idx = range(m)
    for m1 in range(1, m):
        m2 = m - m1
        g = gcd(m1, m2)
        for subset in itertools.combinations(idx, m1):
            rest = [i for i in idx if i not in subset]
            w1 = _is_full_coset([split_side[i] for i in subset], m1)
            w2 = _is_full_coset([split_side[i] for i in rest], m2)
            if w1 is None or w2 is None:
                continue
            S = m1 * w1 + m2 * w2
            for t in range(m // g):
                if _frac(Fraction(S + g * t, m) * 1) in coset_fracs:
                    return True
    return False


@dataclass(frozen=True)
class ConditionsReport:
    linear: bool
    belyi: bool
    kummer: bool
    gamma_nonintegral: bool
    diagnostics: tuple

    def all_hold(self) -> bool:
        return self.linear and self.belyi and self.kummer and self.gamma_nonintegral

    def failed(self) -> list[int]:
        flags = [self.linear, self.belyi, self.kummer, self.gamma_nonintegral]
        return [i + 1 for i, ok in enumerate(flags) if not ok]


def check_conditions(params: HyperParams) -> ConditionsReport:
    """The four sufficient conditions for algebraic independence of the
    derivative family: no integral alpha-beta difference; no interlacing
    arithmetic-progression ("Belyi") parameter families; no common 1/m0
    shift symmetry; 2 gamma not an integer."""
    m = params.m
    diags = []
    linear = True
    for al in params.alpha:
        for be in params.beta:
            if (al - be).denominator == 1:
                linear = False
                diags.append(f"alpha - beta = {al - be} is integral")
    belyi = True
    if m >= 2:
        if _belyi_pair_exists(params.alpha, params.beta, m) or _belyi_pair_exists(
            params.beta, params.alpha, m
        ):
            belyi = False
            diags.append("arithmetic-progression family match found")
    kummer = True
    if m >= 2:
        for m0 in range(2, m + 1):
            if m % m0:
                continue
            shift = Fraction(1, m0)
            if _equiv(params.alpha, [a + shift for a in params.alpha]) and _equiv(
                params.beta, [b + shift for b in params.beta]
            ):
                kummer = False
                diags.append(f"common 1/{m0} shift symmetry")
    two_gamma = 2 * params.gamma()
    gamma_ok = two_gamma.denominator != 1
    if not gamma_ok:
        diags.append(f"2*gamma = {two_gamma} is integral")
    return ConditionsReport(
        linear=linear,
        belyi=belyi,
        kummer=kummer,
        gamma_nonintegral=gamma_ok,
        diagnostics=tuple(diags),
    )


# ---------------------------------------------------------------------------
# the irrationality decision


@dataclass(frozen=True)
class Theorem6Report:
    conditions: ConditionsReport
    b0: int
    H: Fraction
    Phi: object
    C0: object
    eta0: object
    xi: Fraction
    epsilon: Fraction
    irrational: bool
    decisive: bool
    measure_exponent: object
    digits: int

    def to_dict(self) -> dict:
        import mpmath

        return {
            "conditions": {
                "linear": self.conditions.linear,
                "belyi": self.conditions.belyi,
                "kummer": self.conditions.kummer,
                "gamma_nonintegral": self.conditions.gamma_nonintegral,
            },
            "b0": self.b0,
            "H": arith.format_rat(self.H),
            "Phi": mpmath.nstr(self.Phi, self.digits),
            "C0": mpmath.nstr(self.C0, self.digits),
            "eta0": None if self.eta0 is None else mpmath.nstr(self.eta0, self.digits),
            "xi": arith.format_rat(self.xi),
            "epsilon": arith.format_rat(self.epsilon),
            "irrational": self.irrational,
            "decisive": self.decisive,
            "measure_exponent": None
            if self.measure_exponent is None
            else mpmath.nstr(self.measure_exponent, self.digits),
            "digits": self.digits,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)


def _height(params: HyperParams) -> Fraction:
    """Max absolute coefficient of prod (z+alpha_i) and prod (z+beta_j),
    leading 1 included."""
    sa, sb = vieta(params)
    vals = [Fraction(1)] + [abs(v) for v in sa + sb]
    return max(vals)


def theorem6(
    params: HyperParams,
    xi: Fraction,
    epsilon: Fraction,
    digits: int = arith.DEFAULT_DIGITS,
) -> Theorem6Report:
    """Evaluate the explicit irrationality criterion for f(xi).

    C0 = (8 b0 H e^{chi(b0)+3})^{eps(1-ln eps)}
         * Phi^{1+eps+(2-(m-1)eps)/(eps^m (m-1)!)},
    verdict: a2^{1-(m+2)eps} > C0 |a1|^{2-(m+1)eps} with xi = a1/a2 in
    lowest terms; evaluated in interval arithmetic so that irrational=True
    is only reported when the inequality provably holds at the working
    precision (decisive=False flags a straddling interval).

    Phi, chi(b0), C0 and eta0 = num/den, num = (1+eps) ln a2 + ln C0,
    den = (1-(m+2)eps) ln a2 - ln C0 - (2-(m+1)eps) ln|a1|, are each
    enclosed once, at `digits` decimal digits; the report carries the
    midpoints of those enclosures.  den is the log-margin of the verdict,
    and eta0 is None unless den is provably positive.
    """
    xi = _fr(xi)
    epsilon = _fr(epsilon)
    if xi == 0:
        raise XiZero("the evaluation point must be nonzero")
    m = params.m
    if not (0 < epsilon < Fraction(1, m + 2)):
        raise EpsilonOutOfRange(f"epsilon must lie in (0, 1/{m + 2})")
    if not params.betas_distinct():
        raise RepeatedBeta("theorem requires pairwise distinct beta")
    conditions = check_conditions(params)
    if not conditions.all_hold():
        raise ConditionsFailed(conditions.failed())
    a1, a2 = xi.numerator, xi.denominator
    b0 = arith.common_denominator((params.gamma(),) + params.beta)
    H = _height(params)
    iv = _interval_context(digits)
    est, ivPhi = _phi_enclosure(params, digits)
    ivH = iv.mpf(H.numerator) / H.denominator
    iv_chi = iv.mpf(0)
    for p in arith.prime_factors(b0):
        iv_chi += iv.log(p) / (p - 1)
    iv_eps = iv.mpf(epsilon.numerator) / epsilon.denominator
    iv_base = 8 * b0 * ivH * iv.exp(iv_chi + 3)
    iv_expo = 1 + iv_eps + (2 - (m - 1) * iv_eps) / (
        iv_eps**m * factorial(m - 1)
    )
    ln_base = iv.log(iv_base) * iv_eps * (1 - iv.log(iv_eps))
    ln_phi = iv.log(ivPhi) * iv_expo
    ivC0 = iv.exp(ln_base) * iv.exp(ln_phi)
    ln_a2 = iv.log(iv.mpf(a2))
    ln_a1 = iv.log(iv.mpf(abs(a1)))
    # outward-rounded decision
    lhs = iv.exp(ln_a2 * (1 - (m + 2) * iv_eps))
    rhs = ivC0 * iv.exp(ln_a1 * (2 - (m + 1) * iv_eps))
    if lhs.a > rhs.b:
        irrational, decisive = True, True
    elif lhs.b < rhs.a:
        irrational, decisive = False, True
    else:
        irrational, decisive = False, False
    ln_c0 = ln_base + ln_phi
    num = (1 + iv_eps) * ln_a2 + ln_c0
    den = (1 - (m + 2) * iv_eps) * ln_a2 - ln_c0 - (2 - (m + 1) * iv_eps) * ln_a1
    # den is the verdict's log-margin: eta0 is an exponent only where den > 0
    eta0 = _mid(num / den) if den.a > 0 else None
    measure = eta0 if irrational else None
    return Theorem6Report(
        conditions=conditions,
        b0=b0,
        H=H,
        Phi=est.Phi,
        C0=_mid(ivC0),
        eta0=eta0,
        xi=xi,
        epsilon=epsilon,
        irrational=irrational,
        decisive=decisive,
        measure_exponent=measure,
        digits=digits,
    )
