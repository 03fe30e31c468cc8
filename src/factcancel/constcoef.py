"""Polynomial-ring differential-operator calculus for constant matrices.

The derivation [A] = sum_{l,j} A_{lj} y_j d/dy_l on Q[y_1..y_m], the
commutative symbol product of such operators, their true composition in
normal form (which obeys [B] o [A] = [AB] + [A].[B]), the iterated
composition with shifted scalars, its partition expansion after division by
n!, and the resulting exact denominator certificate for matrices with
rational spectrum and squarefree minimal polynomial.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import comb, factorial, lcm

from . import arith, falling
from .certificate import CancellationCertificate, certify
from .errors import NotPrime, RepeatedRootMinPoly
from .matfun import MatQ, _compositions, _flag_basis, matrix_delta, spectral
from .poly import MultiPoly


class LinearDiffOp:
    """Normal form sum_mu c_mu(y) d^mu, mu a mixed-partial multi-index over
    the m variables and c_mu an expanded polynomial coefficient."""

    __slots__ = ("m", "terms")

    def __init__(self, m: int, terms=None):
        self.m = m
        t = {}
        if terms:
            for mu, c in (terms.items() if isinstance(terms, dict) else terms):
                mu = tuple(mu)
                if len(mu) != m:
                    raise ValueError("multi-index arity mismatch")
                if not isinstance(c, MultiPoly):
                    c = MultiPoly.constant(m, c)
                if not c.is_zero():
                    acc = t.get(mu)
                    c = c if acc is None else acc + c
                    if c.is_zero():
                        t.pop(mu, None)
                    else:
                        t[mu] = c
        self.terms = t

    @staticmethod
    def zero(m: int) -> "LinearDiffOp":
        return LinearDiffOp(m)

    @staticmethod
    def identity(m: int) -> "LinearDiffOp":
        return LinearDiffOp(m, {(0,) * m: MultiPoly.constant(m, 1)})

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, LinearDiffOp)
            and self.m == other.m
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.m, frozenset(self.terms.items())))

    def __repr__(self):
        return f"LinearDiffOp({self.m}, {self.terms!r})"

    def __add__(self, other: "LinearDiffOp") -> "LinearDiffOp":
        out = LinearDiffOp(self.m, dict(self.terms))
        for mu, c in other.terms.items():
            acc = out.terms.get(mu)
            c = c if acc is None else acc + c
            if c.is_zero():
                out.terms.pop(mu, None)
            else:
                out.terms[mu] = c
        return out

    def __neg__(self) -> "LinearDiffOp":
        return self.scale(-1)

    def __sub__(self, other: "LinearDiffOp") -> "LinearDiffOp":
        return self + (-other)

    def scale(self, c) -> "LinearDiffOp":
        return LinearDiffOp(
            self.m, {mu: p.scale(c) for mu, p in self.terms.items()}
        )

    def shift(self, c) -> "LinearDiffOp":
        """self + c * identity."""
        return self + LinearDiffOp.identity(self.m).scale(c)

    def apply(self, poly: MultiPoly) -> MultiPoly:
        out = MultiPoly.zero(self.m)
        for mu, c in self.terms.items():
            out = out + c * poly.partial_multi(mu)
        return out


def formal_product(ops) -> "LinearDiffOp":
    """Commutative symbol product: coefficients multiply, derivative
    multi-indices add, coefficients are never differentiated."""
    ops = list(ops)
    if not ops:
        raise ValueError("empty product has no arity; pass [identity(m)]")
    out = LinearDiffOp.identity(ops[0].m)
    for op in ops:
        t = {}
        for mu1, c1 in out.terms.items():
            for mu2, c2 in op.terms.items():
                mu = tuple(a + b for a, b in zip(mu1, mu2))
                c = c1 * c2
                acc = t.get(mu)
                c = c if acc is None else acc + c
                if c.is_zero():
                    t.pop(mu, None)
                else:
                    t[mu] = c
        nxt = LinearDiffOp(op.m)
        nxt.terms = t
        out = nxt
    return out


def _multi_binom(mu, kappa) -> int:
    out = 1
    for a, b in zip(mu, kappa):
        out *= comb(a, b)
    return out


def compose(outer: "LinearDiffOp", inner: "LinearDiffOp") -> "LinearDiffOp":
    """True operator composition outer o inner, normal-ordered by the
    Leibniz rule: c d^mu (d p(y)) = c sum_{kappa<=mu} C(mu,kappa)
    (d^kappa d)(y) d^{mu-kappa}."""
    if outer.m != inner.m:
        raise ValueError("operator arity mismatch")
    out = LinearDiffOp.zero(outer.m)
    for mu, c in outer.terms.items():
        for nu, d in inner.terms.items():
            for kappa in product(*(range(x + 1) for x in mu)):
                dk = d.partial_multi(kappa)
                if dk.is_zero():
                    continue
                idx = tuple(a - b + e for a, b, e in zip(mu, kappa, nu))
                out = out + LinearDiffOp(
                    outer.m, {idx: (c * dk).scale(_multi_binom(mu, kappa))}
                )
    return out


def bracket_op(A: MatQ) -> "LinearDiffOp":
    """The derivation with first-order coefficients b_l(y) = sum_j A_{lj} y_j."""
    m = A.size
    terms = {}
    for l in range(m):
        c = MultiPoly.zero(m)
        for j in range(m):
            if A[l, j]:
                c = c + MultiPoly.variable(m, j).scale(A[l, j])
        if not c.is_zero():
            mu = [0] * m
            mu[l] = 1
            terms[tuple(mu)] = c
    return LinearDiffOp(m, terms)


def script_A_n(A: MatQ, n: int, reverse: bool = False) -> "LinearDiffOp":
    """The n-fold composition of the shifted derivations
    ([A]-n+1) o ([A]-n+2) o ... o [A]; the shift order does not matter
    (reverse=True builds the factors in the opposite order)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    base = bracket_op(A)
    shifts = list(range(n - 1, -1, -1)) if reverse else list(range(n))
    out = base.shift(-shifts[0])
    for c in shifts[1:]:
        out = compose(base.shift(-c), out)
    return out


def partitions_weighted(n: int):
    """All (s_1..s_n) of nonnegative integers with sum i*s_i = n."""
    if n > 20:
        raise ValueError("partition enumeration capped at n = 20")

    def rec(remaining, max_part):
        if remaining == 0:
            yield {}
            return
        for i in range(min(max_part, remaining), 0, -1):
            for s in range(remaining // i, 0, -1):
                for rest in rec(remaining - i * s, i - 1):
                    d = dict(rest)
                    d[i] = s
                    yield d

    for d in rec(n, n):
        yield tuple(d.get(i, 0) for i in range(1, n + 1))


def lemma17_rhs(A: MatQ, n: int) -> "LinearDiffOp":
    """Partition expansion: sum over s_1 + 2 s_2 + ... + n s_n = n of
    prod_i (1/s_i!) [Delta_i(A)]^{s_i}, powers as symbol products."""
    m = A.size
    out = LinearDiffOp.zero(m)
    deltas = {}
    for s in partitions_weighted(n):
        factors = []
        weight = Fraction(1)
        for i, si in enumerate(s, start=1):
            if si == 0:
                continue
            if i not in deltas:
                deltas[i] = bracket_op(matrix_delta(A, i))
            factors.extend([deltas[i]] * si)
            weight /= factorial(si)
        out = out + formal_product(factors).scale(weight)
    return out


def monomial_integrality_check(B: MatQ, s: int, degree_cap: int) -> bool:
    """For integral B, (1/s!) [B]^s (symbol power) maps every monomial of
    degree <= degree_cap into Z[y]."""
    if B.entry_denominator() != 1:
        raise ValueError("B must be integral")
    m = B.size
    if s == 0:
        return True
    op = formal_product([bracket_op(B)] * s).scale(Fraction(1, factorial(s)))
    for d in range(degree_cap + 1):
        for expo in _compositions(d, m):
            if not op.apply(MultiPoly.monomial(m, expo)).is_integral():
                return False
    return True


def lemma19_inequality(s, p: int) -> bool:
    """sum_i s_i tau_p(i) <= tau_p(sum_i i s_i), exactly."""
    if not arith.is_prime(p):
        raise NotPrime(f"{p} is not prime")
    lhs = sum(si * arith.tau_p(p, i) for i, si in enumerate(s, start=1))
    n = sum(i * si for i, si in enumerate(s, start=1))
    return lhs <= arith.tau_p(p, n)


def _induced_matrices(qA: list[list[int]], degree_cap: int):
    """Yield, for d = 1..degree_cap, the integer matrix S_d of [qA] on the
    degree-d monomials: column y^e holds sum_{l,j} q A_{lj} e_l y^{e-u_l+u_j}."""
    m = len(qA)
    for d in range(1, degree_cap + 1):
        basis = list(_compositions(d, m))
        index = {e: i for i, e in enumerate(basis)}
        S = [[0] * len(basis) for _ in basis]
        for col, e in enumerate(basis):
            for l in range(m):
                if not e[l]:
                    continue
                for j in range(m):
                    if qA[l][j]:
                        f = list(e)
                        f[l] -= 1
                        f[j] += 1
                        S[index[tuple(f)]][col] += qA[l][j] * e[l]
        yield S


def certify_constcoef(
    A: MatQ, k: int, degree_cap: int = 4
) -> CancellationCertificate:
    """psi_k = lcm of coefficient denominators of (1/n!) A_n applied to all
    monomials of degree <= degree_cap, n <= k; the target divisor is
    (t1 t2)^k b^k prod_{p|b} p^{tau_p(k)}.

    [A] preserves degree, so on the degree-d monomials (1/n!) A_n is
    Delta_n(S_d/q) for the integer matrix S_d of q[A]; psi_k is the lcm of
    the falling.delta_steps denominators over d = 1..degree_cap (constants
    are killed by [A]).  q A is taken in its flag form C = V (qA) V^-1
    (matfun._flag_basis): the unimodular V changes the monomial basis of
    each degree unimodularly, so the denominators stay those of q[A], and
    as C is upper triangular, each S_d of C is upper triangular in
    _compositions order.  Requires rational spectrum and squarefree minimal
    polynomial; degrees above degree_cap are untested.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if degree_cap < 1:
        raise ValueError("degree_cap must be >= 1")
    data = spectral(A)
    if data.r_max > 1:
        raise RepeatedRootMinPoly("minimal polynomial has a repeated root")
    q, qA = _flag_basis(A, data)
    degrees = [falling.delta_steps(S, q, k) for S in _induced_matrices(qA, degree_cap)]
    dens = (lcm(*(D for _, D in steps)) for steps in zip(*degrees))
    return certify(k, dens, data.b, base=data.t1 * data.t2)
