"""Polynomial-ring differential-operator calculus for constant matrices.

A normal-ordered operator sum c_mu(y) d^mu on Q[y_1..y_m] is its symbol, a
poly.MultiPoly in y_1..y_m then w_1..w_m (w_l stands for d/dy_l).  The
derivation [A] = sum_{l,j} A_{lj} y_j d/dy_l, the symbol product, true
composition (which obeys [B] o [A] = [AB] + [A].[B]), the iterated
composition with shifted scalars and its partition expansion after division
by n! are Lemma 17's oracles, and import poly when they run; the exact
denominator certificate for matrices with rational spectrum and squarefree
minimal polynomial reads integer matrices, so `certify constcoef` never
loads poly.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from itertools import product
from math import comb, factorial, lcm, prod
from operator import add, mul, sub

from . import falling
from .certificate import CancellationCertificate, certify
from .errors import RepeatedRootMinPoly
from .matfun import MatQ, _compositions, _flag_basis, matrix_delta_table, spectral


def apply(op: MultiPoly, p: MultiPoly) -> MultiPoly:
    """The operator with symbol op applied to p: sum c y^e d^mu p."""
    from .poly import MultiPoly

    m = p.nvars
    out = MultiPoly.zero(m)
    for expo, c in op.terms.items():
        out = out + MultiPoly.monomial(m, expo[:m], c) * p.partial_multi(expo[m:])
    return out


def formal_product(ops) -> MultiPoly:
    """Commutative symbol product: coefficients multiply, derivative
    multi-indices add, coefficients are never differentiated."""
    ops = list(ops)
    if not ops:
        raise ValueError("empty product has no arity; pass [MultiPoly.constant(2m, 1)]")
    return reduce(mul, ops)


def compose(outer: MultiPoly, inner: MultiPoly) -> MultiPoly:
    """True operator composition outer o inner, normal-ordered by the
    Leibniz rule: c y^e d^mu (d(y) d^nu) = c y^e sum_{kappa<=mu}
    C(mu,kappa) (d^kappa d)(y) d^{mu-kappa+nu}, i.e. the symbol
    C(mu,kappa) c y^e w^{mu-kappa} times d^kappa (in y) of inner's symbol."""
    from .poly import MultiPoly

    if outer.nvars != inner.nvars:
        raise ValueError("operator arity mismatch")
    m = outer.nvars // 2
    terms = {}
    for expo, c in outer.terms.items():
        mu = expo[m:]
        for kappa in product(*(range(x + 1) for x in mu)):
            coef = c * prod(map(comb, mu, kappa))
            left = expo[:m] + tuple(map(sub, mu, kappa))
            for e, d in inner.partial_multi(kappa + (0,) * m).terms.items():
                key = tuple(map(add, left, e))
                terms[key] = terms.get(key, 0) + coef * d
    return MultiPoly(2 * m, terms)


def bracket_op(A: MatQ) -> MultiPoly:
    """The derivation with first-order coefficients b_l(y) = sum_j A_{lj} y_j:
    the symbol sum_{l,j} A_{lj} y_j w_l."""
    from .poly import MultiPoly

    m = A.size
    return MultiPoly(
        2 * m,
        {
            tuple(int(i in (j, m + l)) for i in range(2 * m)): A[l, j]
            for l in range(m)
            for j in range(m)
        },
    )


def script_A_n(A: MatQ, n: int, reverse: bool = False) -> MultiPoly:
    """The n-fold composition of the shifted derivations
    ([A]-n+1) o ([A]-n+2) o ... o [A]; the shift order does not matter
    (reverse=True builds the factors in the opposite order)."""
    from .poly import MultiPoly

    if n < 1:
        raise ValueError("n must be >= 1")
    base = bracket_op(A)
    shifts = list(range(n - 1, -1, -1)) if reverse else list(range(n))
    out = base + MultiPoly.constant(base.nvars, -shifts[0])
    for c in shifts[1:]:
        out = compose(base + MultiPoly.constant(base.nvars, -c), out)
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


def lemma17_rhs(A: MatQ, n: int) -> MultiPoly:
    """Partition expansion: sum over s_1 + 2 s_2 + ... + n s_n = n of
    prod_i (1/s_i!) [Delta_i(A)]^{s_i}, powers as symbol products."""
    from .poly import MultiPoly

    out = MultiPoly.zero(2 * A.size)
    deltas = [bracket_op(D) for D in matrix_delta_table(A, n)]
    for s in partitions_weighted(n):
        factors = []
        weight = Fraction(1)
        for i, si in enumerate(s, start=1):
            if si == 0:
                continue
            factors.extend([deltas[i]] * si)
            weight /= factorial(si)
        out = out + formal_product(factors).scale(weight)
    return out


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
