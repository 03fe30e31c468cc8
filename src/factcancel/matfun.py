"""Exact linear algebra over Q.

Characteristic and minimal polynomials, Jordan decomposition for matrices
with rational spectrum, the matrix binomial polynomials Delta_n(A), the
noncommutative multivariate falling-factorial bracket, and the per-k
denominator certificate psi_k | t1 t2 b^k d_k^{r-1} prod p^{tau_p(k)}.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from fractions import Fraction
from math import comb, gcd, lcm

import mpmath

from . import arith, falling
from .certificate import CancellationCertificate, make_certificate
from .errors import (
    DimensionMismatch,
    IrrationalSpectrum,
    NotCommuting,
    SingularT,
)
from .poly import UniPoly

_ZERO = Fraction(0)
_ONE = Fraction(1)


def _frac(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


class MatQ:
    """Immutable square (or rectangular) matrix of exact rationals."""

    __slots__ = ("rows",)

    def __init__(self, rows):
        self.rows = tuple(tuple(_frac(x) for x in row) for row in rows)
        widths = {len(r) for r in self.rows}
        if len(widths) > 1:
            raise DimensionMismatch("ragged rows")

    @staticmethod
    def identity(n: int) -> "MatQ":
        return MatQ([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @staticmethod
    def zero(n: int, m: int = None) -> "MatQ":
        m = n if m is None else m
        return MatQ([[0] * m for _ in range(n)])

    @staticmethod
    def diagonal(values) -> "MatQ":
        vs = list(values)
        n = len(vs)
        return MatQ([[vs[i] if i == j else 0 for j in range(n)] for i in range(n)])

    @staticmethod
    def jordan_block(lam, size: int) -> "MatQ":
        return MatQ(
            [
                [lam if i == j else (1 if j == i + 1 else 0) for j in range(size)]
                for i in range(size)
            ]
        )

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @property
    def ncols(self) -> int:
        return len(self.rows[0]) if self.rows else 0

    @property
    def size(self) -> int:
        if self.nrows != self.ncols:
            raise DimensionMismatch("not square")
        return self.nrows

    def __getitem__(self, ij):
        i, j = ij
        return self.rows[i][j]

    def __eq__(self, other) -> bool:
        return isinstance(other, MatQ) and self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def __repr__(self):
        return f"MatQ({[list(r) for r in self.rows]!r})"

    def __add__(self, other: "MatQ") -> "MatQ":
        self._check_same_shape(other)
        return MatQ(
            [
                [a + b for a, b in zip(r1, r2)]
                for r1, r2 in zip(self.rows, other.rows)
            ]
        )

    def __sub__(self, other: "MatQ") -> "MatQ":
        self._check_same_shape(other)
        return MatQ(
            [
                [a - b for a, b in zip(r1, r2)]
                for r1, r2 in zip(self.rows, other.rows)
            ]
        )

    def __neg__(self) -> "MatQ":
        return MatQ([[-a for a in r] for r in self.rows])

    def __matmul__(self, other: "MatQ") -> "MatQ":
        if self.ncols != other.nrows:
            raise DimensionMismatch("incompatible shapes for product")
        cols = list(zip(*other.rows))
        return MatQ(
            [
                [sum(a * b for a, b in zip(row, col)) for col in cols]
                for row in self.rows
            ]
        )

    def scale(self, c) -> "MatQ":
        c = _frac(c)
        return MatQ([[a * c for a in r] for r in self.rows])

    def shift(self, c) -> "MatQ":
        """self + c*E (square only)."""
        n = self.size
        return MatQ(
            [
                [self.rows[i][j] + (c if i == j else 0) for j in range(n)]
                for i in range(n)
            ]
        )

    def transpose(self) -> "MatQ":
        return MatQ(list(zip(*self.rows)))

    def trace(self) -> Fraction:
        return sum((self.rows[i][i] for i in range(self.size)), _ZERO)

    def is_zero(self) -> bool:
        return all(a == 0 for r in self.rows for a in r)

    def entry_denominator(self) -> int:
        out = 1
        for r in self.rows:
            for a in r:
                out = lcm(out, a.denominator)
        return out

    def _check_same_shape(self, other: "MatQ"):
        if self.nrows != other.nrows or self.ncols != other.ncols:
            raise DimensionMismatch("shape mismatch")

    def inverse(self) -> "MatQ":
        n = self.size
        aug = [list(r) + [_ONE if i == j else _ZERO for j in range(n)]
               for i, r in enumerate(self.rows)]
        for col in range(n):
            piv = next((r for r in range(col, n) if aug[r][col] != 0), None)
            if piv is None:
                raise SingularT("matrix is singular")
            aug[col], aug[piv] = aug[piv], aug[col]
            f = aug[col][col]
            aug[col] = [x / f for x in aug[col]]
            for r in range(n):
                if r != col and aug[r][col]:
                    g = aug[r][col]
                    aug[r] = [x - g * y for x, y in zip(aug[r], aug[col])]
        return MatQ([row[n:] for row in aug])

    # -- serialization -----------------------------------------------------

    def to_lists(self) -> list[list[str]]:
        return [[arith.format_rat(a) for a in r] for r in self.rows]

    def to_json(self) -> str:
        return json.dumps(self.to_lists())

    @staticmethod
    def from_lists(rows) -> "MatQ":
        """Parse the JSON form: a non-empty list of non-empty rows of
        rationals; any other shape raises ValueError."""
        if not (isinstance(rows, list) and rows and all(isinstance(r, list) and r for r in rows)):
            raise ValueError("a matrix must be a non-empty list of non-empty lists")
        return MatQ([[arith.parse_rat(a) for a in r] for r in rows])

    @staticmethod
    def from_json(s: str) -> "MatQ":
        return MatQ.from_lists(json.loads(s))


# ---------------------------------------------------------------------------
# echelon helpers


def rref(rows: list[list[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form (copy) and pivot column indices."""
    m = [list(r) for r in rows]
    nr, nc = len(m), (len(m[0]) if m else 0)
    pivots = []
    r = 0
    for c in range(nc):
        piv = next((i for i in range(r, nr) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        f = m[r][c]
        m[r] = [x / f for x in m[r]]
        for i in range(nr):
            if i != r and m[i][c]:
                g = m[i][c]
                m[i] = [x - g * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == nr:
            break
    return m[:r], pivots


def kernel_basis(A: MatQ) -> list[tuple[Fraction, ...]]:
    """Canonical kernel basis of A (as row vectors) from the rref."""
    rows, pivots = rref([list(r) for r in A.rows])
    nc = A.ncols
    free = [c for c in range(nc) if c not in pivots]
    basis = []
    for f in free:
        v = [_ZERO] * nc
        v[f] = _ONE
        for r, p in zip(rows, pivots):
            v[p] = -r[f]
        basis.append(tuple(v))
    return basis


class _Span:
    """Incremental row space in echelon form."""

    def __init__(self, vectors=()):
        self.rows: list[list[Fraction]] = []
        self.pivots: list[int] = []
        for v in vectors:
            self.add(v)

    def residual(self, v) -> list[Fraction]:
        w = [_frac(x) for x in v]
        for row, p in zip(self.rows, self.pivots):
            if w[p]:
                f = w[p]
                w = [x - f * y for x, y in zip(w, row)]
        return w

    def add(self, v) -> bool:
        """Insert v; returns True if it enlarged the span."""
        w = self.residual(v)
        p = next((i for i, x in enumerate(w) if x != 0), None)
        if p is None:
            return False
        f = w[p]
        w = [x / f for x in w]
        self.rows.append(w)
        self.pivots.append(p)
        return True


# ---------------------------------------------------------------------------
# characteristic and minimal polynomials


def char_poly(A: MatQ) -> UniPoly:
    """det(xE - A), monic, via the Faddeev-LeVerrier recursion."""
    n = A.size
    coeffs = [_ONE]  # descending: x^n coefficient first
    M = MatQ.identity(n)
    for i in range(1, n + 1):
        M = A @ M
        c = -M.trace() / i
        coeffs.append(c)
        M = M.shift(c)
    return UniPoly(list(reversed(coeffs)))


def min_poly(A: MatQ) -> UniPoly:
    """Monic minimal polynomial, found as the first linear dependence among
    E, A, A^2, ... in the n^2-dimensional matrix space."""
    n = A.size
    powers = [MatQ.identity(n)]
    vecs = [[x for r in powers[0].rows for x in r]]
    for d in range(1, n + 1):
        powers.append(powers[-1] @ A)
        vecs.append([x for r in powers[-1].rows for x in r])
        # solve sum_{i<d} c_i vec(A^i) = -vec(A^d)
        nc = n * n
        aug = [[vecs[i][j] for i in range(d)] + [-vecs[d][j]] for j in range(nc)]
        rows, pivots = rref(aug)
        if d not in pivots:  # consistent system
            sol = [_ZERO] * d
            for row, p in zip(rows, pivots):
                sol[p] = row[d]
            return UniPoly(sol + [_ONE])
    raise AssertionError("unreachable: Cayley-Hamilton bounds the degree")


def rational_roots_monic(p: UniPoly) -> tuple[dict[Fraction, int], UniPoly]:
    """All rational roots (with multiplicity) of a monic polynomial over Q,
    plus the rootless remaining factor."""
    den = 1
    for c in p.coeffs:
        den = lcm(den, c.denominator)
    roots: dict[Fraction, int] = {}
    cur = p
    # root 0 first
    while cur.degree > 0 and cur[0] == 0:
        roots[_ZERO] = roots.get(_ZERO, 0) + 1
        cur, _ = cur.divmod(UniPoly.x())
    ints = [c * den for c in cur.coeffs]
    a0 = abs(int(ints[0])) if cur.degree >= 0 and ints and ints[0] else 0
    an = abs(int(ints[-1])) if ints else 1
    candidates = set()
    if a0:
        for pd in _divisors(a0):
            for qd in _divisors(an):
                candidates.add(Fraction(pd, qd))
                candidates.add(Fraction(-pd, qd))
    for cand in sorted(candidates):
        while cur.degree > 0 and cur.evaluate(cand) == 0:
            roots[cand] = roots.get(cand, 0) + 1
            cur, _ = cur.divmod(UniPoly((-cand, 1)))
    return roots, cur


def _divisors(n: int) -> list[int]:
    out = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            if d != n // d:
                out.append(n // d)
        d += 1
    return sorted(out)


# ---------------------------------------------------------------------------
# Jordan decomposition


@dataclass(frozen=True)
class SpectralData:
    """Rational spectral decomposition of a square matrix.

    jordan_T @ J @ jordan_T_inv reconstructs A, where J is the Jordan form
    implied by (eigenvalues, block_sizes).  t1, t2 are the least common
    denominators of the entries of jordan_T and jordan_T_inv; b the common
    denominator of the eigenvalues.
    """

    eigenvalues: tuple  # distinct, ascending
    minpoly_mults: tuple  # r_l = largest Jordan block per eigenvalue
    block_sizes: tuple  # tuple of tuples, per eigenvalue, descending
    r_max: int
    char_poly: UniPoly
    min_poly: UniPoly
    jordan_T: MatQ
    jordan_T_inv: MatQ
    t1: int
    t2: int
    b: int

    def jordan_form(self) -> MatQ:
        n = self.jordan_T.size
        J = [[_ZERO] * n for _ in range(n)]
        pos = 0
        for lam, sizes in zip(self.eigenvalues, self.block_sizes):
            for h in sizes:
                for i in range(h):
                    J[pos + i][pos + i] = lam
                    if i + 1 < h:
                        J[pos + i][pos + i + 1] = _ONE
                pos += h
        return MatQ(J)


def _primitive_chain(chain: list[tuple[Fraction, ...]]) -> list[tuple[Fraction, ...]]:
    """Scale a whole Jordan chain by one rational so all entries become
    integers with overall content 1 and deterministic sign."""
    den = 1
    for v in chain:
        for x in v:
            den = lcm(den, x.denominator)
    g = 0
    for v in chain:
        for x in v:
            g = gcd(g, int(x * den))
    g = g or 1
    first = next(x for v in chain for x in v if x != 0)
    sign = -1 if first < 0 else 1
    c = Fraction(sign * den, g)
    return [tuple(x * c for x in v) for v in chain]


def spectral(A: MatQ) -> SpectralData:
    """Full Jordan data; raises IrrationalSpectrum unless the characteristic
    polynomial splits over Q."""
    n = A.size
    cp = char_poly(A)
    roots, rest = rational_roots_monic(cp)
    if rest.degree > 0:
        raise IrrationalSpectrum(
            f"characteristic polynomial has a non-rational factor of degree {rest.degree}"
        )
    eigenvalues = tuple(sorted(roots))
    columns: list[tuple[Fraction, ...]] = []
    block_sizes = []
    mults = []
    for lam in eigenvalues:
        m_alg = roots[lam]
        N = A.shift(-lam)
        powers = [MatQ.identity(n)]
        kernels = [[]]  # K_0 = {0}
        r = 0
        while True:
            r += 1
            powers.append(powers[-1] @ N)
            kb = kernel_basis(powers[-1])
            kernels.append(kb)
            if len(kb) == m_alg:
                break
        sizes = []
        chains_here: list[list[tuple[Fraction, ...]]] = []
        for j in range(r, 0, -1):
            # new chain tops: complement of K_{j-1} + N(K_{j+1}) inside K_j
            span = _Span(kernels[j - 1])
            if j + 1 <= r:
                for w in kernels[j + 1]:
                    img = _mat_vec(N, w)
                    span.add(img)
            else:
                for ch in chains_here:
                    # taller chains' height-j representatives
                    span.add(ch[len(ch) - j])
            for v in kernels[j]:
                if span.add(v):
                    chain = [v]
                    for _ in range(j - 1):
                        chain.append(_mat_vec(N, chain[-1]))
                    chain.reverse()  # eigenvector first
                    chains_here.append(chain)
                    sizes.append(j)
        if sum(sizes) != m_alg:
            raise AssertionError("Jordan chain construction failed")
        for ch in chains_here:
            columns.extend(_primitive_chain(ch))
        block_sizes.append(tuple(sorted(sizes, reverse=True)))
        mults.append(max(sizes))
    T = MatQ(list(zip(*columns)))
    T_inv = T.inverse()
    mp = UniPoly.one()
    for lam, r_l in zip(eigenvalues, mults):
        mp = mp * UniPoly((-lam, 1)) ** r_l
    data = SpectralData(
        eigenvalues=eigenvalues,
        minpoly_mults=tuple(mults),
        block_sizes=tuple(block_sizes),
        r_max=max(mults),
        char_poly=cp,
        min_poly=mp,
        jordan_T=T,
        jordan_T_inv=T_inv,
        t1=T.entry_denominator(),
        t2=T_inv.entry_denominator(),
        b=arith.common_denominator(eigenvalues),
    )
    if T @ data.jordan_form() @ T_inv != A:
        raise AssertionError("Jordan reconstruction failed")
    return data


def _mat_vec(A: MatQ, v) -> tuple[Fraction, ...]:
    return tuple(sum(a * x for a, x in zip(row, v)) for row in A.rows)


# ---------------------------------------------------------------------------
# matrix falling factorials


def matrix_falling(A: MatQ, n: int) -> MatQ:
    """<A>_n = A(A-E)...(A-(n-1)E); E for n = 0."""
    out = MatQ.identity(A.size)
    for i in range(n):
        out = out @ A.shift(-i)
    return out


def matrix_delta(A: MatQ, n: int) -> MatQ:
    """Delta_n(A) = <A>_n / n! by iterated exact multiplication."""
    out = MatQ.identity(A.size)
    for i in range(n):
        out = (out @ A.shift(-i)).scale(Fraction(1, i + 1))
    return out


def matrix_delta_table(A: MatQ, k: int) -> list[MatQ]:
    """[Delta_0(A), ..., Delta_k(A)] computed incrementally in exact
    rationals; the reference that falling.delta_steps is tested against."""
    out = [MatQ.identity(A.size)]
    for n in range(1, k + 1):
        out.append((out[-1] @ A.shift(-(n - 1))).scale(Fraction(1, n)))
    return out


def jordan_block_delta(lam: Fraction, size: int, n: int) -> MatQ:
    """Delta_n of a Jordan block: upper-triangular Toeplitz with entries
    Delta_n^{(j)}(lam)/j! on the j-th superdiagonal."""
    if size < 1:
        raise ValueError("size must be >= 1")
    d = falling.delta_derivatives(lam, n, size)
    return MatQ(
        [[d[j - i] if j >= i else 0 for j in range(size)] for i in range(size)]
    )


def conjugation_check(A: MatQ, T: MatQ, n: int) -> bool:
    """Exact check of Delta_n(T A T^{-1}) == T Delta_n(A) T^{-1}."""
    T_inv = T.inverse()
    lhs = matrix_delta(T @ A @ T_inv, n)
    rhs = T @ matrix_delta(A, n) @ T_inv
    return lhs == rhs


def matrix_bound(data: SpectralData, k: int) -> int:
    """t1 t2 b^k d_k^{r-1} prod_{p|b} p^{tau_p(k)}."""
    return (
        data.t1
        * data.t2
        * data.b**k
        * arith.lcm_upto(k) ** (data.r_max - 1)
        * arith.prime_power_product(data.b, k)
    )


def certify_matrix(
    A: MatQ, k: int, digits: int = arith.DEFAULT_DIGITS
) -> CancellationCertificate:
    """psi_k = exact lcm of entry denominators of Delta_n(A), n <= k, from
    one falling.delta_steps pass over q A (q = entry denominator of A);
    certified against matrix_bound."""
    if k < 1:
        raise ValueError("k must be >= 1")
    data = spectral(A)
    q = A.entry_denominator()
    psi = 1
    for _, D in falling.delta_steps([[int(a * q) for a in r] for r in A.rows], q, k):
        psi = lcm(psi, D)
    bound = matrix_bound(data, k)
    with mpmath.workdps(digits):
        const = data.b * mpmath.e ** (arith.chi(data.b, digits) + (data.r_max - 1))
    return make_certificate(k, psi, bound, const, digits)


# ---------------------------------------------------------------------------
# the noncommutative bracket <A_1, ..., A_s>_n


def _check_same_size(mats: list[MatQ]) -> int:
    sizes = {M.size for M in mats}
    if len(sizes) != 1:
        raise DimensionMismatch("bracket needs matrices of one size")
    return sizes.pop()


def bracket_table(mats: list[MatQ], total: int) -> dict[tuple, MatQ]:
    """All brackets <A_1..A_s>_n with |n| <= total, by dynamic programming
    over the simplex."""
    s = len(mats)
    size = _check_same_size(mats)
    table: dict[tuple, MatQ] = {(0,) * s: MatQ.identity(size)}
    for weight in range(1, total + 1):
        for idx in _compositions(weight, s):
            acc = MatQ.zero(size)
            for i in range(s):
                if idx[i] == 0:
                    continue
                prev = list(idx)
                prev[i] -= 1
                acc = acc + mats[i].shift(-(idx[i] - 1)) @ table[tuple(prev)]
            table[idx] = acc
    return table


def _compositions(total: int, parts: int):
    """All tuples of `parts` non-negative integers summing to total."""
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def bracket(mats: list[MatQ], n_index: tuple) -> MatQ:
    """<A_1, ..., A_s>_n via the simplex recursion (memoized per call)."""
    n_index = tuple(n_index)
    if len(n_index) != len(mats):
        raise DimensionMismatch("index arity must match the matrix count")
    size = _check_same_size(mats)
    if any(c < 0 for c in n_index):
        return MatQ.zero(size)
    table = bracket_table(mats, sum(n_index))
    return table[n_index]


def bracket_sum_identity(mats: list[MatQ], k: int) -> bool:
    """<A_1 + ... + A_s>_k == sum over |n| = k of <A_1..A_s>_n, exactly."""
    size = _check_same_size(mats)
    total = MatQ.zero(size)
    for M in mats:
        total = total + M
    lhs = matrix_falling(total, k)
    table = bracket_table(mats, k)
    rhs = MatQ.zero(size)
    for idx in _compositions(k, len(mats)):
        rhs = rhs + table[idx]
    return lhs == rhs


def commuting_check(mats: list[MatQ]) -> bool:
    """Exact pairwise commutator test."""
    for M1, M2 in itertools.combinations(mats, 2):
        if M1 @ M2 != M2 @ M1:
            return False
    return True


def bracket_commuting_identity(mats: list[MatQ], n_index: tuple) -> bool:
    """For pairwise commuting matrices the bracket collapses to the
    multinomial coefficient times the product of <A_i>_{n_i}."""
    if not commuting_check(mats):
        raise NotCommuting("matrices must pairwise commute")
    n_index = tuple(n_index)
    size = _check_same_size(mats)
    lhs = bracket(mats, n_index)
    coeff = 1
    rem = sum(n_index)
    for ni in n_index:
        coeff *= comb(rem, ni)
        rem -= ni
    rhs = MatQ.identity(size)
    for M, ni in zip(mats, n_index):
        rhs = rhs @ matrix_falling(M, ni)
    return lhs == rhs.scale(coeff)
