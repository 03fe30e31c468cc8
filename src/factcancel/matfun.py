"""Exact linear algebra over Q.

Jordan decomposition for matrices with rational spectrum (computed
fraction-free on the integer matrix qA, as integer coefficient lists), the
matrix binomial polynomials Delta_n(A), the table of the noncommutative
multivariate falling-factorial bracket, and the per-k denominator
certificate psi_k | t1 t2 b^k d_k^{r-1} prod p^{tau_p(k)}.  The oracles
char_poly and rational_roots_monic import ``poly`` when they run; the
bracket identities, min_poly and the Jordan form are in ``checks``.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from . import arith, falling
from .certificate import CancellationCertificate, certify
from .errors import DimensionMismatch, IrrationalSpectrum, SingularT

_ZERO = Fraction(0)


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
        """A^-1 = q (qA)^-1, with (qA)^-1 from fraction-free Gauss-Jordan."""
        self.size  # raises DimensionMismatch unless square
        q, M = _integer_form(self)
        X, d = _inverse(M)
        return MatQ([[Fraction(q * x, d) for x in row] for row in X])

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


# The spectral layer works on the integer matrix B = qA (q = entry
# denominator of A) and builds Fractions only for what it returns.


def _integer_form(A: MatQ) -> tuple[int, list[list[int]]]:
    """(q, qA) with q the entry denominator of A, so qA is over Z."""
    q = A.entry_denominator()
    return q, [[a.numerator * (q // a.denominator) for a in r] for r in A.rows]


def _mat_mul(X: list[list[int]], Y: list[list[int]]) -> list[list[int]]:
    cols = list(zip(*Y))
    return [[sum(a * b for a, b in zip(row, col)) for col in cols] for row in X]


def _mat_vec(B: list[list[int]], v) -> list[int]:
    return [sum(a * x for a, x in zip(row, v)) for row in B]


def _primitive(v: list[int]) -> list[int]:
    """v divided by the gcd of its entries (v itself when it is zero)."""
    g = gcd(*v)
    return [x // g for x in v] if g > 1 else v


def _echelon(rows: list[list[int]]) -> tuple[list[list[int]], list[int]]:
    """Fraction-free Gauss-Jordan over Z: the nonzero rows of the reduced
    form and their pivot columns.  Each returned row is a primitive integer
    multiple of the matching row of the rational rref, so it is zero in
    every other pivot column (Bareiss, Math. Comp. 22, 1968)."""
    m = [_primitive(list(r)) for r in rows]
    nr, nc = len(m), (len(m[0]) if m else 0)
    pivots = []
    r = 0
    for c in range(nc):
        piv = next((i for i in range(r, nr) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        top = m[r]
        f = top[c]
        for i in range(nr):
            if i != r and m[i][c]:
                g = m[i][c]
                m[i] = _primitive([f * x - g * y for x, y in zip(m[i], top)])
        pivots.append(c)
        r += 1
        if r == nr:
            break
    return m[:r], pivots


def _kernel(rows: list[list[int]]) -> list[list[int]]:
    """Kernel basis of an integer matrix, one primitive integer vector per
    free column f: a positive multiple of the canonical rref vector (1 at f,
    0 at the other free columns)."""
    red, pivots = _echelon(rows)
    nc = len(rows[0])
    scale = lcm(*(row[p] for row, p in zip(red, pivots)))
    basis = []
    for f in range(nc):
        if f in pivots:
            continue
        v = [0] * nc
        v[f] = scale
        for row, p in zip(red, pivots):
            v[p] = -row[f] * (scale // row[p])
        basis.append(_primitive(v))
    return basis


def _inverse(rows: list[list[int]]) -> tuple[list[list[int]], int]:
    """(X, d) with M X = d E for the invertible integer matrix M = rows;
    raises SingularT otherwise."""
    n = len(rows)
    aug = [list(r) + [1 if i == j else 0 for j in range(n)] for i, r in enumerate(rows)]
    red, pivots = _echelon(aug)
    if pivots[:n] != list(range(n)):
        raise SingularT("matrix is singular")
    d = lcm(*(row[i] for i, row in enumerate(red)))
    return [[x * (d // row[i]) for x in row[n:]] for i, row in enumerate(red)], d


def _flag_form(B: list[list[int]], T: list[list[int]]) -> tuple[list[list[int]], list[list[int]]]:
    """(V, V B V^-1) for a unimodular V with V T upper triangular, built by
    Euclid's algorithm on the rows of T, column by column.  When the span of
    the first i columns of T is B-invariant for every i, as for Jordan
    chains listed eigenvector first, V B V^-1 = (V T) J (V T)^-1 is upper
    triangular over Z with the eigenvalues of T's columns on its diagonal."""
    n = len(T)
    R = [list(row) for row in T]
    V = [[int(i == j) for j in range(n)] for i in range(n)]
    C = [list(row) for row in B]
    for c in range(n):
        for i in range(c + 1, n):
            while R[i][c]:
                t = R[c][c] // R[i][c]
                # rows (c, i) <- (row i, row c - t row i), and columns (c, i)
                # of C <- (t col c + col i, col c), the inverse operation
                for M in (R, V, C):
                    M[c], M[i] = M[i], [p - t * r for p, r in zip(M[c], M[i])]
                for row in C:
                    row[c], row[i] = t * row[c] + row[i], row[c]
    return V, C


class _Span:
    """Incremental row space over Z in echelon form: row i is zero in the
    pivot columns of rows 0..i-1."""

    def __init__(self, vectors=()):
        self.rows: list[list[int]] = []
        self.pivots: list[int] = []
        for v in vectors:
            self.add(v)

    def add(self, v) -> bool:
        """Insert v; returns True if it enlarged the span."""
        w = list(v)
        for row, p in zip(self.rows, self.pivots):
            if w[p]:
                f, g = row[p], w[p]
                w = [f * x - g * y for x, y in zip(w, row)]
        p = next((i for i, x in enumerate(w) if x), None)
        if p is None:
            return False
        self.rows.append(_primitive(w))
        self.pivots.append(p)
        return True


def _char_poly_int(B: list[list[int]]) -> list[int]:
    """det(yE - B), ascending coefficients, by Faddeev-LeVerrier over Z:
    every division by i is exact because the coefficients are integers."""
    n = len(B)
    coeffs = [1]  # descending: y^n coefficient first
    M = [[int(i == j) for j in range(n)] for i in range(n)]
    for i in range(1, n + 1):
        M = _mat_mul(B, M)
        c = -sum(M[j][j] for j in range(n)) // i
        coeffs.append(c)
        for j in range(n):
            M[j][j] += c
    return coeffs[::-1]


def _over_powers(coeffs: list[int], q: int) -> UniPoly:
    """p(x) = c(qx)/q^deg for the integer polynomial c = coeffs: the monic
    rational form of a polynomial scaled by y = qx.  Only the oracles build
    polynomial objects, so poly is imported here, not by spectral."""
    from .poly import UniPoly

    d = len(coeffs) - 1
    return UniPoly([Fraction(c, q ** (d - i)) for i, c in enumerate(coeffs)])


def _deflate(coeffs: list[int], mu: int) -> tuple[list[int], int]:
    """Quotient and remainder of sum coeffs[i] y^i by y - mu (Horner)."""
    acc = 0
    out = []
    for c in reversed(coeffs):
        acc = acc * mu + c
        out.append(acc)
    rem = out.pop()
    return out[::-1], rem


def _squarefree_part(f: list[int]) -> list[int]:
    """f / gcd(f, f') for a monic integer f: the monic integer polynomial
    with the distinct roots of f, from the primitive remainder sequence over
    Z (the gcd is monic up to sign by Gauss's lemma, so the division is
    exact).  UniPoly.gcd gives the same over Q, but in Fractions it made
    spectral about 1.5 times slower on 4x4 inputs."""
    a, b = f, _primitive([i * c for i, c in enumerate(f)][1:])
    while b:
        while len(a) >= len(b):  # a <- pseudo-remainder of a by b
            c, shift = a[-1], len(a) - len(b)
            a = [b[-1] * x - c * (b[i - shift] if i >= shift else 0) for i, x in enumerate(a)]
            while a and a[-1] == 0:
                a.pop()
        a, b = b, _primitive(a)
    h = [x // a[-1] for x in a]
    out = list(f)
    quo = []
    for shift in range(len(f) - len(h), -1, -1):
        c = out[shift + len(h) - 1]
        quo.append(c)
        for i, y in enumerate(h):
            out[shift + i] -= c * y
    return quo[::-1]


def _integer_roots(coeffs: list[int], bound: int) -> tuple[dict[int, int], list[int]]:
    """Integer roots, ascending with multiplicity, of the monic integer
    polynomial f = sum coeffs[i] y^i whose roots all satisfy |y| <= bound,
    and the rootless quotient left after deflating them.

    Each integer root is a root of the squarefree part g of f.  Modulo the
    first prime p at which every root of g is simple, it reduces to one of
    those roots, which Newton's iteration lifts uniquely (Hensel) to a root
    modulo m = p^(2^i) > 2 bound; the residue in (-m/2, m/2] is then the root
    itself.  So at most deg g candidates are tested, and nothing is factored.
    """
    g = _squarefree_part(coeffs)
    dg = [i * c for i, c in enumerate(g)][1:]
    p = 2
    while True:
        simple = [r for r in range(p) if _deflate(g, r)[1] % p == 0]
        if all(_deflate(dg, r)[1] % p for r in simple):
            break
        p = next(n for n in itertools.count(p + 1) if arith.is_prime(n))
    candidates = []
    for r in simple:
        m = p
        while m <= 2 * bound:
            m *= m
            r = (r - _deflate(g, r)[1] * pow(_deflate(dg, r)[1], -1, m)) % m
        candidates.append(r if 2 * r <= m else r - m)
    roots: dict[int, int] = {}
    cur = list(coeffs)
    for mu in sorted(candidates):
        while len(cur) > 1:
            quo, rem = _deflate(cur, mu)
            if rem:
                break
            roots[mu] = roots.get(mu, 0) + 1
            cur = quo
    return roots, cur


def _eigenvalues(B: list[list[int]]) -> tuple[dict[int, int], list[int]]:
    """The integer roots of det(yE - B) for the integer matrix B (the integer
    eigenvalues, with algebraic multiplicity) and its rootless factor.
    Every eigenvalue is bounded by the largest absolute row sum of B."""
    bound = max(sum(abs(a) for a in row) for row in B)
    return _integer_roots(_char_poly_int(B), bound)


# ---------------------------------------------------------------------------
# characteristic polynomials and rational roots


def char_poly(A: MatQ) -> UniPoly:
    """det(xE - A), monic: Faddeev-LeVerrier on the integer matrix qA,
    whose characteristic polynomial is det(yE - qA) at y = qx, times q^-n."""
    q, B = _integer_form(A)
    return _over_powers(_char_poly_int(B), q)


def rational_roots_monic(p: UniPoly) -> tuple[dict[Fraction, int], UniPoly]:
    """All rational roots (with multiplicity) of a monic polynomial over Q,
    plus the rootless remaining factor.

    With den the lcm of the coefficient denominators, den^n p(y/den) is
    monic over Z, so its rational roots y = den x are integers, bounded by
    the Cauchy bound 1 + max |coefficient|."""
    if p.degree < 1:
        return {}, p
    if p.leading() != 1:
        raise ValueError("polynomial must be monic")
    n = p.degree
    den = lcm(*(c.denominator for c in p.coeffs))
    ints = [c.numerator * (den // c.denominator) * den ** (n - 1 - i)
            for i, c in enumerate(p.coeffs[:-1])] + [1]
    roots, rest = _integer_roots(ints, 1 + max(abs(c) for c in ints[:-1]))
    return {Fraction(y, den): m for y, m in roots.items()}, _over_powers(rest, den)


# ---------------------------------------------------------------------------
# Jordan decomposition


@dataclass(frozen=True)
class SpectralData:
    """Rational spectral decomposition of a square matrix.

    jordan_T @ J @ jordan_T_inv reconstructs A, where J is the Jordan form
    implied by (eigenvalues, block_sizes), as checks.jordan_form builds it.
    t1, t2 are the least common denominators of the entries of jordan_T and
    jordan_T_inv; b the common denominator of the eigenvalues.
    """

    eigenvalues: tuple  # distinct, ascending
    minpoly_mults: tuple  # r_l = largest Jordan block per eigenvalue
    block_sizes: tuple  # tuple of tuples, per eigenvalue, descending
    r_max: int
    jordan_T: MatQ
    jordan_T_inv: MatQ
    t1: int
    t2: int
    b: int


def _primitive_chain(chain: list[list[int]]) -> list[tuple[int, ...]]:
    """Divide a whole integer Jordan chain by the gcd of its entries, with
    the sign that makes its first nonzero entry positive."""
    g = gcd(*(x for v in chain for x in v))
    if next(x for v in chain for x in v if x) < 0:
        g = -g
    return [tuple(x // g for x in v) for v in chain]


def _jordan_chains(N: list[list[int]], q: int, m_alg: int) -> list[list[list[int]]]:
    """Jordan chains, eigenvector first and tallest first, of one eigenvalue
    mu/q of A, from the kernels of the powers of N = qA - mu E."""
    n = len(N)
    kernels = [[]]  # K_0 = {0}
    P = [[int(i == j) for j in range(n)] for i in range(n)]
    while len(kernels[-1]) < m_alg:
        P = _mat_mul(P, N)
        kernels.append(_kernel(P))
    r = len(kernels) - 1
    chains = []
    for j in range(r, 0, -1):
        # new chain tops: complement of K_{j-1} + N(K_{j+1}) inside K_j
        span = _Span(kernels[j - 1])
        if j < r:
            for w in kernels[j + 1]:
                span.add(_mat_vec(N, w))
        for v in kernels[j]:
            if span.add(v):
                chain = [v]
                for _ in range(j - 1):
                    chain.append(_mat_vec(N, chain[-1]))
                # N^d v carries q^d against the rational chain (A - mu/q E)^d v;
                # q^(j-1-d) makes the factor q^(j-1) along the whole chain
                chains.append([[x * q ** (j - 1 - d) for x in w]
                               for d, w in reversed(list(enumerate(chain)))])
    if sum(len(ch) for ch in chains) != m_alg:
        raise AssertionError("Jordan chain construction failed")
    return chains


def spectral(A: MatQ) -> SpectralData:
    """Full Jordan data; raises IrrationalSpectrum unless the characteristic
    polynomial splits over Q.

    Everything runs on the integer matrix B = qA (q = entry denominator):
    eigenvalues are mu/q for the integer roots mu of det(yE - B); kernels of
    (B - mu E)^j come from fraction-free Gauss-Jordan; the primitive integer
    chains are those the rational computation gives, and the result is
    checked as B T == T (qJ) and T T^-1 == E over Z."""
    n = A.size
    q, B = _integer_form(A)
    roots, rest = _eigenvalues(B)
    if len(rest) > 1:
        raise IrrationalSpectrum(
            f"characteristic polynomial has a non-rational factor of degree {len(rest) - 1}"
        )
    columns: list[tuple[int, ...]] = []
    block_sizes = []
    mults = []
    for mu, m_alg in roots.items():
        N = [[a - mu if i == j else a for j, a in enumerate(row)] for i, row in enumerate(B)]
        chains = _jordan_chains(N, q, m_alg)
        for ch in map(_primitive_chain, chains):
            # A t_i = (mu/q) t_i + t_{i-1} down the chain, checked as B T == T (qJ)
            for prev, t in zip([(0,) * n] + ch, ch):
                if _mat_vec(B, t) != [mu * x + q * y for x, y in zip(t, prev)]:
                    raise AssertionError("Jordan reconstruction failed")
            columns.extend(ch)
        sizes = [len(ch) for ch in chains]
        block_sizes.append(tuple(sizes))
        mults.append(sizes[0])
    T = [list(r) for r in zip(*columns)]
    X, d = _inverse(T)
    if _mat_mul(T, X) != [[d if i == j else 0 for j in range(n)] for i in range(n)]:
        raise AssertionError("Jordan reconstruction failed")
    eigenvalues = tuple(Fraction(mu, q) for mu in roots)
    jordan_T = MatQ(T)
    jordan_T_inv = MatQ([[Fraction(x, d) for x in row] for row in X])
    return SpectralData(
        eigenvalues=eigenvalues,
        minpoly_mults=tuple(mults),
        block_sizes=tuple(block_sizes),
        r_max=max(mults),
        jordan_T=jordan_T,
        jordan_T_inv=jordan_T_inv,
        t1=jordan_T.entry_denominator(),
        t2=jordan_T_inv.entry_denominator(),
        b=arith.common_denominator(eigenvalues),
    )


# ---------------------------------------------------------------------------
# matrix falling factorials


def matrix_delta_table(A: MatQ, k: int) -> list[MatQ]:
    """[Delta_0(A), ..., Delta_k(A)] computed incrementally in exact
    rationals; the reference that falling.delta_steps is tested against."""
    out = [MatQ.identity(A.size)]
    for n in range(1, k + 1):
        out.append((out[-1] @ A.shift(-(n - 1))).scale(Fraction(1, n)))
    return out


def _flag_basis(A: MatQ, data: SpectralData) -> tuple[int, list[list[int]]]:
    """(q, C) with C = V (qA) V^-1 upper triangular over Z for a unimodular
    V (_flag_form on the integer Jordan chains of data).  Delta_n(C/q) =
    V Delta_n(A) V^-1 spans the same Z-module as Delta_n(A), so it has the
    same entry denominator, and its Delta table stays upper triangular."""
    q, B = _integer_form(A)
    return q, _flag_form(B, [[x.numerator for x in row] for row in data.jordan_T.rows])[1]


def certify_matrix(A: MatQ, k: int) -> CancellationCertificate:
    """psi_k = exact lcm of entry denominators of Delta_n(A), n <= k, from
    one falling.delta_steps pass over the upper-triangular flag form of
    q A (q = entry denominator of A), which has the same denominators;
    certified against t1 t2 b^k d_k^{r-1} prod_{p|b} p^{tau_p(k)}."""
    if k < 1:
        raise ValueError("k must be >= 1")
    data = spectral(A)
    q, B = _flag_basis(A, data)
    dens = (D for _, D in falling.delta_steps(B, q, k))
    shift = data.r_max - 1
    return certify(k, dens, data.b, d_exp=shift, scale=data.t1 * data.t2, shift=shift)


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


def commuting_check(mats: list[MatQ]) -> bool:
    """Exact pairwise commutator test."""
    for M1, M2 in itertools.combinations(mats, 2):
        if M1 @ M2 != M2 @ M1:
            return False
    return True
