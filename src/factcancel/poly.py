"""Exact polynomial (univariate and multivariate) and power-series
arithmetic over Q.

UniPoly is dense (degrees stay in the hundreds), MultiPoly is a sparse
exponent-vector map, SeriesQ is a truncated Taylor expansion with exact
rational coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, lcm

_ZERO = Fraction(0)
_ONE = Fraction(1)


def _as_frac(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


class UniPoly:
    """Dense univariate polynomial over Q, coefficients indexed by degree."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [_as_frac(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero() -> "UniPoly":
        return UniPoly()

    @staticmethod
    def one() -> "UniPoly":
        return UniPoly((1,))

    @staticmethod
    def x() -> "UniPoly":
        return UniPoly((0, 1))

    @staticmethod
    def constant(c) -> "UniPoly":
        return UniPoly((c,))

    @staticmethod
    def monomial(c, d: int) -> "UniPoly":
        return UniPoly((0,) * d + (c,))

    @staticmethod
    def from_roots(roots) -> "UniPoly":
        """Monic product of (x - r) over the given roots."""
        out = UniPoly.one()
        for r in roots:
            out = out * UniPoly((-_as_frac(r), 1))
        return out

    # -- basic queries -----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def __getitem__(self, d: int) -> Fraction:
        return self.coeffs[d] if 0 <= d < len(self.coeffs) else _ZERO

    def leading(self) -> Fraction:
        return self.coeffs[-1] if self.coeffs else _ZERO

    def __eq__(self, other) -> bool:
        return isinstance(other, UniPoly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return f"UniPoly({list(self.coeffs)!r})"

    # -- ring operations ---------------------------------------------------

    def __add__(self, other: "UniPoly") -> "UniPoly":
        n = max(len(self.coeffs), len(other.coeffs))
        return UniPoly([self[i] + other[i] for i in range(n)])

    def __sub__(self, other: "UniPoly") -> "UniPoly":
        n = max(len(self.coeffs), len(other.coeffs))
        return UniPoly([self[i] - other[i] for i in range(n)])

    def __neg__(self) -> "UniPoly":
        return UniPoly([-c for c in self.coeffs])

    def __mul__(self, other: "UniPoly") -> "UniPoly":
        if self.is_zero() or other.is_zero():
            return UniPoly()
        out = [_ZERO] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return UniPoly(out)

    def scale(self, c) -> "UniPoly":
        c = _as_frac(c)
        return UniPoly([a * c for a in self.coeffs])

    def __pow__(self, n: int) -> "UniPoly":
        out, base = UniPoly.one(), self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def divmod(self, other: "UniPoly") -> tuple["UniPoly", "UniPoly"]:
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        dq = len(rem) - len(other.coeffs)
        if dq < 0:
            return UniPoly(), self
        quo = [_ZERO] * (dq + 1)
        lead = other.leading()
        for i in range(dq, -1, -1):
            c = rem[i + other.degree] / lead
            quo[i] = c
            if c:
                for j, b in enumerate(other.coeffs):
                    rem[i + j] -= c * b
        return UniPoly(quo), UniPoly(rem)

    def derivative(self) -> "UniPoly":
        return UniPoly([i * c for i, c in enumerate(self.coeffs)][1:])

    def evaluate(self, x) -> Fraction:
        x = _as_frac(x)
        out = _ZERO
        for c in reversed(self.coeffs):
            out = out * x + c
        return out

    def taylor_shift(self, a) -> "UniPoly":
        """Coefficients of p(x + a), i.e. the Taylor expansion of p at a."""
        a = _as_frac(a)
        cs = list(self.coeffs)
        n = len(cs)
        # repeated synthetic division by (x - a)
        for j in range(n - 1):
            for i in range(n - 2, j - 1, -1):
                cs[i] += a * cs[i + 1]
        return UniPoly(cs)


def differentiate_scaled(f: UniPoly, n: int) -> UniPoly:
    """(1/n!) d^n f / dz^n, via (1/n!)(d/dz)^n z^d = C(d, n) z^{d-n} so that
    integral polynomials stay integral."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if n == 0:
        return f
    return UniPoly([comb(d, n) * f[d] for d in range(n, f.degree + 1)])


def integer_content_denominator(f: UniPoly) -> int:
    """lcm of the coefficient denominators; 1 for the zero polynomial."""
    out = 1
    for c in f.coeffs:
        out = lcm(out, c.denominator)
    return out


class MultiPoly:
    """Sparse multivariate polynomial over Q in a fixed number of variables;
    keys are exponent tuples, zero coefficients are never stored."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms=None):
        self.nvars = nvars
        t = {}
        if terms:
            for e, c in (terms.items() if isinstance(terms, dict) else terms):
                c = _as_frac(c)
                if c:
                    if len(e) != nvars:
                        raise ValueError("exponent arity mismatch")
                    t[tuple(e)] = t.get(tuple(e), _ZERO) + c
                    if not t[tuple(e)]:
                        del t[tuple(e)]
        self.terms = t

    @staticmethod
    def zero(nvars: int) -> "MultiPoly":
        return MultiPoly(nvars)

    @staticmethod
    def constant(nvars: int, c) -> "MultiPoly":
        return MultiPoly(nvars, {(0,) * nvars: c})

    @staticmethod
    def variable(nvars: int, i: int) -> "MultiPoly":
        e = [0] * nvars
        e[i] = 1
        return MultiPoly(nvars, {tuple(e): 1})

    @staticmethod
    def monomial(nvars: int, expo, c=1) -> "MultiPoly":
        return MultiPoly(nvars, {tuple(expo): c})

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, MultiPoly)
            and self.nvars == other.nvars
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    def __repr__(self):
        return f"MultiPoly({self.nvars}, {self.terms!r})"

    def __add__(self, other: "MultiPoly") -> "MultiPoly":
        t = dict(self.terms)
        for e, c in other.terms.items():
            v = t.get(e, _ZERO) + c
            if v:
                t[e] = v
            elif e in t:
                del t[e]
        out = MultiPoly(self.nvars)
        out.terms = t
        return out

    def __neg__(self) -> "MultiPoly":
        out = MultiPoly(self.nvars)
        out.terms = {e: -c for e, c in self.terms.items()}
        return out

    def __sub__(self, other: "MultiPoly") -> "MultiPoly":
        return self + (-other)

    def __mul__(self, other: "MultiPoly") -> "MultiPoly":
        t = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                v = t.get(e, _ZERO) + c1 * c2
                if v:
                    t[e] = v
                elif e in t:
                    del t[e]
        out = MultiPoly(self.nvars)
        out.terms = t
        return out

    def scale(self, c) -> "MultiPoly":
        c = _as_frac(c)
        out = MultiPoly(self.nvars)
        if c:
            out.terms = {e: v * c for e, v in self.terms.items()}
        return out

    def partial(self, i: int, order: int = 1) -> "MultiPoly":
        """d^order / d y_i^order."""
        out = self
        for _ in range(order):
            t = {}
            for e, c in out.terms.items():
                if e[i]:
                    e2 = list(e)
                    e2[i] -= 1
                    t[tuple(e2)] = c * e[i]
            nxt = MultiPoly(self.nvars)
            nxt.terms = t
            out = nxt
        return out

    def partial_multi(self, expo) -> "MultiPoly":
        out = self
        for i, k in enumerate(expo):
            if k:
                out = out.partial(i, k)
        return out

    def is_integral(self) -> bool:
        return all(c.denominator == 1 for c in self.terms.values())

    def coeff_denominator(self) -> int:
        out = 1
        for c in self.terms.values():
            out = lcm(out, c.denominator)
        return out


@dataclass(frozen=True)
class SeriesQ:
    """Truncated power series sum f_n z^n, n = 0..order, with exact
    rational coefficients."""

    order: int
    coeffs: tuple

    @staticmethod
    def from_list(cs, order: int = None) -> "SeriesQ":
        cs = [_as_frac(c) for c in cs]
        if order is None:
            order = len(cs) - 1
        cs = (cs + [_ZERO] * (order + 1))[: order + 1]
        return SeriesQ(order, tuple(cs))

    def __getitem__(self, n: int) -> Fraction:
        return self.coeffs[n] if 0 <= n <= self.order else _ZERO

    def truncate(self, order: int) -> "SeriesQ":
        return SeriesQ.from_list(list(self.coeffs), order)

    def __add__(self, other: "SeriesQ") -> "SeriesQ":
        n = min(self.order, other.order)
        return SeriesQ.from_list([self[i] + other[i] for i in range(n + 1)], n)

    def __sub__(self, other: "SeriesQ") -> "SeriesQ":
        n = min(self.order, other.order)
        return SeriesQ.from_list([self[i] - other[i] for i in range(n + 1)], n)

    def __mul__(self, other: "SeriesQ") -> "SeriesQ":
        n = min(self.order, other.order)
        out = [_ZERO] * (n + 1)
        for i in range(n + 1):
            ci = self[i]
            if ci:
                for j in range(n + 1 - i):
                    out[i + j] += ci * other[j]
        return SeriesQ.from_list(out, n)

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)


def delta_series(f: SeriesQ) -> SeriesQ:
    """The Euler operator z d/dz on a series: coefficient n picks up a factor n."""
    return SeriesQ.from_list([n * c for n, c in enumerate(f.coeffs)], f.order)
