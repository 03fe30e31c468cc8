"""Fuchsian systems y' = Q(z) y with Q(z) = sum A_i/(z - gamma_i).

Contains the higher-derivative matrices T^n Q^[n] / n! as one integer
pencil run by falling.pencil_steps (the single-pole system T = z, Q = A/z
gives the matrix Delta_n(A)) on integer coefficient lists of T and TQ, the
bracket-sum assembly of the same matrices (the central cross-validation
oracle, which imports ``poly`` when it runs, as qn_recurrence does), and
the per-k denominator certificate for the system.  The operator identities
(14), (16) and (24), which run the same pencil from a flat start, are in
``checks``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from math import factorial, gcd, lcm, prod
from typing import Iterator

from . import arith, falling
from .certificate import CancellationCertificate, certify
from .errors import DimensionMismatch, IrrationalSpectrum
from .matfun import (
    MatQ,
    _compositions,
    bracket_table,
    commuting_check,
    simultaneous_eigenbasis,
    spectral,
)


class PolyMat:
    """Rectangular matrix with UniPoly entries: the oracles' T^n Q^[n].
    The code that builds entries imports poly, so certify never loads it."""

    __slots__ = ("rows",)

    def __init__(self, rows):
        self.rows = tuple(tuple(e for e in row) for row in rows)

    @staticmethod
    def identity(n: int) -> "PolyMat":
        from .poly import UniPoly

        return PolyMat(
            [[UniPoly.one() if i == j else UniPoly.zero() for j in range(n)] for i in range(n)]
        )

    @staticmethod
    def from_matq(A: MatQ) -> "PolyMat":
        from .poly import UniPoly

        return PolyMat([[UniPoly.constant(e) for e in row] for row in A.rows])

    def __getitem__(self, ij):
        i, j = ij
        return self.rows[i][j]

    def __eq__(self, other) -> bool:
        return isinstance(other, PolyMat) and self.rows == other.rows

    def __repr__(self):
        return f"PolyMat({[list(r) for r in self.rows]!r})"

    def __add__(self, other: "PolyMat") -> "PolyMat":
        return PolyMat(
            [
                [a + b for a, b in zip(r1, r2)]
                for r1, r2 in zip(self.rows, other.rows)
            ]
        )

    def scale_poly(self, p: UniPoly) -> "PolyMat":
        return PolyMat([[e * p for e in row] for row in self.rows])

    def scale(self, c) -> "PolyMat":
        c = Fraction(c) if not isinstance(c, Fraction) else c
        return PolyMat([[e.scale(c) for e in row] for row in self.rows])

    def transpose(self) -> "PolyMat":
        return PolyMat(list(zip(*self.rows)))

    def coeff_denominator(self) -> int:
        return lcm(*(c.denominator for row in self.rows for e in row for c in e.coeffs))


@dataclass(frozen=True)
class FuchsianSystem:
    """First-order system with simple poles at the (distinct) gammas.

    residues[i] is the matrix attached to 1/(z - gamma_i).  With
    augmented=True the matrices are the (m+1)x(m+1) zero-first-row form
    wrapping an m-unknown inhomogeneous system; otherwise they are m x m.
    """

    m: int
    gammas: tuple
    residues: tuple
    augmented: bool = False

    def __post_init__(self):
        gs = tuple(Fraction(g) if not isinstance(g, Fraction) else g for g in self.gammas)
        object.__setattr__(self, "gammas", gs)
        object.__setattr__(self, "residues", tuple(self.residues))
        if len(set(gs)) != len(gs):
            raise ValueError("poles must be pairwise distinct")
        if len(self.residues) != len(gs):
            raise DimensionMismatch("one residue matrix per pole required")
        want = self.m + 1 if self.augmented else self.m
        for A in self.residues:
            if A.size != want:
                raise DimensionMismatch(f"residues must be {want}x{want}")

    @property
    def size(self) -> int:
        return self.m + 1 if self.augmented else self.m

    @property
    def npoles(self) -> int:
        return len(self.gammas)

    def to_json(self) -> str:
        return json.dumps(
            {
                "m": self.m,
                "gammas": [arith.format_rat(g) for g in self.gammas],
                "residues": [A.to_lists() for A in self.residues],
                "augmented": self.augmented,
            }
        )

    @staticmethod
    def from_json(s: str) -> "FuchsianSystem":
        """Parse the to_json form; "m" may be omitted, and is then the
        residue size (minus 1 when augmented).  Any other shape, or a
        system without poles, raises ValueError."""
        d = json.loads(s)
        if not (
            isinstance(d, dict)
            and isinstance(d.get("gammas"), list)
            and isinstance(d.get("residues"), list)
            and d["residues"]
            and type(d.get("m", 0)) is int
            and type(d.get("augmented", False)) is bool
        ):
            raise ValueError(
                'a Fuchsian system needs non-empty "gammas" and "residues" lists,'
                ' an integer "m" and a boolean "augmented"'
            )
        residues = tuple(MatQ.from_lists(A) for A in d["residues"])
        augmented = d.get("augmented", False)
        m = d.get("m", residues[0].size - int(augmented))
        return FuchsianSystem(
            m=m,
            gammas=tuple(arith.parse_rat(g) for g in d["gammas"]),
            residues=residues,
            augmented=augmented,
        )


def _content(N) -> int:
    """gcd of every coefficient of a flat _scaled_qn numerator."""
    return gcd(*chain.from_iterable(N))


def _scaled_qn(
    system: FuchsianSystem, n_max: int, start: tuple[list, int] = None
) -> Iterator[tuple[list, int]]:
    """Yield (N_n, D_n) with R_n = N_n / D_n for n = 0..n_max, where
    R_n = T^n (d/dz + Q)^n R_0 / n! acts on rows and R_0 = N_0 / D_0 for
    start = (N_0, D_0) (default E, which makes R_n = T^n Q^[n] / n!).

    R_n = (T R_{n-1}' - (n-1) T' R_{n-1} + R_{n-1} TQ)/n is the pencil step
    of falling.pencil_steps: with T = prod (z - gamma_i) = t/tau and
    TQ = sum A_i prod_{j != i} (z - gamma_j) = P/tau, ascending coefficient
    lists over the integers with tau the lcm of their denominators,
    L0: v -> t v' + v P and L1: v -> t' v on polynomial row vectors v, so
    D_n is exactly the lcm of the coefficient denominators of R_n.  Row r of
    N_n is flat: N_n[r][d m + j] is the z^d coefficient of entry (r, j).
    Pencil row d m + l holds the images of z^d in slot l, of degree at most
    d + (number of poles - 1), so rows up to the degree top reached at n_max
    hold every step.
    """
    gammas = system.gammas
    T = arith.from_roots(gammas)
    cofactors = [arith.from_roots(gammas[:i] + gammas[i + 1 :]) for i in range(len(gammas))]
    m = system.size
    TQ = [
        [[sum(A[l, j] * c for A, c in zip(system.residues, cs)) for cs in zip(*cofactors)]
         for j in range(m)]
        for l in range(m)
    ]
    tau = arith.common_denominator(chain(T, *chain.from_iterable(TQ)))
    t = [c.numerator * (tau // c.denominator) for c in T]
    P = [[[c.numerator * (tau // c.denominator) for c in e] for e in row] for row in TQ]
    N, D = start or ([[int(i == j) for j in range(m)] for i in range(m)], 1)
    width = len(N[0]) // m
    top = width + n_max * (len(t) - 2)
    rows = []
    for d in range(top):
        for l in range(m):
            # slot d m + l: t v' - s t' v takes z^d to (d - s a) t_a z^(d-1+a)
            row = {}
            for a, c in enumerate(t):
                if 0 <= d - 1 + a < top:
                    L = row.setdefault((d - 1 + a) * m + l, [0, 0])
                    L[0] += d * c
                    L[1] += a * c
            for j in range(m):
                for a, c in enumerate(P[l][j][: top - d]):
                    row.setdefault((d + a) * m + j, [0, 0])[0] += c
            rows.append([(i, l0, l1) for i, (l0, l1) in row.items() if l0 or l1])
    return falling.pencil_steps(rows, tau, n_max, N, D)


def _polymat(N: list, D: int, c: int = 1) -> PolyMat:
    """The PolyMat c N / D of a flat _scaled_qn numerator."""
    from .poly import UniPoly

    m = len(N)
    return PolyMat(
        [[UniPoly([Fraction(c * x, D) for x in row[j::m]]) for j in range(m)] for row in N]
    )


def qn_recurrence(system: FuchsianSystem, n: int) -> PolyMat:
    """T^n(z) Q^[n](z); identity matrix at n = 0."""
    for N, D in _scaled_qn(system, n):
        pass
    return _polymat(N, D, factorial(n))


def qn_via_brackets(system: FuchsianSystem, n: int) -> PolyMat:
    """T^n Q^[n] assembled from the bracket expansion of the derivatives:
    transpose of sum over |n| = n of <tA_1..tA_s>_n prod (z-gamma_i)^{n-n_i}."""
    from .poly import UniPoly

    s = system.npoles
    size = system.size
    tmats = [A.transpose() for A in system.residues]
    table = bracket_table(tmats, n)
    acc = PolyMat([[UniPoly.zero()] * size for _ in range(size)])
    for idx in _compositions(n, s):
        cof = UniPoly.one()
        for g, ni in zip(system.gammas, idx):
            cof = cof * UniPoly((-g, 1)) ** (n - ni)
        acc = acc + PolyMat.from_matq(table[idx]).scale_poly(cof)
    return acc.transpose()


# ---------------------------------------------------------------------------
# certificates


def certify_system(system: FuchsianSystem, k: int) -> CancellationCertificate:
    """psi_k = exact lcm over n <= k of coefficient denominators of
    T^n Q^[n]/n!.  For pairwise commuting residues with rational spectra the
    certificate also carries the divisor bound
    t (q b)^k d_k^{sum(r_i - 1)} prod_{p|b} p^{tau_p(k)}
    (q = product of pole denominators; t = den(T) den(T^-1) for the common
    eigenbasis T of diagonalizable residues, else the product of their
    t1 t2); otherwise it is measurement-only.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    dens = (D for _, D in _scaled_qn(system, k))
    if not commuting_check(system.residues):
        return certify(k, dens, None)
    try:
        datas = [spectral(A) for A in system.residues]
    except IrrationalSpectrum:
        return certify(k, dens, None)
    b = lcm(*(data.b for data in datas))
    q = prod(g.denominator for g in system.gammas)
    d_exp = sum(data.r_max - 1 for data in datas)
    if d_exp == 0:  # every residue diagonalizable: the common eigenbasis
        T = simultaneous_eigenbasis(system.residues, datas)
        t = T.entry_denominator() * T.inverse().entry_denominator()
    else:
        t = prod(data.t1 * data.t2 for data in datas)
    shift = max(data.r_max for data in datas) - 1
    return certify(k, dens, b, base=q, d_exp=d_exp, scale=t, shift=shift)
