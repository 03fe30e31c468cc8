#!/usr/bin/env python3
"""Print the measured certificate growth rate ln(psi_k)/k next to the
asymptotic constant ln(b e^{chi(b)}) it should approach.

Usage:
    python3 scripts/growth_sweep.py --k-max 120 --step 20
"""

import argparse
import math
from fractions import Fraction

from factcancel import catalog, constcoef, falling, matfun
from factcancel.checks import chi


def scalar_rows(k_max: int, step: int):
    for lam in (Fraction(1, 2), Fraction(2, 3), Fraction(-7, 10)):
        b = lam.denominator
        limit = math.log(b) + float(chi(b))
        for k in range(step, k_max + 1, step):
            cert = falling.certify_scalar(lam, k)
            yield ("scalar", str(lam), k, math.log(cert.psi_k) / k, limit)


def matrix_rows(k_max: int, step: int):
    for label, A in [
        ("idempotent", catalog.IDEMPOTENT_HALF),
        ("diag(1/2,1/3)", matfun.MatQ.diagonal([Fraction(1, 2), Fraction(1, 3)])),
    ]:
        data = matfun.spectral(A)
        limit = math.log(data.b) + float(chi(data.b))
        for k in range(step, k_max + 1, step):
            cert = matfun.certify_matrix(A, k)
            rate = math.log(cert.psi_k) / k if cert.psi_k > 1 else 0.0
            yield ("matrix", label, k, rate, limit)


def constcoef_rows(k_max: int, step: int):
    A = catalog.IDEMPOTENT_HALF
    for k in range(step, min(k_max, 60) + 1, step):
        cert = constcoef.certify_constcoef(A, k)
        yield ("constcoef", "idempotent", k, math.log(cert.psi_k) / k, math.log(2.0))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--k-max", type=int, default=120)
    ap.add_argument("--step", type=int, default=20)
    args = ap.parse_args()
    print(f"{'family':<10} {'instance':<14} {'k':>5} {'ln(psi_k)/k':>12} {'limit':>8}")
    for gen in (scalar_rows, matrix_rows, constcoef_rows):
        for family, label, k, rate, limit in gen(args.k_max, args.step):
            print(f"{family:<10} {label:<14} {k:>5} {rate:>12.6f} {limit:>8.4f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
