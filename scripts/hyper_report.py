#!/usr/bin/env python3
"""End-to-end report for a hypergeometric instance: series residual,
factorial-cancellation certificate, arithmetic conditions, and the
irrationality verdict at a chosen rational point.  Exits 1 when either
Lemma 11 certificate fails (or the irrationality criterion does not apply).

Usage:
    python3 scripts/hyper_report.py --alpha 1/3 --beta 1/2 --xi 1/5000000000000000000
    python3 scripts/hyper_report.py --alpha 1/3 --alpha 1/5 --beta 1/2 --beta 1/4 --k 30
"""

import argparse
from fractions import Fraction

from factcancel import arith, hyper
from factcancel.errors import ConditionsFailed


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--alpha", action="append", required=True, type=arith.parse_rat)
    ap.add_argument("--beta", action="append", required=True, type=arith.parse_rat)
    ap.add_argument("--k", type=int, default=20)
    ap.add_argument("--xi", type=arith.parse_rat, default=None)
    ap.add_argument("--epsilon", type=arith.parse_rat, default=Fraction(1, 10))
    args = ap.parse_args()

    p = hyper.HyperParams.of(args.alpha, args.beta)
    print(f"alpha = {args.alpha}, beta = {args.beta}, gamma = {p.gamma()}")
    print(f"series satisfies its system through z^{args.k - 1}:",
          hyper.system_residual(p, hyper.build_system(p), args.k))

    cert = hyper.certify_lemma11(p, args.k)
    print(f"inner certificate k={args.k}: psi={cert.inner.psi_k} "
          f"divides bound: {cert.inner.divides}")
    print(f"outer certificate: divides: {cert.outer.divides}")
    certified = cert.inner.divides and cert.outer.divides

    rep = hyper.check_conditions(p)
    print("conditions hold:", rep.all_hold(), "" if rep.all_hold() else rep.failed())

    if args.xi is not None:
        try:
            t6 = hyper.theorem6(p, args.xi, args.epsilon)
        except ConditionsFailed as exc:
            print("irrationality criterion not applicable:", exc)
            return 1
        print(f"C0 ~ {t6.C0}")
        print(f"f({args.xi}) irrational (decisive={t6.decisive}):", t6.irrational)
        if t6.irrational:
            measure = t6.to_dict()["measure_exponent"]
            print(f"irrationality measure exponent (eta0, rounded up) <= {measure}")
    return 0 if certified else 1


if __name__ == "__main__":
    raise SystemExit(main())
