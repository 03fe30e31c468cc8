"""Command-line front-end.

Exit codes: 0 success/verdict, 1 property failure, 2 input error,
3 unsupported input (irrational spectrum and similar).
"""

from __future__ import annotations

import argparse
import json
import sys
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from math import factorial

from . import arith, catalog, constcoef, falling, fuchs, hyper, matfun
from .errors import (
    ConditionsFailed,
    FactCancelError,
    IrrationalSpectrum,
    NotCommuting,
    RepeatedRootMinPoly,
)
from .matfun import MatQ
from .poly import UniPoly

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_INPUT = 2
EXIT_UNSUPPORTED = 3


def _print_cert(cert, as_json: bool, extra: dict = None):
    if as_json:
        d = cert.to_dict()
        if extra:
            d.update(extra)
        print(json.dumps(d, sort_keys=True))
        return
    print(f"k = {cert.k}")
    print(f"psi_k = {cert.psi_k}")
    if cert.bound_k is None:
        print("bound_k = (none: measurement only)")
    else:
        print(f"bound_k = {cert.bound_k}")
        print(f"divides = {cert.divides}")
    print(f"ln(psi_k)/k = {cert.log_ratio_per_k:.6f}")
    if cert.asymptotic_constant is not None:
        print(f"asymptotic constant = {cert.asymptotic_constant:.6f}")
    if extra:
        for key, val in extra.items():
            print(f"{key} = {val}")


def _read_file(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _hyper_params(args) -> hyper.HyperParams:
    if args.file:
        return hyper.HyperParams.from_json(_read_file(args.file))
    if not args.alpha or not args.beta:
        raise ValueError("need --alpha/--beta (repeatable) or --file")
    return hyper.HyperParams.of(
        [arith.parse_rat(a) for a in args.alpha],
        [arith.parse_rat(b) for b in args.beta],
    )


def cmd_certify_scalar(args) -> int:
    lam = arith.parse_rat(args.lam)
    cert = falling.certify_scalar(lam, args.k, args.r, digits=args.precision)
    _print_cert(cert, args.json)
    return EXIT_OK if cert.divides else EXIT_FAIL


def cmd_certify_matrix(args) -> int:
    A = MatQ.from_json(_read_file(args.file))
    cert = matfun.certify_matrix(A, args.k, digits=args.precision)
    _print_cert(cert, args.json)
    return EXIT_OK if cert.divides else EXIT_FAIL


def cmd_certify_fuchsian(args) -> int:
    system = fuchs.FuchsianSystem.from_json(_read_file(args.file))
    cert = fuchs.certify_system(
        system, args.k, degree_cap=args.degree_cap, digits=args.precision
    )
    extra = {"no_bound": cert.bound_k is None}
    _print_cert(cert, args.json, extra)
    if cert.bound_k is None:
        return EXIT_OK
    return EXIT_OK if cert.divides else EXIT_FAIL


def cmd_certify_constcoef(args) -> int:
    A = MatQ.from_json(_read_file(args.file))
    cert = constcoef.certify_constcoef(
        A, args.k, degree_cap=args.degree_cap, digits=args.precision
    )
    _print_cert(cert, args.json)
    return EXIT_OK if cert.divides else EXIT_FAIL


def cmd_hyper(args) -> int:
    params = _hyper_params(args)
    if args.hyper_cmd == "series":
        f = hyper.series(params, args.N)
        if args.json:
            print(json.dumps([arith.format_rat(c) for c in f.coeffs]))
        else:
            for n, c in enumerate(f.coeffs):
                print(f"f_{n} = {arith.format_rat(c)}")
        return EXIT_OK
    if args.hyper_cmd == "system":
        system = hyper.build_system(params)
        ok = hyper.system_residual(params, args.N)
        if args.json:
            print(
                json.dumps(
                    {"system": json.loads(system.to_json()), "residual_zero": ok},
                    sort_keys=True,
                )
            )
        else:
            print(system.to_json())
            print(f"residual zero through z^{args.N - 1}: {ok}")
        return EXIT_OK if ok else EXIT_FAIL
    if args.hyper_cmd == "lemma11":
        cert = hyper.certify_lemma11(params, args.k, digits=args.precision)
        if args.json:
            print(
                json.dumps(
                    {
                        "inner": cert.inner.to_dict(),
                        "outer": cert.outer.to_dict(),
                        "gamma_zero": cert.gamma_zero,
                        "a": cert.a,
                        "b": cert.b,
                        "t1": cert.t1,
                        "t2": cert.t2,
                    },
                    sort_keys=True,
                )
            )
        else:
            print("inner certificate:")
            _print_cert(cert.inner, False)
            print("outer certificate:")
            _print_cert(cert.outer, False)
        ok = cert.inner.divides and cert.outer.divides
        return EXIT_OK if ok else EXIT_FAIL
    if args.hyper_cmd == "conditions":
        rep = hyper.check_conditions(params)
        out = {
            "linear": rep.linear,
            "belyi": rep.belyi,
            "kummer": rep.kummer,
            "gamma_nonintegral": rep.gamma_nonintegral,
            "all_hold": rep.all_hold(),
            "diagnostics": list(rep.diagnostics),
        }
        if args.json:
            print(json.dumps(out, sort_keys=True))
        else:
            for key, val in out.items():
                print(f"{key}: {val}")
        return EXIT_OK
    if args.hyper_cmd == "theorem6":
        xi = arith.parse_rat(args.xi)
        eps = arith.parse_rat(args.epsilon)
        try:
            rep = hyper.theorem6(params, xi, eps, digits=args.precision)
        except ConditionsFailed as exc:
            out = {"conditions_failed": exc.failed, "irrational": False}
            print(json.dumps(out, sort_keys=True) if args.json else f"conditions failed: {exc.failed}")
            return EXIT_OK
        if args.json:
            print(rep.to_json())
        else:
            for key, val in rep.to_dict().items():
                print(f"{key}: {val}")
        return EXIT_OK
    raise ValueError(f"unknown hyper subcommand {args.hyper_cmd}")


# ---------------------------------------------------------------------------
# verify suites


def _identity_checks(seed: int):
    import random

    rng = random.Random(seed)
    checks = []
    polys = [
        UniPoly(tuple(rng.randint(-4, 4) for _ in range(rng.randint(2, 6))))
        for _ in range(5)
    ]
    for lam in catalog.SCALAR_LAMBDAS[:6]:
        for f in polys[:2]:
            for n in (1, 3, 6):
                checks.append(
                    ("eq14", lambda lam=lam, f=f, n=n: fuchs.operator_identity_14(lam, f, n))
                )
    for lam1, lam2 in [(Fraction(1, 2), Fraction(1, 3)), (Fraction(-1, 4), Fraction(2, 5))]:
        checks.append(
            (
                "eq16",
                lambda a=lam1, b=lam2: fuchs.operator_identity_16(
                    [a, b], [Fraction(0), Fraction(1)], polys[0], 4
                ),
            )
        )
    for system in catalog.fuchsian_catalog(seed)[:6]:
        for n in (1, 2, 4):
            checks.append(
                (
                    "bracket",
                    lambda s=system, n=n: fuchs.qn_via_brackets(s, n)
                    == fuchs.qn_recurrence(s, n),
                )
            )
    mats = [catalog.random_rational_matrix(2, rng) for _ in range(3)]
    checks.append(("bracket-sum", lambda: matfun.bracket_sum_identity(mats, 4)))
    for A in catalog.constcoef_catalog()[:4]:
        for n in (2, 3, 4):
            checks.append(
                (
                    "partition",
                    lambda A=A, n=n: constcoef.lemma17_rhs(A, n)
                    == constcoef.script_A_n(A, n).scale(
                        Fraction(1, factorial(n))
                    ),
                )
            )
    for params in catalog.HYPER_CATALOG:
        forms = hyper.adjoint_system(params)
        checks.append(("projector", lambda f=forms: hyper.projector_relations(f, 3)))
    for n1, n2 in [(0, 0), (2, 3), (4, 1)]:
        checks.append(
            ("partial-fraction", lambda a=n1, b=n2: hyper.partial_fraction_identity(a, b))
        )
    return checks


def _divisibility_checks(seed: int):
    checks = []
    for lam in catalog.SCALAR_LAMBDAS[:8]:
        checks.append(
            ("scalar", lambda lam=lam: falling.certify_scalar(lam, 60).divides)
        )
    for A in catalog.matrix_catalog()[:6]:
        checks.append(("matrix", lambda A=A: matfun.certify_matrix(A, 20).divides))
    for system in catalog.fuchsian_catalog(seed)[:4]:
        checks.append(
            (
                "fuchsian",
                lambda s=system: fuchs.certify_system(s, 8).divides in (True, None),
            )
        )
    for params in catalog.HYPER_CATALOG[:2]:
        checks.append(
            (
                "lemma11",
                lambda p=params: hyper.certify_lemma11(p, 10).inner.divides,
            )
        )
    for A in catalog.constcoef_catalog()[:4]:
        checks.append(
            ("theorem7", lambda A=A: constcoef.certify_constcoef(A, 10).divides)
        )
    return checks


def cmd_verify(args) -> int:
    checks = []
    if args.suite in ("identities", "all"):
        checks += _identity_checks(args.seed)
    if args.suite in ("divisibility", "all"):
        checks += _divisibility_checks(args.seed)
    if args.self_test_fail:
        checks.append(("self-test", lambda: False))
    workers = max(1, args.parallel)
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(lambda c: c[1](), checks))
    else:
        results = [fn() for _, fn in checks]
    tally = {}
    first_failure = None
    for (name, _), ok in zip(checks, results):
        passed, total = tally.get(name, (0, 0))
        tally[name] = (passed + (1 if ok else 0), total + 1)
        if not ok and first_failure is None:
            first_failure = name
    if args.json:
        print(
            json.dumps(
                {
                    "suites": {k: {"passed": p, "total": t} for k, (p, t) in tally.items()},
                    "first_failure": first_failure,
                },
                sort_keys=True,
            )
        )
    else:
        for name, (p, t) in sorted(tally.items()):
            print(f"{name}: {p}/{t}")
        if first_failure:
            print(f"FIRST FAILURE: {first_failure}")
    return EXIT_OK if first_failure is None else EXIT_FAIL


# ---------------------------------------------------------------------------


def positive_int(text: str) -> int:
    """argparse type: an integer >= 1."""
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text}")
    return n


def nonnegative_int(text: str) -> int:
    """argparse type: an integer >= 0."""
    n = int(text)
    if n < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {text}")
    return n


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="factcancel")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--json", action="store_true")
        p.add_argument("--precision", type=positive_int, default=arith.DEFAULT_DIGITS)
        p.add_argument("--parallel", type=int, default=1)
        p.add_argument("--seed", type=int, default=0)

    cert = sub.add_parser("certify")
    csub = cert.add_subparsers(dest="target", required=True)

    p = csub.add_parser("scalar")
    p.add_argument("--lambda", dest="lam", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--r", type=int, default=1)
    common(p)
    p.set_defaults(fn=cmd_certify_scalar)

    p = csub.add_parser("matrix")
    p.add_argument("--file", required=True)
    p.add_argument("--k", type=int, required=True)
    common(p)
    p.set_defaults(fn=cmd_certify_matrix)

    p = csub.add_parser("fuchsian")
    p.add_argument("--file", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--degree-cap", dest="degree_cap", type=int, default=None)
    common(p)
    p.set_defaults(fn=cmd_certify_fuchsian)

    p = csub.add_parser("constcoef")
    p.add_argument("--file", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--degree-cap", dest="degree_cap", type=int, default=4)
    common(p)
    p.set_defaults(fn=cmd_certify_constcoef)

    hp = sub.add_parser("hyper")
    hsub = hp.add_subparsers(dest="hyper_cmd", required=True)
    for name in ("series", "system", "lemma11", "conditions", "theorem6"):
        p = hsub.add_parser(name)
        p.add_argument("--alpha", action="append")
        p.add_argument("--beta", action="append")
        p.add_argument("--file")
        if name in ("series", "system"):
            p.add_argument("--N", type=nonnegative_int, default=20)
        if name == "lemma11":
            p.add_argument("--k", type=int, default=20)
        if name == "theorem6":
            p.add_argument("--xi", required=True)
            p.add_argument("--epsilon", required=True)
        common(p)
        p.set_defaults(fn=cmd_hyper)

    p = sub.add_parser("verify")
    p.add_argument("--suite", choices=("identities", "divisibility", "all"), default="all")
    p.add_argument("--self-test-fail", dest="self_test_fail", action="store_true")
    common(p)
    p.set_defaults(fn=cmd_verify)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return EXIT_INPUT if exc.code not in (0, None) else EXIT_OK
    try:
        return args.fn(args)
    except (IrrationalSpectrum, NotCommuting, RepeatedRootMinPoly) as exc:
        print(f"unsupported input: {exc}", file=sys.stderr)
        return EXIT_UNSUPPORTED
    except (ValueError, OSError, json.JSONDecodeError, FactCancelError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
