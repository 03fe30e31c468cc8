"""Command-line front-end.

Exit codes: 0 success/verdict, 1 property failure, 2 input error,
3 unsupported input (irrational spectrum and similar).

Start-up is most of a single call, so this module imports only ``arith``
and ``errors``: each ``cmd_*`` handler imports the family module it drives
(``falling``, ``matfun``, ``fuchs``, ``constcoef`` or ``hyper``), and only
``verify`` imports ``checks``, which loads them all.  ``hyper`` itself loads
``fuchs``, ``matfun`` and ``certificate`` only in the functions that build a
matrix system or a certificate, so ``hyper series``, ``conditions`` and
``theorem6`` load none of them.  Certificate reals come from ``decimal``,
so only ``theorem6`` loads ``mpmath``, for its interval decision; its
``--precision`` is the one precision flag.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import reprlib
import sys

from . import arith
from .errors import (
    ConditionsFailed,
    FactCancelError,
    IrrationalSpectrum,
    NotCommuting,
    RepeatedRootMinPoly,
)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_INPUT = 2
EXIT_UNSUPPORTED = 3


def _print_cert(cert, as_json: bool, extra: dict = None) -> int:
    """Print cert; its exit code is 1 only when a bound exists and fails."""
    if as_json:
        print(json.dumps({**cert.to_dict(), **(extra or {})}, sort_keys=True))
    else:
        wire = cert.to_dict()  # digits with no length limit
        print(f"k = {cert.k}")
        print(f"psi_k = {wire['psi_k']}")
        if cert.bound_k is None:
            print("bound_k = (none: measurement only)")
        else:
            print(f"bound_k = {wire['bound_k']}")
            print(f"divides = {cert.divides}")
        print(f"ln(psi_k)/k = {cert.log_ratio_per_k:.6f}")
        if cert.asymptotic_constant is not None:
            print(f"asymptotic constant = {cert.asymptotic_constant:.6f}")
        for key, val in (extra or {}).items():
            print(f"{key} = {val}")
    return EXIT_FAIL if cert.divides is False else EXIT_OK


def _read_file(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise ValueError(exc) from exc


def _hyper_params(args):
    from . import hyper

    if args.file:
        return hyper.HyperParams.from_json(_read_file(args.file))
    if not args.alpha or not args.beta:
        raise ValueError("need --alpha/--beta (repeatable) or --file")
    return hyper.HyperParams.of(
        [arith.parse_rat(a) for a in args.alpha],
        [arith.parse_rat(b) for b in args.beta],
    )


def cmd_certify_scalar(args) -> int:
    from . import falling

    lam = arith.parse_rat(args.lam)
    cert = falling.certify_scalar(lam, args.k, args.r)
    return _print_cert(cert, args.json)


def cmd_certify_matrix(args) -> int:
    from . import matfun

    A = matfun.MatQ.from_json(_read_file(args.file))
    cert = matfun.certify_matrix(A, args.k)
    return _print_cert(cert, args.json)


def cmd_certify_fuchsian(args) -> int:
    from . import fuchs

    system = fuchs.FuchsianSystem.from_json(_read_file(args.file))
    cert = fuchs.certify_system(system, args.k)
    return _print_cert(cert, args.json, {"no_bound": cert.bound_k is None})


def cmd_certify_constcoef(args) -> int:
    from . import constcoef
    from .matfun import MatQ

    A = MatQ.from_json(_read_file(args.file))
    cert = constcoef.certify_constcoef(A, args.k, degree_cap=args.degree_cap)
    return _print_cert(cert, args.json)


def cmd_hyper(args) -> int:
    from . import hyper

    params = _hyper_params(args)
    if args.hyper_cmd == "series":
        f = hyper.series(params, args.N)
        if args.json:
            print(json.dumps([arith.format_rat(c) for c in f]))
        else:
            for n, c in enumerate(f):
                print(f"f_{n} = {arith.format_rat(c)}")
        return EXIT_OK
    if args.hyper_cmd == "system":
        system = hyper.build_system(params)
        ok = hyper.system_residual(params, system, args.N)
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
        cert = hyper.certify_lemma11(params, args.k)
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


def cmd_verify(args) -> int:
    from . import checks

    cases = []
    if args.suite in ("identities", "all"):
        cases += checks.identity_checks(args.seed)
    if args.suite in ("divisibility", "all"):
        cases += checks.divisibility_checks(args.seed)
    tally = {}
    first_failure = None
    for name, fn in cases:
        ok = fn()
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


def bounded_int(lo: int, hi: int):
    """argparse type: an integer in [lo, hi].  Every size option has a cap
    at which the README-sized inputs still finish in seconds, so a hostile
    size exits 2 before any work is done."""

    def parse(text: str) -> int:
        try:
            n = int(text)
        except ValueError:  # also text of more than 4,300 digits
            n = None
        if n is None or not lo <= n <= hi:
            shown = reprlib.repr(text)  # a hostile value is shortened
            raise argparse.ArgumentTypeError(f"must be an integer in [{lo}, {hi}], got {shown}")
        return n

    return parse


def _size(p, flag: str, lo: int, hi: int, **kw) -> None:
    p.add_argument(flag, type=bounded_int(lo, hi), help=f"{lo}..{hi}", **kw)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="factcancel")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--json", action="store_true")

    cert = sub.add_parser("certify")
    csub = cert.add_subparsers(dest="target", required=True)

    p = csub.add_parser("scalar")
    p.add_argument("--lambda", dest="lam", required=True)
    _size(p, "--k", 1, 4000, required=True)
    _size(p, "--r", 1, 8, default=1)
    common(p)
    p.set_defaults(fn=cmd_certify_scalar)

    p = csub.add_parser("matrix")
    p.add_argument("--file", required=True)
    _size(p, "--k", 1, 5000, required=True)
    common(p)
    p.set_defaults(fn=cmd_certify_matrix)

    p = csub.add_parser("fuchsian")
    p.add_argument("--file", required=True)
    _size(p, "--k", 1, 500, required=True)
    common(p)
    p.set_defaults(fn=cmd_certify_fuchsian)

    p = csub.add_parser("constcoef")
    p.add_argument("--file", required=True)
    _size(p, "--k", 1, 1000, required=True)
    _size(p, "--degree-cap", 1, 10, dest="degree_cap", default=4)
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
            # system checks the coefficients through z^(N-1): N = 0 checks none
            _size(p, "--N", 1 if name == "system" else 0, 2000, default=20)
        if name == "lemma11":
            _size(p, "--k", 1, 300, default=20)
        if name == "theorem6":
            p.add_argument("--xi", required=True)
            p.add_argument("--epsilon", required=True)
            _size(p, "--precision", 1, 10000, default=arith.DEFAULT_DIGITS)
        common(p)
        p.set_defaults(fn=cmd_hyper)

    p = sub.add_parser("verify")
    p.add_argument("--suite", choices=("identities", "divisibility", "all"), default="all")
    p.add_argument("--seed", type=int, default=0)
    common(p)
    p.set_defaults(fn=cmd_verify)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return EXIT_INPUT if exc.code not in (0, None) else EXIT_OK
    out = io.StringIO()  # written out only if the handler returns
    try:
        with contextlib.redirect_stdout(out):
            code = args.fn(args)
    except (IrrationalSpectrum, NotCommuting, RepeatedRootMinPoly) as exc:
        print(f"unsupported input: {exc}", file=sys.stderr)
        return EXIT_UNSUPPORTED
    except (ValueError, FactCancelError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    try:
        sys.stdout.write(out.getvalue())
        sys.stdout.flush()
    except BrokenPipeError:
        pass  # the reader closed the pipe early: not an input error
    return code


if __name__ == "__main__":
    sys.exit(main())
