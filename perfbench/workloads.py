"""Seed-driven inputs, operations and output checks of the factcancel benchmark.

A workload is a list of operations drawn from a seed.  One operation is one
public-API call (a certificate, one ``theorem6`` decision, one every-k sweep,
one ``g_k`` bound check) or one CLI invocation.  ``run_op`` executes an
operation and keeps its result; ``check_op`` judges the result afterwards,
outside the timed region, against independent recomputations and the oracles
the package keeps.  Importing this module imports ``factcancel``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import subprocess
import sys
import traceback
from dataclasses import dataclass
from fractions import Fraction as F
from math import gcd, lcm
from pathlib import Path

import mpmath

from factcancel import arith, catalog, cli, constcoef, falling, fuchs, hyper, matfun
from factcancel.matfun import MatQ

WORKLOADS = ("certify", "sweep", "cli")

#: the seed whose digests are recorded in reference.json
DEFAULT_SEED = 0

REFERENCE_FILE = Path(__file__).resolve().parent / "reference.json"

#: signatures of the two README-contract violations the cli traffic keeps:
#: the README Fuchsian JSON without "m", and ``--lambda 1/0``
KNOWN_DEFECTS = {
    "fuchsian_no_m": "KeyError",
    "scalar_zero_den": "ZeroDivisionError",
}


@dataclass
class Op:
    kind: str
    args: dict
    result: object = None
    error: str | None = None


# ---------------------------------------------------------------------------
# input generation


def _coprime_rat(rng: random.Random, den: int) -> F:
    """p/den in lowest terms with -1 < p/den < 1, p != 0."""
    return F(rng.choice([p for p in range(1 - den, den) if p and gcd(p, den) == 1]), den)


def _rat(rng: random.Random, max_den: int) -> F:
    return _coprime_rat(rng, rng.randint(2, max_den))


def _distinct_rats(rng: random.Random, n: int, max_den: int, integers: bool) -> list[F]:
    out: list[F] = []
    while len(out) < n:
        x = F(rng.randint(-2, 2)) if integers and rng.random() < 0.25 else _rat(rng, max_den)
        if x not in out:
            out.append(x)
    return out


def _jordan_blocks(rng: random.Random, size: int) -> list[tuple[F, int]]:
    blocks, left = [], size
    while left:
        s = rng.randint(1, min(3, left))
        blocks.append((_rat(rng, 10), s))
        left -= s
    return blocks


def _fuchsian(rng: random.Random, n: int, commuting: bool) -> fuchs.FuchsianSystem:
    g1 = F(rng.randint(-2, 2))
    gammas = (g1, g1 + rng.randint(1, 3))
    if not commuting:
        residues = (
            catalog.random_rational_matrix(n, rng),
            catalog.random_rational_matrix(n, rng),
        )
    elif n == 2:
        # a Jordan block and its square: the r_max > 1 branch of the bound
        lam = _rat(rng, 6)
        A = MatQ([[lam, F(1)], [F(0), lam]])
        residues = (A, A @ A)
    else:
        # two diagonal residues: the simultaneous-eigenbasis branch
        residues = (
            MatQ.diagonal(_distinct_rats(rng, n, 6, False)),
            MatQ.diagonal(_distinct_rats(rng, n, 6, False)),
        )
    return fuchs.FuchsianSystem(m=n, gammas=gammas, residues=residues)


def _theorem6_inputs(rng: random.Random) -> dict:
    params, eps = rng.choice(
        [
            (catalog.HYPER_M1, F(1, 10)),
            (catalog.HYPER_M1, F(1, 8)),
            (catalog.HYPER_M1, F(1, 5)),
            (catalog.HYPER_M2, F(1, 10)),
            (catalog.HYPER_M2, F(1, 8)),
            (catalog.HYPER_M2, F(1, 6)),
        ]
    )
    a2 = int(10 ** rng.uniform(4, 40))
    a1 = rng.choice((1, 2, 3, 5, 7)) * rng.choice((1, -1))
    return {"params": params, "xi": F(a1, a2), "eps": eps}


def certify_ops(rng: random.Random, tiny: bool) -> list[Op]:
    ops = []
    ks, rs = ((20, 30), (1, 2)) if tiny else ((60, 100, 140), (1, 2, 3))
    dens = rng.sample(range(2, 31), len(ks) * len(rs))
    combos = [(k, r) for k in ks for r in rs]
    rng.shuffle(combos)
    for (k, r), den in zip(combos, dens):
        ops.append(Op("certify_scalar", {"lam": _coprime_rat(rng, den), "k": k, "r": r}))
    # The seed draws spectra; the unimodular conjugation is fixed per slot,
    # because its entry sizes, not the spectrum, set most of the cost.
    for slot, size in enumerate((2, 3) if tiny else (2, 3, 4, 4, 2, 3, 4, 3)):
        A = catalog.from_jordan_data(_jordan_blocks(rng, size), seed=slot + 1)
        ops.append(Op("certify_matrix", {"A": A, "k": (10, 20)[slot % 2] if tiny else (60, 120)[slot % 2]}))
    for n in (2, 3) if tiny else (2, 3, 2, 3):
        for commuting in (True, False):
            ops.append(
                Op("certify_system", {"system": _fuchsian(rng, n, commuting), "k": 6 if tiny else 20})
            )
    for slot, size in enumerate((2, 3) if tiny else (2, 2, 2, 2, 3, 3, 3, 3)):
        blocks = [(lam, 1) for lam in _distinct_rats(rng, size, 6, True)]
        A = catalog.from_jordan_data(blocks, seed=slot + 11)
        ops.append(Op("certify_constcoef", {"A": A, "k": 6 if tiny else 20}))
    lemma = ((catalog.HYPER_M1, 10),) if tiny else (
        (catalog.HYPER_M1, 40),
        (catalog.HYPER_M2, 30),
        (catalog.HYPER_M3, 24),
    )
    for params, k in lemma:
        ops.append(Op("certify_lemma11", {"params": params, "k": k}))
    for _ in range(4 if tiny else 20):
        ops.append(Op("theorem6", _theorem6_inputs(rng)))
    rng.shuffle(ops)
    return ops


def sweep_ops(rng: random.Random, tiny: bool) -> list[Op]:
    ops = []
    lams = [_coprime_rat(rng, den) for den in rng.sample(range(2, 31), 2 if tiny else 6)]
    for lam in lams:
        ops.append(Op("sweep", {"lam": lam, "k_max": 30 if tiny else 200, "r": 1}))
    for lam in lams[:1] if tiny else lams[:3]:
        for r in (2, 3, 4):
            ops.append(Op("sweep", {"lam": lam, "k_max": 15 if tiny else 100, "r": r}))
    for k in range(1, (20 if tiny else 150) + 1):
        ops.append(Op("g_k_bound", {"k": k}))
    rng.shuffle(ops)
    return ops


def _lam_arg(lam: F) -> str:
    return f"--lambda={arith.format_rat(lam)}"


def _hyper_args(params) -> list[str]:
    return [f"--alpha={a}" for a in params.alpha] + [f"--beta={b}" for b in params.beta]


def cli_ops(rng: random.Random, tiny: bool, inputs: Path) -> list[Op]:
    """README examples at README sizes with seed-drawn values."""
    inputs.mkdir(parents=True, exist_ok=True)
    files = iter(range(1000))

    def write(text: str) -> str:
        path = inputs / f"in{next(files)}.json"
        path.write_text(text, encoding="utf-8")
        return str(path)

    ops = []

    def add(kind, argv, expect_rc=0, defect=None):
        ops.append(Op(kind, {"argv": argv, "expect_rc": expect_rc, "defect": defect}))

    for _ in range(2 if tiny else 4):
        add("scalar", ["certify", "scalar", _lam_arg(_rat(rng, 30)), "--k", "50", "--json"])
    add("scalar", ["certify", "scalar", _lam_arg(_rat(rng, 30)), "--k", "30", "--r", "2", "--json"])
    add("scalar", ["certify", "scalar", "--lambda", "1/0", "--k", "50"], 2, "scalar_zero_den")
    for slot in range(1 if tiny else 3):
        A = catalog.from_jordan_data(_jordan_blocks(rng, slot + 2), seed=slot + 1)
        add("matrix", ["certify", "matrix", "--file", write(A.to_json()), "--k", "40", "--json"])
    for n, commuting in ((2, True), (3, False)) if tiny else ((2, True), (3, True), (3, False)):
        path = write(_fuchsian(rng, n, commuting).to_json())
        add("fuchsian", ["certify", "fuchsian", "--file", path, "--k", "12", "--json"])
    system = _fuchsian(rng, 2, True)
    readme_form = {
        "gammas": [arith.format_rat(g) for g in system.gammas],
        "residues": [A.to_lists() for A in system.residues],
    }
    path = write(json.dumps(readme_form))
    add("fuchsian", ["certify", "fuchsian", "--file", path, "--k", "12", "--json"], 0, "fuchsian_no_m")
    for slot, size in enumerate((2,) if tiny else (2, 3)):
        blocks = [(lam, 1) for lam in _distinct_rats(rng, size, 6, True)]
        A = catalog.from_jordan_data(blocks, seed=slot + 11)
        add("constcoef", ["certify", "constcoef", "--file", write(A.to_json()), "--k", "25", "--json"])
    for _ in range(1 if tiny else 2):
        a, b = _rat(rng, 9), _rat(rng, 9)
        add("series", ["hyper", "series", f"--alpha={a}", f"--beta={b}", "--N", "10", "--json"])
        a, b = _rat(rng, 9), _rat(rng, 9)
        add("system", ["hyper", "system", f"--alpha={a}", f"--beta={b}", "--N", "40"])
        a, b = _rat(rng, 9), _rat(rng, 9)
        add("conditions", ["hyper", "conditions", f"--alpha={a}", f"--beta={b}", "--json"])
    for params in (catalog.HYPER_M2,) if tiny else (catalog.HYPER_M1, catalog.HYPER_M2):
        argv = ["hyper", "lemma11"] + _hyper_args(params)
        add("lemma11", argv + ["--k", "20", "--json"])
    for _ in range(1 if tiny else 2):
        t6 = _theorem6_inputs(rng)
        argv = ["hyper", "theorem6"] + _hyper_args(t6["params"])
        add("theorem6", argv + [f"--xi={t6['xi']}", "--epsilon", str(t6["eps"]), "--json"])
    if not tiny:
        seed = str(rng.randrange(1000))
        add("verify", ["verify", "--suite", "identities", "--seed", seed, "--json"])
        add("verify", ["verify", "--suite", "divisibility", "--seed", seed, "--json"])
    rng.shuffle(ops)
    return ops


def make_ops(workload: str, seed: int, input_id: int, size: str, cli_inputs: Path | None = None) -> list[Op]:
    """The operations of input set ``input_id`` of a run with this seed."""
    rng = random.Random(f"{workload}:{seed}:{input_id}")
    tiny = size == "tiny"
    if workload == "certify":
        return certify_ops(rng, tiny)
    if workload == "sweep":
        return sweep_ops(rng, tiny)
    if workload == "cli":
        return cli_ops(rng, tiny, cli_inputs)
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# operations


def g_k_bound(k: int) -> tuple[int, bool]:
    """Criterion 8 for one k: ln g_k <= 2 pi(k) ln k."""
    g = arith.g_k(k)
    with mpmath.workdps(50):
        bound = 2 * arith.prime_pi(k) * mpmath.log(k) if k > 1 else 0
        return g, bool(mpmath.log(g) <= bound + mpmath.mpf(10) ** -40)


def _call_api(op: Op):
    a = op.args
    if op.kind == "certify_scalar":
        return falling.certify_scalar(a["lam"], a["k"], a["r"])
    if op.kind == "certify_matrix":
        return matfun.certify_matrix(a["A"], a["k"])
    if op.kind == "certify_system":
        return fuchs.certify_system(a["system"], a["k"])
    if op.kind == "certify_constcoef":
        return constcoef.certify_constcoef(a["A"], a["k"])
    if op.kind == "certify_lemma11":
        return hyper.certify_lemma11(a["params"], a["k"])
    if op.kind == "theorem6":
        return hyper.theorem6(a["params"], a["xi"], a["eps"])
    if op.kind == "sweep":
        return falling.certify_scalar_sweep(a["lam"], a["k_max"], a["r"])
    if op.kind == "g_k_bound":
        return g_k_bound(a["k"])
    raise ValueError(f"unknown operation {op.kind!r}")


def run_cli_subprocess(argv: list[str]) -> dict:
    proc = subprocess.run(
        [sys.executable, "-m", "factcancel.cli", *argv],
        capture_output=True,
        text=True,
        timeout=120,
    )
    return {"rc": proc.returncode, "stdout": proc.stdout, "stderr": proc.stderr}


def run_cli_inprocess(argv: list[str]) -> dict:
    """cli.main(argv) in this interpreter; an uncaught exception is reported
    as the interpreter would report it: exit 1 and a traceback on stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except Exception:  # the program's crash is the measured outcome
            traceback.print_exc()
            rc = 1
    return {"rc": rc, "stdout": out.getvalue(), "stderr": err.getvalue()}


def run_op(op: Op, inproc: bool = False) -> None:
    """Execute one operation; keep its result, or the error it raised."""
    try:
        if "argv" in op.args:
            run = run_cli_inprocess if inproc else run_cli_subprocess
            op.result = run(op.args["argv"])
        else:
            op.result = _call_api(op)
    except Exception as exc:  # a failing operation is counted, not fatal
        op.error = "".join(traceback.format_exception_only(type(exc), exc)).strip()


# ---------------------------------------------------------------------------
# output checks (outside the timed region)


def _check_cert(cert, expect, label: str) -> list[str]:
    errs = []
    if cert.divides is not expect:
        errs.append(f"{label}: divides={cert.divides}, expected {expect}")
    if cert.bound_k is not None and (cert.bound_k % cert.psi_k == 0) is not cert.divides:
        errs.append(f"{label}: bound_k % psi_k disagrees with divides")
    return errs


def _psi_oracle_scalar(lam: F, k: int, r: int) -> int:
    out = 1
    for n in range(k + 1):
        for v in falling.delta_derivatives_via_shift(lam, n, r):
            out = lcm(out, v.denominator)
    return out


def _bound_applies(system) -> bool:
    """A system certificate carries a bound exactly when the residues commute
    pairwise and each has a rational spectrum."""
    mats = system.residues
    if not all(A @ B == B @ A for A in mats for B in mats):
        return False
    return all(matfun.rational_roots_monic(matfun.char_poly(A))[1].degree == 0 for A in mats)


def _direct_theorem6(rep, params, digits: int) -> bool:
    """The verdict a2^{1-(m+2)eps} > C0 |a1|^{2-(m+1)eps}, evaluated directly."""
    m = params.m
    with mpmath.workdps(digits):
        eps = mpmath.mpf(rep.epsilon.numerator) / rep.epsilon.denominator
        lhs = mpmath.mpf(rep.xi.denominator) ** (1 - (m + 2) * eps)
        rhs = rep.C0 * mpmath.mpf(abs(rep.xi.numerator)) ** (2 - (m + 1) * eps)
        return bool(lhs > rhs)


def _check_api(op: Op) -> list[str]:
    a, res = op.args, op.result
    if op.kind == "certify_scalar":
        lam, r = a["lam"], a["r"]
        errs = _check_cert(res, True, "scalar")
        for n in (3, 9):
            if falling.delta_derivatives(lam, n, r) != falling.delta_derivatives_via_shift(lam, n, r):
                errs.append(f"scalar: delta_derivatives disagrees with the shift oracle at n={n}")
        if falling.psi_scalar(lam, 8, r) != _psi_oracle_scalar(lam, 8, r):
            errs.append("scalar: psi at k=8 disagrees with the shift oracle")
        return errs
    if op.kind == "certify_matrix":
        return _check_cert(res, True, "matrix")
    if op.kind == "certify_system":
        system = a["system"]
        expect = True if _bound_applies(system) else None
        errs = _check_cert(res, expect, "system")
        psi = 1
        nfact = 1
        for n in range(1, 4):
            nfact *= n
            Q = fuchs.qn_via_brackets(system, n)
            if Q != fuchs.qn_recurrence(system, n):
                errs.append(f"system: bracket oracle disagrees at n={n}")
            psi = lcm(psi, Q.scale(F(1, nfact)).coeff_denominator())
        if fuchs.certify_system(system, 3).psi_k != psi:
            errs.append("system: psi at k=3 disagrees with the bracket oracle")
        return errs
    if op.kind == "certify_constcoef":
        errs = _check_cert(res, True, "constcoef")
        for n, nfact in ((2, 2), (3, 6)):
            if constcoef.lemma17_rhs(a["A"], n) != constcoef.script_A_n(a["A"], n).scale(F(1, nfact)):
                errs.append(f"constcoef: partition oracle disagrees at n={n}")
        return errs
    if op.kind == "certify_lemma11":
        return _check_cert(res.inner, True, "lemma11 inner") + _check_cert(
            res.outer, True, "lemma11 outer"
        )
    if op.kind == "theorem6":
        hi = hyper.theorem6(a["params"], a["xi"], a["eps"], digits=80)
        errs = []
        if res.decisive and not (hi.decisive and hi.irrational == res.irrational):
            errs.append("theorem6: verdict changes at 80 digits")
        if res.decisive and _direct_theorem6(hi, a["params"], 80) != res.irrational:
            errs.append("theorem6: verdict disagrees with the direct inequality")
        return errs
    if op.kind == "sweep":
        lam, k_max, r = a["lam"], a["k_max"], a["r"]
        errs = []
        if len(res) != k_max or not all(res):
            errs.append(f"sweep: {res.count(False)} false verdicts of {len(res)}")
        for k in sorted({1, 2, 8, k_max // 3}):
            if falling.certify_scalar(lam, k, r).divides is not res[k - 1]:
                errs.append(f"sweep: verdict at k={k} disagrees with certify_scalar")
        if falling.psi_scalar(lam, 8, r) != _psi_oracle_scalar(lam, 8, r):
            errs.append("sweep: psi at k=8 disagrees with the shift oracle")
        return errs
    if op.kind == "g_k_bound":
        k = a["k"]
        g, holds = res
        errs = [] if holds else [f"g_k_bound: bound fails at k={k}"]
        if k <= 24 and g != arith.g_k_by_enumeration(k):
            errs.append(f"g_k_bound: g_k disagrees with enumeration at k={k}")
        with mpmath.workdps(80):
            bound = 2 * arith.prime_pi(k) * mpmath.log(k) if k > 1 else 0
            if bool(mpmath.log(g) <= bound + mpmath.mpf(10) ** -40) is not holds:
                errs.append(f"g_k_bound: verdict changes at 80 digits, k={k}")
        return errs
    raise ValueError(f"unknown operation {op.kind!r}")


def _parse_json(stdout: str):
    lines = stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def _check_cli_payload(op: Op, data) -> list[str]:
    kind = op.kind
    if kind in ("scalar", "matrix", "constcoef", "fuchsian"):
        psi = int(data["psi_k"])
        if data["bound_k"] is None:
            ok = kind == "fuchsian" and data.get("no_bound") is True and data["divides"] is None
            return [] if ok else [f"{kind}: no bound reported"]
        bound = int(data["bound_k"])
        if data["divides"] is not True or bound % psi:
            return [f"{kind}: psi_k does not divide bound_k"]
        return []
    if kind == "lemma11":
        errs = []
        for side in ("inner", "outer"):
            d = data[side]
            if d["divides"] is not True or int(d["bound_k"]) % int(d["psi_k"]):
                errs.append(f"lemma11 {side}: psi_k does not divide bound_k")
        return errs
    if kind == "series":
        return [] if data and data[0] == "1" and len(data) == 11 else ["series: bad coefficients"]
    if kind == "conditions":
        flags = ("linear", "belyi", "kummer", "gamma_nonintegral")
        return [] if data["all_hold"] == all(data[f] for f in flags) else ["conditions: all_hold"]
    if kind == "theorem6":
        return [] if "irrational" in data else ["theorem6: no verdict"]
    if kind == "verify":
        bad = [s for s, v in data["suites"].items() if v["passed"] != v["total"]]
        return [f"verify: failing suites {bad}"] if bad or data["first_failure"] else []
    return []


def check_cli(op: Op) -> tuple[list[str], bool]:
    """(errors, known_defect) for one CLI invocation, judged by the README
    contract: exit code, parseable --json output, no traceback."""
    res = op.result
    expect_rc, defect = op.args["expect_rc"], op.args["defect"]
    if op.error is not None:
        return [f"{op.kind}: harness error {op.error}"], False
    if defect and res["rc"] == 1 and "Traceback" in res["stderr"] and KNOWN_DEFECTS[defect] in res["stderr"]:
        return [], True
    errs = []
    if res["rc"] != expect_rc:
        errs.append(f"{op.kind}: exit {res['rc']}, README contract says {expect_rc}")
    if "Traceback" in res["stderr"]:
        errs.append(f"{op.kind}: traceback on stderr")
    if not errs and expect_rc == 0:
        if op.kind == "system":
            if "residual zero" not in res["stdout"] or "True" not in res["stdout"]:
                errs.append("system: residual not reported zero")
        else:
            try:
                data = _parse_json(res["stdout"])
            except json.JSONDecodeError:
                return errs + [f"{op.kind}: --json output does not parse"], False
            errs += _check_cli_payload(op, data)
    return errs, False


def check_op(op: Op) -> tuple[list[str], bool]:
    """(errors, known_defect) for one operation."""
    if "argv" in op.args:
        return check_cli(op)
    if op.error is not None:
        return [f"{op.kind}: raised {op.error}"], False
    return _check_api(op), False


# ---------------------------------------------------------------------------
# digests of (psi_k, bound_k, verdict)


def _cert_key(cert) -> str:
    return f"{cert.psi_k}/{cert.bound_k}/{cert.divides}"


def _op_key(op: Op) -> str:
    res = op.result
    if op.error is not None:
        return f"{op.kind}:error"
    if "argv" in op.args:
        if op.args["defect"]:
            return ""
        try:
            data = _parse_json(res["stdout"]) if "--json" in op.args["argv"] else res["stdout"]
        except json.JSONDecodeError:
            data = None
        if isinstance(data, dict):
            # floats in the payload are informational; the digest keeps exact data
            data = {k: v for k, v in data.items() if not isinstance(v, float)}
            for side in ("inner", "outer"):
                if side in data:
                    data[side] = {k: v for k, v in data[side].items() if not isinstance(v, float)}
            if op.kind == "theorem6":
                data = {k: data.get(k) for k in ("irrational", "decisive", "b0", "H")}
        return f"{op.kind}:{res['rc']}:{json.dumps(data, sort_keys=True)}"
    if op.kind == "certify_lemma11":
        return f"{op.kind}:{_cert_key(res.inner)}:{_cert_key(res.outer)}"
    if op.kind == "theorem6":
        return f"{op.kind}:{res.irrational}:{res.decisive}"
    if op.kind == "sweep":
        return f"{op.kind}:" + "".join("1" if v else "0" for v in res)
    if op.kind == "g_k_bound":
        return f"{op.kind}:{res[0]}:{res[1]}"
    return f"{op.kind}:{_cert_key(res)}"


def digest(ops: list[Op]) -> str:
    h = hashlib.sha256()
    for op in ops:
        h.update(_op_key(op).encode())
        h.update(b"\n")
    return h.hexdigest()


def reference_digest(workload: str, seed: int, input_id: int, size: str) -> str | None:
    """The recorded digest for this input set, if one is recorded."""
    if (seed, input_id) != (DEFAULT_SEED, 0):
        return None
    ref = json.loads(REFERENCE_FILE.read_text(encoding="utf-8"))
    return ref.get(f"{workload}/{size}")

