import contextlib
import io
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import factcancel
from factcancel import catalog, checks, cli
from factcancel.certificate import CancellationCertificate
from factcancel.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


_SRC = Path(__file__).resolve().parent.parent / "src"
# README-sized file inputs
_MATRIX_JSON = [["1/2", "1/3"], ["0", "1/5"]]
_SYSTEM_JSON = {"gammas": ["0", "1"], "residues": [[["1/2", "0"], ["0", "1/3"]], [["1/4", "0"], ["0", "1/5"]]]}
_BASE = {"factcancel", "factcancel.arith", "factcancel.cli", "factcancel.errors"}
_SCALAR = _BASE | {"factcancel.certificate", "factcancel.falling"}
# production families build integer coefficient lists: only the oracles load poly
_MATRIX = _SCALAR | {"factcancel.matfun"}
_FUCHSIAN = _MATRIX | {"factcancel.fuchs"}
# hyper series, conditions and theorem6 build no certificate and no matrix system
_HYPER = _BASE | {"factcancel.hyper"}
# only verify loads the paper's checks
_ALL = _FUCHSIAN | _HYPER | {"factcancel.catalog", "factcancel.checks", "factcancel.constcoef", "factcancel.poly"}


def _env():
    """The environment of a fresh interpreter that imports factcancel from src."""
    path = [str(_SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(path))


def _modules_after(code, *argv):
    """The factcancel modules, and mpmath, loaded by a fresh interpreter
    running code."""
    code += "\nimport sys\nprint(*sorted(m for m in sys.modules if m.startswith('factcancel') or m == 'mpmath'))"
    proc = subprocess.run(
        [sys.executable, "-c", code, *argv], capture_output=True, text=True, env=_env(), timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.splitlines()[-1].split())


@pytest.mark.parametrize(
    "argv, file_value, want",
    [
        (["certify", "scalar", "--lambda", "1/2", "--k", "50"], None, _SCALAR),
        (["certify", "matrix", "--k", "40"], _MATRIX_JSON, _MATRIX),
        (["certify", "fuchsian", "--k", "12"], _SYSTEM_JSON, _FUCHSIAN),
        # LinearDiffOp's MultiPoly: ROADMAP item 2 decides whether it stays in production
        (
            ["certify", "constcoef", "--k", "25"],
            _MATRIX_JSON,
            _MATRIX | {"factcancel.constcoef", "factcancel.poly"},
        ),
        (["hyper", "series", "--alpha", "1/3", "--beta", "1/2", "--N", "10"], None, _HYPER),
        (["hyper", "conditions", "--alpha", "1/3", "--beta", "1/2"], None, _HYPER),
        (["hyper", "system", "--alpha", "1/3", "--beta", "1/2", "--N", "40"], None, _FUCHSIAN | _HYPER),
        # only the interval decision needs mpmath
        (
            ["hyper", "theorem6", "--alpha", "1/3", "--beta", "1/2", "--xi", "1/100000", "--epsilon", "1/10"],
            None,
            _HYPER | {"mpmath"},
        ),
        (
            ["hyper", "lemma11", "--alpha", "1/3", "--alpha", "1/5", "--beta", "1/2", "--beta", "1/4"],
            None,
            _FUCHSIAN | _HYPER,
        ),
        (["verify", "--suite", "all", "--seed", "0"], None, _ALL),
    ],
    ids=["scalar", "matrix", "fuchsian", "constcoef", "series", "conditions", "system", "theorem6", "lemma11",
         "verify"],
)
def test_subcommand_imports_only_its_family(tmp_path, argv, file_value, want):
    if file_value is not None:
        f = tmp_path / "in.json"
        f.write_text(json.dumps(file_value))
        argv = argv + ["--file", str(f)]
    code = "import sys\nfrom factcancel import cli\nassert cli.main(sys.argv[1:]) == 0"
    assert _modules_after(code, *argv) == want


def test_package_import_is_lazy():
    assert _modules_after("import factcancel") == {"factcancel"}
    namespace = {}
    exec("from factcancel import *", namespace)
    assert set(factcancel.__all__) <= set(namespace)
    assert namespace["MatQ"] is catalog.MatQ


def test_certify_scalar_ok(capsys):
    code, out = run(capsys, "certify", "scalar", "--lambda", "1/2", "--k", "50", "--json")
    assert code == 0
    cert = CancellationCertificate.from_json(out)
    assert cert.divides
    assert cert.k == 50


def test_certify_scalar_integer_trivial(capsys):
    code, out = run(capsys, "certify", "scalar", "--lambda", "3", "--k", "10", "--json")
    assert code == 0
    assert CancellationCertificate.from_json(out).psi_k == 1


def test_certify_scalar_malformed(capsys):
    code, _ = run(capsys, "certify", "scalar", "--lambda", "x/y", "--k", "10")
    assert code == 2


#: the one subcommand with --precision
_THEOREM6 = ["hyper", "theorem6", "--alpha", "1/3", "--beta", "1/2", "--xi", "1/100000",
             "--epsilon", "1/10"]


@pytest.mark.parametrize(
    "argv",
    [
        ["certify", "scalar", "--lambda", "1/0", "--k", "50"],
        [*_THEOREM6, "--precision", "0"],
        [*_THEOREM6, "--precision=-3"],
        ["hyper", "series", "--alpha", "1/3", "--beta", "1/2", "--N=-2"],
        # a residual through z^-1 checks no coefficient
        ["hyper", "system", "--alpha", "1/3", "--beta", "1/2", "--N", "0"],
    ],
    ids=["zero-denominator", "precision-zero", "precision-negative", "negative-N", "system-N-zero"],
)
def test_bad_input_exits_2_without_traceback(capsys, argv):
    code = main(argv)
    err = capsys.readouterr().err
    assert code == 2
    assert err.strip()
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ["certify", "scalar", "--lambda", "1/2", "--k", "10"],
        ["hyper", "lemma11", "--alpha", "1/3", "--beta", "1/2", "--k", "5"],
        ["verify", "--suite", "identities"],
    ],
    ids=["certify", "lemma11", "verify"],
)
def test_precision_exists_only_on_theorem6(capsys, argv):
    # certificate reals are always computed at 50 digits
    assert main([*argv, "--precision", "80"]) == 2
    assert "unrecognized arguments: --precision" in capsys.readouterr().err


@pytest.mark.parametrize(
    "target,text",
    [
        ("fuchsian", '{"residues": [[["1"]]]}'),
        ("fuchsian", "[1,2]"),
        ("matrix", "[1,2]"),
        ("constcoef", "[1,2]"),
        ("series", '{"alpha": ["1/2"]}'),
    ],
    ids=["fuchsian-no-gammas", "fuchsian-list", "matrix-flat", "constcoef-flat", "series-no-beta"],
)
def test_wrong_json_shape_exits_2_without_traceback(tmp_path, capsys, target, text):
    f = tmp_path / "in.json"
    f.write_text(text)
    if target == "series":
        argv = ["hyper", "series", "--file", str(f)]
    else:
        argv = ["certify", target, "--file", str(f), "--k", "3"]
    code = main(argv)
    err = capsys.readouterr().err
    assert code == 2
    assert err.strip()
    assert "Traceback" not in err


@pytest.mark.parametrize("cap", ["0", "-1"])
def test_constcoef_degree_cap_below_one_exits_2(tmp_path, capsys, cap):
    f = tmp_path / "m.json"
    f.write_text(catalog.IDEMPOTENT_HALF.to_json())
    code = main(["certify", "constcoef", "--file", str(f), "--k", "5", f"--degree-cap={cap}"])
    err = capsys.readouterr().err
    assert code == 2
    assert "Traceback" not in err


def test_missing_file_exits_2(tmp_path, capsys):
    code = main(["certify", "matrix", "--file", str(tmp_path / "missing.json"), "--k", "3"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("input error: [Errno 2]")


class _ClosedStdout(io.StringIO):
    """A stdout whose reader has gone: every write raises BrokenPipeError."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


@pytest.mark.parametrize(
    "argv, want",
    [
        (["certify", "scalar", "--lambda", "1/3", "--k", "40"], 0),
        # both Lemma 11 certificates fail here
        (["hyper", "lemma11", "--alpha", "1/3", "--alpha", "5/12", "--beta", "1/2",
          "--beta", "1/4", "--k", "12", "--json"], 1),
    ],
    ids=["certificate", "failed-verify"],
)
def test_closed_stdout_keeps_the_verdict(argv, want):
    # a closed pipe is not bad input: the exit code stays the handler's
    err = io.StringIO()
    with contextlib.redirect_stdout(_ClosedStdout()), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code == want
    assert err.getvalue() == ""


def test_closed_pipe_exits_0_with_empty_stderr():
    # the reader's end is closed before the CLI starts, so every write to
    # stdout fails; stderr must stay empty through interpreter exit
    r, w = os.pipe()
    os.close(r)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "factcancel.cli", "certify", "scalar", "--lambda", "1/3",
             "--k", "40"],
            stdout=w, stderr=subprocess.PIPE, env=_env(), timeout=60,
        )
    finally:
        os.close(w)
    assert proc.returncode == 0
    assert proc.stderr == b""


def test_large_prime_denominator_finishes_fast():
    # 10^30 + 57 is prime and past the Miller-Rabin range: growth_constant's
    # chi(b) factors b, and BPSW accepts it at once
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "factcancel.cli", "certify", "scalar", "--lambda",
         "1/1000000000000000000000000000057", "--k", "5", "--json"],
        capture_output=True, text=True, env=_env(), timeout=60,
    )
    assert time.perf_counter() - start < 5
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["divides"] is True


# Small JSON values of any shape, and well-formed matrices, Fuchsian systems
# and parameter sets built from them, so that the certificates run too.
# Entries reach |int| <= 10**6, exponent strings such as "9e9" and a
# denominator near 10**9: the spectral root search lifts roots modulo a
# small prime instead of factoring det(qA), so its cost grows only with the
# number of digits.
_json_rat = st.integers(-(10**6), 10**6) | st.sampled_from(
    ["1/2", "-2/3", "3/4", "1/3", "9e9", "-7e9", "5e-3", "1e-9", "7/900000007"]
)
_json_leaf = (
    _json_rat
    | st.none()
    | st.booleans()
    | st.sampled_from(["1/0", "x", ""])
    | st.text(alphabet="0123456789/-. x", max_size=3)
)
_json_any = st.recursive(
    _json_leaf,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(
        st.sampled_from(["m", "gammas", "residues", "augmented", "alpha", "beta"])
        | st.text(max_size=2),
        inner,
        max_size=4,
    ),
    max_leaves=12,
)


def _json_matrices(size, count):
    row = st.lists(_json_rat, min_size=size, max_size=size)
    matrix = st.lists(row, min_size=size, max_size=size)
    return st.lists(matrix, min_size=count, max_size=count)


_json_system = st.tuples(st.integers(1, 3), st.integers(1, 3)).flatmap(
    lambda sc: st.fixed_dictionaries(
        {
            "gammas": st.lists(_json_rat, min_size=sc[1], max_size=sc[1]),
            "residues": _json_matrices(*sc),
        },
        optional={"m": _json_leaf, "augmented": _json_leaf},
    )
)
_json_params = st.fixed_dictionaries(
    {"alpha": st.lists(_json_rat, max_size=3), "beta": st.lists(_json_rat, max_size=3)}
)
_json_value = st.one_of(
    _json_any,
    st.integers(1, 3).flatmap(lambda n: _json_matrices(n, 1)).map(lambda ms: ms[0]),
    _json_system,
    _json_params,
)


@settings(max_examples=150, deadline=None)
@given(
    value=_json_value,
    target=st.sampled_from(["matrix", "fuchsian", "constcoef", "series"]),
    k=st.integers(1, 3),
)
def test_file_inputs_end_in_documented_exit_code(tmp_path_factory, value, target, k):
    f = tmp_path_factory.getbasetemp() / "fuzz.json"
    f.write_text(json.dumps(value))
    if target == "series":
        argv = ["hyper", "series", "--file", str(f), "--N", str(k)]
    else:
        argv = ["certify", target, "--file", str(f), "--k", str(k), "--json"]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err.getvalue()


_HOSTILE = [["9e9", "0"], ["0", "7e9"]]


@pytest.mark.parametrize(
    "target, payload",
    [
        ("matrix", _HOSTILE),
        ("matrix", [["9e9", "1"], ["0", "9e9"]]),
        ("constcoef", _HOSTILE),
        ("fuchsian", {"gammas": ["0", "1"], "residues": [_HOSTILE, [["7e9", "0"], ["0", "9e9"]]]}),
    ],
)
def test_hostile_entry_sizes_finish_fast(tmp_path, capsys, target, payload):
    f = tmp_path / "big.json"
    f.write_text(json.dumps(payload))
    start = time.perf_counter()
    code = main(["certify", target, "--file", str(f), "--k", "1", "--json"])
    assert time.perf_counter() - start < 5
    assert code == 0
    assert json.loads(capsys.readouterr().out)["divides"] is True


def test_certify_matrix_idempotent_example(tmp_path, capsys):
    f = tmp_path / "m.json"
    f.write_text(catalog.IDEMPOTENT_HALF.to_json())
    code, out = run(capsys, "certify", "matrix", "--file", str(f), "--k", "15", "--json")
    assert code == 0
    assert CancellationCertificate.from_json(out).psi_k == 2


def test_certify_matrix_rotation_unsupported(tmp_path, capsys):
    f = tmp_path / "rot.json"
    f.write_text(json.dumps([["0", "-1"], ["1", "0"]]))
    code, _ = run(capsys, "certify", "matrix", "--file", str(f), "--k", "5")
    assert code == 3


def test_certify_fuchsian_commuting(tmp_path, capsys):
    f = tmp_path / "sys.json"
    f.write_text(catalog.fuchsian_catalog()[0].to_json())
    code, out = run(capsys, "certify", "fuchsian", "--file", str(f), "--k", "8", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["divides"] is True
    assert data["no_bound"] is False


def test_certify_fuchsian_readme_form_without_m(tmp_path, capsys):
    system = catalog.fuchsian_catalog()[0]
    f = tmp_path / "sys.json"
    f.write_text(
        json.dumps(
            {
                "gammas": [str(g) for g in system.gammas],
                "residues": [A.to_lists() for A in system.residues],
            }
        )
    )
    code = main(["certify", "fuchsian", "--file", str(f), "--k", "8", "--json"])
    captured = capsys.readouterr()
    assert code == 0
    assert "Traceback" not in captured.err
    assert json.loads(captured.out)["divides"] is True


def test_certify_fuchsian_noncommuting_no_bound(tmp_path, capsys):
    f = tmp_path / "sys.json"
    f.write_text(catalog.fuchsian_catalog()[4].to_json())
    code, out = run(capsys, "certify", "fuchsian", "--file", str(f), "--k", "5", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["no_bound"] is True
    assert data["bound_k"] is None


def test_certify_constcoef(tmp_path, capsys):
    f = tmp_path / "m.json"
    f.write_text(catalog.IDEMPOTENT_HALF.to_json())
    code, out = run(capsys, "certify", "constcoef", "--file", str(f), "--k", "10", "--json")
    assert code == 0
    assert json.loads(out)["divides"] is True


def test_hyper_series_geometric(capsys):
    code, out = run(
        capsys, "hyper", "series", "--alpha", "3/2", "--beta", "1/2", "--N", "10", "--json"
    )
    assert code == 0
    assert json.loads(out) == ["1"] * 11


def test_hyper_conditions_failing(capsys):
    code, out = run(
        capsys, "hyper", "conditions", "--alpha", "3/2", "--beta", "1/2", "--json"
    )
    assert code == 0
    data = json.loads(out)
    assert data["linear"] is False


def test_hyper_theorem6(capsys):
    code, out = run(capsys, *_THEOREM6, "--json")
    assert code == 0
    data = json.loads(out)
    assert data["b0"] == 6
    assert data["H"] == "1"
    assert data["digits"] == 50
    code, out = run(capsys, *_THEOREM6, "--precision", "80", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["digits"] == 80
    assert len(data["Phi"].replace(".", "")) == 80


def test_hyper_theorem6_eta0_only_where_the_criterion_holds(capsys):
    # xi = 1/100000 fails the criterion: den < 0 and eta0 would be negative
    code, out = run(capsys, *_THEOREM6, "--json")
    assert code == 0
    data = json.loads(out)
    assert data["irrational"] is False
    assert data["eta0"] is None
    assert data["measure_exponent"] is None


def test_hyper_theorem6_indecisive_exits_0(capsys):
    # xi = 1/floor(C0^(10/7)) is too close to the threshold for 10 digits
    code, out = run(
        capsys,
        "hyper", "theorem6",
        "--alpha", "1/3", "--beta", "1/2",
        "--xi", "1/5892916322298416128", "--epsilon", "1/10",
        "--precision", "10", "--json",
    )
    assert code == 0
    data = json.loads(out)
    assert data["decisive"] is False
    assert data["irrational"] is False


def test_hyper_theorem6_conditions_failed_is_verdict(capsys):
    code, out = run(
        capsys,
        "hyper", "theorem6",
        "--alpha", "3/2", "--beta", "1/2",
        "--xi", "1/7", "--epsilon", "1/10",
        "--json",
    )
    assert code == 0
    assert json.loads(out)["conditions_failed"] == [1, 4]


def test_hyper_invalid_beta(capsys):
    code, _ = run(capsys, "hyper", "series", "--alpha", "1/3", "--beta", "-2", "--N", "3")
    assert code == 2


def test_verify_identities(capsys):
    code, out = run(capsys, "verify", "--suite", "identities", "--seed", "42", "--json")
    assert code == 0
    assert json.loads(out)["first_failure"] is None


def test_verify_self_test_failure(monkeypatch, capsys):
    identity_checks = checks.identity_checks
    monkeypatch.setattr(
        checks, "identity_checks", lambda seed: identity_checks(seed) + [("self-test", lambda: False)]
    )
    code, out = run(capsys, "verify", "--suite", "identities", "--seed", "42", "--json")
    assert code == 1
    assert json.loads(out)["first_failure"] == "self-test"


def test_json_roundtrip_certificate(capsys):
    # negative rationals need the --flag=value spelling under argparse
    code, out = run(capsys, "certify", "scalar", "--lambda=-7/10", "--k", "30", "--json")
    cert = CancellationCertificate.from_json(out)
    assert CancellationCertificate.from_json(cert.to_json()) == cert


def test_certificate_past_the_int_string_limit(capsys):
    # bound_k has more than 4,300 digits, the limit of str(int) and int(str)
    argv = ["certify", "scalar", "--lambda", "1/3", "--k", "3000", "--r", "3"]
    code, out = run(capsys, *argv, "--json")
    assert code == 0
    cert = CancellationCertificate.from_json(out)
    assert len(json.loads(out)["bound_k"]) > 4300
    assert CancellationCertificate.from_json(cert.to_json()) == cert
    code, text = run(capsys, *argv)
    assert code == 0
    assert f"bound_k = {json.loads(out)['bound_k']}" in text


@pytest.mark.parametrize(
    "exc, want", [(ValueError("late failure"), 2), (cli.NotCommuting("late failure"), 3)]
)
def test_handler_that_raises_prints_no_partial_result(monkeypatch, capsys, exc, want):
    def half_done(args):
        print("k = 50")
        raise exc

    monkeypatch.setattr(cli, "cmd_certify_scalar", half_done)
    code = main(["certify", "scalar", "--lambda", "1/2", "--k", "50"])
    captured = capsys.readouterr()
    assert code == want
    assert captured.out == ""
    assert "late failure" in captured.err
    assert "Traceback" not in captured.err


#: stands in argv for the README matrix file that the test writes
_FILE = "m.json"
#: each size option with its documented cap
_SIZE_CAPS = [
    (["certify", "scalar", "--lambda", "1/2"], "--k", 4000),
    (["certify", "scalar", "--lambda", "1/2", "--k", "5"], "--r", 8),
    (["certify", "matrix", "--file", _FILE], "--k", 5000),
    (["certify", "fuchsian", "--file", _FILE], "--k", 500),
    (["certify", "constcoef", "--file", _FILE], "--k", 1000),
    (["certify", "constcoef", "--file", _FILE, "--k", "5"], "--degree-cap", 10),
    (["hyper", "series", "--alpha", "1/3", "--beta", "1/2"], "--N", 2000),
    (["hyper", "system", "--alpha", "1/3", "--beta", "1/2"], "--N", 2000),
    (["hyper", "lemma11", "--alpha", "1/3", "--beta", "1/2"], "--k", 300),
    (_THEOREM6, "--precision", 10000),
]


@pytest.mark.parametrize(
    "argv, flag, cap", _SIZE_CAPS, ids=[f"{a[1]}{flag}" for a, flag, _ in _SIZE_CAPS]
)
def test_size_over_its_cap_exits_2_fast(tmp_path, capsys, argv, flag, cap):
    f = tmp_path / _FILE
    f.write_text(json.dumps(_MATRIX_JSON))
    argv = [str(f) if a == _FILE else a for a in argv]
    args = cli.build_parser().parse_args([*argv, flag, str(cap)])
    assert getattr(args, flag[2:].replace("-", "_")) == cap
    for value in (str(cap + 1), "9" * 5000):
        start = time.perf_counter()
        code = main([*argv, flag, value])
        assert time.perf_counter() - start < 1
        assert code == 2
        err = capsys.readouterr().err
        assert f"argument {flag}: must be an integer in" in err
        assert "Traceback" not in err


# argv fuzz: every subcommand with each of its flags missing, given once or
# given twice.  Values are small integers, "0", negatives, rationals with
# small denominators and, less often, malformed text, so that most argv reach
# the certificates.  Files are well-formed README-sized examples, a file of
# the wrong shape, invalid JSON, or a path that does not exist.
_FUZZ_FILES = {
    "matrix": [_MATRIX_JSON, [["0", "-1"], ["1", "0"]]],
    "system": [_SYSTEM_JSON],
    "params": [{"alpha": ["1/3", "5/12"], "beta": ["1/2", "1/4"]}],
}
_fuzz_int = st.one_of(st.integers(1, 30), st.integers(1, 30), st.integers(-30, 0)).map(str)
_fuzz_rat = st.one_of(
    st.builds("{}/{}".format, st.integers(-30, 30), st.integers(1, 30)),
    st.sampled_from(["0", "-1", "1/2", "1/3", "1/10", "1/100000"]),
)
_fuzz_malformed = st.sampled_from(
    ["", "x", "1/0", "1//2", "1/-3", "nan", "inf", "1e400", "0x10", "--k", " 3 "]
)
_FUZZ_VALUES = {
    "int": st.one_of(_fuzz_int, _fuzz_int, _fuzz_int, _fuzz_malformed),
    "rat": st.one_of(_fuzz_rat, _fuzz_rat, _fuzz_rat, _fuzz_malformed),
    "suite": st.sampled_from(["identities", "divisibility", "all", "none"]),
}
_FUZZ_COMMANDS = {
    ("certify", "scalar"): {"--lambda": "rat", "--k": "int", "--r": "int"},
    ("certify", "matrix"): {"--file": "matrix", "--k": "int"},
    ("certify", "fuchsian"): {"--file": "system", "--k": "int"},
    ("certify", "constcoef"): {"--file": "matrix", "--k": "int", "--degree-cap": "int"},
    ("hyper", "series"): {"--alpha": "rat", "--beta": "rat", "--file": "params", "--N": "int"},
    ("hyper", "system"): {"--alpha": "rat", "--beta": "rat", "--file": "params", "--N": "int"},
    ("hyper", "lemma11"): {"--alpha": "rat", "--beta": "rat", "--file": "params", "--k": "int"},
    ("hyper", "conditions"): {"--alpha": "rat", "--beta": "rat", "--file": "params"},
    ("hyper", "theorem6"): {
        "--alpha": "rat", "--beta": "rat", "--xi": "rat", "--epsilon": "rat", "--precision": "int",
    },
    ("verify",): {"--suite": "suite", "--seed": "int"},
}
#: what the output shows when a checked certificate or suite failed
_REPORTED_FAILURE = re.compile(
    r'divides = False|"divides": false'
    r'|residual zero through z\^-?\d+: False|"residual_zero": false'
    r'|FIRST FAILURE|"first_failure": "'
)


@pytest.fixture(scope="module")
def fuzz_files(tmp_path_factory):
    """For each file kind, the paths of its good files (three times, to
    weight them) and of the bad ones."""
    base = tmp_path_factory.mktemp("argv")

    def put(name, text):
        (base / name).write_text(text)
        return str(base / name)

    bad = [put("shape.json", "[1, 2]"), put("broken.json", "[["), str(base / "missing.json")]
    return {
        kind: [put(f"{kind}{i}.json", json.dumps(v)) for i, v in enumerate(values)] * 3 + bad
        for kind, values in _FUZZ_FILES.items()
    }


@st.composite
def _argv(draw, files):
    command = draw(st.sampled_from(sorted(_FUZZ_COMMANDS)))
    argv = list(command)
    for flag, kind in _FUZZ_COMMANDS[command].items():
        for _ in range(draw(st.sampled_from([0, 1, 1, 1, 1, 2]))):
            if flag == "--file":
                value = draw(st.sampled_from(files[kind]))
            else:
                value = draw(_FUZZ_VALUES[kind])
            argv.append(f"{flag}={value}")
    if draw(st.booleans()):
        argv.append("--json")
    return argv


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_argv_ends_in_documented_exit_code(fuzz_files, data):
    argv = data.draw(_argv(fuzz_files))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err.getvalue()
    if code == 1:
        assert _REPORTED_FAILURE.search(out.getvalue()), out.getvalue()
