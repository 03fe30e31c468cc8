import contextlib
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from factcancel import catalog
from factcancel.certificate import CancellationCertificate
from factcancel.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


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


@pytest.mark.parametrize(
    "argv",
    [
        ["certify", "scalar", "--lambda", "1/0", "--k", "50"],
        ["certify", "scalar", "--lambda", "1/2", "--k", "10", "--precision", "0"],
        ["certify", "scalar", "--lambda", "1/2", "--k", "10", "--precision=-3"],
        ["hyper", "series", "--alpha", "1/3", "--beta", "1/2", "--N=-2"],
    ],
    ids=["zero-denominator", "precision-zero", "precision-negative", "negative-N"],
)
def test_bad_input_exits_2_without_traceback(capsys, argv):
    code = main(argv)
    err = capsys.readouterr().err
    assert code == 2
    assert err.strip()
    assert "Traceback" not in err


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


# Small JSON values of any shape, and well-formed matrices, Fuchsian systems
# and parameter sets built from them, so that the certificates run too.
# Magnitudes stay small (|int| <= 4, strings of <= 3 characters without an
# exponent) because the spectral root search is O(sqrt) in the matrix
# entries; this test is about shapes.
_json_rat = st.integers(-4, 4) | st.sampled_from(["1/2", "-2/3", "3/4", "1/3"])
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
    code, out = run(
        capsys,
        "hyper", "theorem6",
        "--alpha", "1/3", "--beta", "1/2",
        "--xi", "1/100000", "--epsilon", "1/10",
        "--json",
    )
    assert code == 0
    data = json.loads(out)
    assert data["b0"] == 6
    assert data["H"] == "1"


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


def test_verify_self_test_failure(capsys):
    code, out = run(
        capsys, "verify", "--suite", "identities", "--seed", "42", "--self-test-fail", "--json"
    )
    assert code == 1
    assert json.loads(out)["first_failure"] == "self-test"


def test_json_roundtrip_certificate(capsys):
    # negative rationals need the --flag=value spelling under argparse
    code, out = run(capsys, "certify", "scalar", "--lambda=-7/10", "--k", "30", "--json")
    cert = CancellationCertificate.from_json(out)
    assert CancellationCertificate.from_json(cert.to_json()) == cert
