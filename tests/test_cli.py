import json

import pytest

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
