import json
import os

import pytest

from gwtwist.cli import main

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
QUINTIC = os.path.join(_ROOT, "geometries", "quintic.json")
LOCAL = os.path.join(_ROOT, "geometries", "local-p1.json")
SECTIONS = os.path.join(_ROOT, "geometries", "p3-o1-o1.json")


def _run(capsys, argv):
    rc = main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_check_quintic(capsys):
    rc, out, err = _run(capsys, ["--geometry", QUINTIC, "--cmd", "check"])
    assert rc == 0
    obj = json.loads(out)
    assert obj == {"theorem1_nonneg": [True], "theorem2_case": None}


def test_invariants_json(capsys):
    rc, out, _ = _run(
        capsys, ["--geometry", QUINTIC, "--cmd", "invariants", "--max-degree", "2"]
    )
    assert rc == 0
    obj = json.loads(out)
    assert obj["D"] == 2
    assert obj["rows"][0] == {"degree": "1", "N": "2875/1", "n": "2875/1"}
    assert obj["rows"][1] == {"degree": "2", "N": "4876875/8", "n": "609250/1"}


def test_invariants_tsv(capsys):
    rc, out, _ = _run(
        capsys,
        [
            "--geometry",
            QUINTIC,
            "--cmd",
            "invariants",
            "--max-degree",
            "1",
            "--format",
            "tsv",
        ],
    )
    assert rc == 0
    assert out.splitlines() == ["degree\tN\tn", "1\t2875/1\t2875/1"]


def test_invariants_degree_zero(capsys):
    rc, out, _ = _run(
        capsys, ["--geometry", QUINTIC, "--cmd", "invariants", "--max-degree", "0"]
    )
    assert rc == 0
    assert json.loads(out) == {"D": 0, "rows": []}


def test_negative_degree_is_usage_error(capsys):
    rc, _, err = _run(
        capsys, ["--geometry", QUINTIC, "--cmd", "invariants", "--max-degree", "-1"]
    )
    assert rc == 2
    assert err.strip()


def test_verify_match(capsys):
    rc, out, _ = _run(
        capsys, ["--geometry", QUINTIC, "--cmd", "verify", "--max-degree", "2"]
    )
    assert rc == 0
    obj = json.loads(out)
    assert obj["status"] == "MATCH"
    assert all(row["match"] for row in obj["rows"])


def test_mirror_map_trivial_case(capsys):
    rc, out, _ = _run(
        capsys,
        [
            "--geometry",
            os.path.join(_ROOT, "geometries", "p4-o1.json"),
            "--cmd",
            "mirror-map",
            "--max-degree",
            "3",
        ],
    )
    assert rc == 0
    assert json.loads(out) == {"f0": [], "f1": [[]]}


def test_mirror_map_refuses_failed_positivity(tmp_path, capsys):
    path = tmp_path / "p1-o3.json"
    path.write_text(
        json.dumps({"ambient": [1], "bundle": [{"l": [3]}], "external_j": None})
    )
    rc, out, err = _run(
        capsys, ["--geometry", str(path), "--cmd", "mirror-map", "--max-degree", "3"]
    )
    assert rc == 1
    assert out == ""
    payload = json.loads(err)
    assert payload["error"] == "Unsupported"
    assert payload["nonneg"] == [False]


def test_oracle_local_values(capsys):
    rc, out, _ = _run(
        capsys, ["--geometry", LOCAL, "--cmd", "oracle", "--max-degree", "2"]
    )
    assert rc == 0
    obj = json.loads(out)
    values = [row["value"] for row in obj["reports"]]
    assert values == ["1/1", "1/8"]


def test_serre_success(tmp_path, capsys):
    path = tmp_path / "p1-o1.json"
    path.write_text(
        json.dumps({"ambient": [1], "bundle": [{"l": [1]}], "external_j": None})
    )
    rc, out, _ = _run(
        capsys, ["--geometry", str(path), "--cmd", "serre", "--max-degree", "3"]
    )
    assert rc == 0
    obj = json.loads(out)
    assert obj["residual_zero"] is True
    assert obj["sign"] == -1
    assert obj["phi"] == [{"beta": [0], "coeff": "-1/1"}]


def test_serre_obstruction_reported(capsys):
    rc, _, err = _run(
        capsys, ["--geometry", SECTIONS, "--cmd", "serre", "--max-degree", "3"]
    )
    assert rc == 1
    payload = json.loads(err)
    assert payload["error"] == "Infeasible"
    assert payload["first_obstructed_degree"] == 1


def test_missing_geometry_file(capsys):
    absent = os.path.join(_ROOT, "geometries", "absent.json")
    rc, _, err = _run(capsys, ["--geometry", absent, "--cmd", "check"])
    assert rc == 2
    assert err.strip()


def test_unknown_command_rejected(capsys):
    with pytest.raises(SystemExit):
        main(["--geometry", QUINTIC, "--cmd", "frobnicate"])


def test_output_is_deterministic(capsys):
    argv = ["--geometry", QUINTIC, "--cmd", "invariants", "--max-degree", "2"]
    _, first, _ = _run(capsys, argv)
    _, second, _ = _run(capsys, argv)
    assert first == second


def test_out_directory_copy(tmp_path, capsys):
    rc, out, _ = _run(
        capsys,
        [
            "--geometry",
            QUINTIC,
            "--cmd",
            "check",
            "--out",
            str(tmp_path),
        ],
    )
    assert rc == 0
    written = (tmp_path / "check.json").read_text()
    assert written == out


def test_serre_refuses_failed_positivity(tmp_path, capsys):
    path = tmp_path / "p1-o3.json"
    path.write_text(
        json.dumps({"ambient": [1], "bundle": [{"l": [3]}], "external_j": None})
    )
    rc, out, err = _run(
        capsys, ["--geometry", str(path), "--cmd", "serre", "--max-degree", "3"]
    )
    assert rc == 1
    assert out == ""
    payload = json.loads(err)
    assert payload["error"] == "Unsupported"
    assert payload["nonneg"] == [False]


def test_oracle_refuses_integrand_above_dimension(tmp_path, capsys):
    path = tmp_path / "p1-o1.json"
    path.write_text(
        json.dumps({"ambient": [1], "bundle": [{"l": [1]}], "external_j": None})
    )
    for cmd in ("oracle", "verify"):
        rc, out, err = _run(
            capsys, ["--geometry", str(path), "--cmd", cmd, "--max-degree", "2"]
        )
        assert rc == 1
        assert out == ""
        payload = json.loads(err)
        assert payload["error"] == "Unsupported"
        assert payload["integrand_degree"] == 3
        assert payload["virtual_dimension"] == 1
