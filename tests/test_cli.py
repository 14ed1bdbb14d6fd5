import json
import os
import subprocess
import sys

import pytest

import gwtwist
from gwtwist import AmbientSpace, QSeries, j_ambient, qseries_to_obj
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


def test_verify_at_degree_zero_is_usage_error(capsys):
    # it compares nothing there, so it must not print a MATCH
    rc, out, err = _run(
        capsys, ["--geometry", QUINTIC, "--cmd", "verify", "--max-degree", "0"]
    )
    assert rc == 2
    assert out == ""
    assert "at least 1" in err


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
    assert payload["module"] == "invariants"
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
    assert payload["module"] == "invariants"
    assert payload["nonneg"] == [False]


# rk E >= dim X: ctop^2 kills the hyperplane class, so a read of the map
# against ctop could not see the divisor part of the hbar^-1 coefficient;
# the start-1 read does.  The published counts (Libgober-Teitelbaum;
# Hosono-Klemm-Theisen-Yau) give N_1 = n_1 and N_2 = n_2 + n_1/8.
BLIND = [
    ("p7-o2x4.json", 512, 9728),
    ("p6-o3-o2-o2.json", 720, 22428),
]


@pytest.mark.parametrize("name, n1, n2", BLIND)
def test_invariants_answer_where_the_ctop_read_was_blind(capsys, name, n1, n2):
    path = os.path.join(_ROOT, "geometries", name)
    rc, out, err = _run(
        capsys, ["--geometry", path, "--cmd", "invariants", "--max-degree", "4"]
    )
    assert rc == 0
    assert err == ""
    rows = json.loads(out)["rows"]
    assert [row["N"] for row in rows[:2]] == [f"{n1}/1", f"{n2 + n1 // 8}/1"]
    assert [row["n"] for row in rows[:2]] == [f"{n1}/1", f"{n2}/1"]


@pytest.mark.parametrize("name, n1, n2", BLIND)
def test_oracle_still_counts_where_invariants_refuse(capsys, name, n1, n2):
    path = os.path.join(_ROOT, "geometries", name)
    rc, out, _ = _run(
        capsys, ["--geometry", path, "--cmd", "oracle", "--max-degree", "2"]
    )
    assert rc == 0
    values = [report["value"] for report in json.loads(out)["reports"]]
    assert values == [f"{n1}/1", f"{n2 + n1 // 8}/1"]


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
        assert payload["module"] == "localization"
        assert payload["integrand_degree"] == 3
        assert payload["virtual_dimension"] == 1


def test_serre_refuses_short_external_j(tmp_path, capsys):
    ext = qseries_to_obj(j_ambient(AmbientSpace((1,)), 2))
    path = tmp_path / "p1-o1-short-j.json"
    path.write_text(
        json.dumps({"ambient": [1], "bundle": [{"l": [1]}], "external_j": ext})
    )
    rc, out, err = _run(
        capsys, ["--geometry", str(path), "--cmd", "serre", "--max-degree", "4"]
    )
    assert rc == 1
    assert out == ""
    payload = json.loads(err)
    assert payload["error"] == "TruncationMismatch"
    assert payload["have"] == 2
    assert payload["want"] == 4


def _inhomogeneous_j():
    """P1 with O(1) and J_1 = hbar^-2 + p, which mixes total degrees -2 and
    1: no graded X has it."""
    unit, p = [{"exp": [0], "coeff": "1/1"}], [{"exp": [1], "coeff": "1/1"}]
    return {
        "ambient": [1],
        "bundle": [{"l": [1]}],
        "external_j": {
            "D": 1,
            "terms": [
                {"beta": [0], "hbar": [{"pow": 0, "class": unit}]},
                {"beta": [1], "hbar": [{"pow": -2, "class": unit}, {"pow": 0, "class": p}]},
            ],
        },
    }


def _misgraded_quintic_j():
    """The quintic with its own J, but J_2 shifted by hbar^-1 to total
    degree -11: accepted, it would give N_2 = -2020500."""
    J = j_ambient(AmbientSpace((4,)), 2)
    J = QSeries(J.space, 2, J.terms | {(2,): J.term((2,)).times_hbar(-1)})
    return {"ambient": [4], "bundle": [{"l": [5]}], "external_j": qseries_to_obj(J)}


def test_serre_refuses_inhomogeneous_external_j(tmp_path, capsys):
    # refused as bad input when the geometry loads, before any series is built
    path = tmp_path / "p1-o1-inhomogeneous-j.json"
    path.write_text(json.dumps(_inhomogeneous_j()))
    rc, out, err = _run(
        capsys, ["--geometry", str(path), "--cmd", "serre", "--max-degree", "1"]
    )
    assert rc == 2
    assert out == ""
    assert err == "ValueError: external_j.terms[1].hbar mixes total degrees [-2, 1]\n"


def test_error_payload_names_raising_module(tmp_path):
    # run as ``python -m gwtwist.cli``: a refusal in the CLI itself names
    # ``cli``, not ``__main__``
    path = tmp_path / "bicubic.json"
    path.write_text(
        json.dumps({"ambient": [2, 2], "bundle": [{"l": [3, 3]}], "external_j": None})
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(gwtwist.__file__)))
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    done = subprocess.run(
        [sys.executable, "-m", "gwtwist.cli", "--geometry", str(path), "--cmd", "oracle"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert done.returncode == 1
    payload = json.loads(done.stderr)
    assert payload["error"] == "Unsupported"
    assert payload["module"] == "cli"


def test_verify_stops_at_compared_degrees(monkeypatch, capsys):
    argv = ["--geometry", QUINTIC, "--cmd", "verify", "--max-degree"]
    _, short, _ = _run(capsys, argv + ["2"])
    degrees = []
    real = gwtwist.cli.n_numbers

    def spy(g, max_degree):
        degrees.append(max_degree)
        return real(g, max_degree)

    monkeypatch.setattr(gwtwist.cli, "n_numbers", spy)
    rc, out, _ = _run(capsys, argv + ["8"])
    assert rc == 0
    assert degrees == [2]
    obj = json.loads(out)
    assert obj["D"] == 8
    assert obj["rows"] == json.loads(short)["rows"]


@pytest.mark.parametrize(
    "geometry, field",
    [
        pytest.param({"ambient": [4], "bundle": [{"l": [5.9]}]}, "bundle[0].l[0]", id="float-l"),
        pytest.param({"ambient": [4.2], "bundle": [{"l": [True]}]}, "ambient[0]", id="float-ambient"),
        pytest.param({"ambient": [4], "bundle": [{"l": [True]}]}, "bundle[0].l[0]", id="bool-l"),
        pytest.param({"ambient": [4], "bundle": [{"l": 5}]}, "bundle[0].l", id="int-l"),
        pytest.param({"ambient": [4], "bundle": [{"l": ["5"]}]}, "bundle[0].l[0]", id="string-l"),
        pytest.param({"ambient": [4], "bundle": [{"l": [5], "m": [1]}]}, "bundle[0]", id="extra-entry-key"),
        pytest.param({"ambient": [4], "bundle": [5]}, "bundle[0]", id="entry-not-object"),
        pytest.param({"ambient": "4", "bundle": []}, "ambient", id="string-ambient"),
        pytest.param({"ambient": [4]}, "bundle", id="missing-bundle"),
        pytest.param({"ambient": [4], "bundle": [], "extra": 1}, "extra", id="unknown-key"),
        pytest.param({"ambient": [4], "bundle": [], "external_j": [1]}, "external_j", id="external-j-list"),
        pytest.param([4], "geometry", id="not-object"),
    ],
)
def test_malformed_geometry_refused_before_arithmetic(tmp_path, capsys, geometry, field):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(geometry))
    rc, out, err = _run(capsys, ["--geometry", str(path), "--cmd", "invariants"])
    assert rc == 2
    assert out == ""
    assert err.startswith("ValueError: ")
    assert field in err


def test_engine_fault_is_not_an_input_problem(tmp_path, monkeypatch, capsys):
    def broken(g):
        raise KeyError("lost basis monomial")

    monkeypatch.setattr(gwtwist.cli, "check_conditions", broken)
    rc, out, err = _run(capsys, ["--geometry", QUINTIC, "--cmd", "check"])
    assert rc == 3
    assert out == ""
    assert err == "KeyError: 'lost basis monomial'\n"
    # a malformed file is still the input's fault
    path = tmp_path / "bad.json"
    path.write_text('{"ambient": [4], "bundle": [{"l": 5}]}')
    rc, _, err = _run(capsys, ["--geometry", str(path), "--cmd", "check"])
    assert rc == 2
    assert err.startswith("ValueError: ")


def _with_external_j(unit_term):
    """P1 with O(1) and an external J whose beta = 0 term is ``unit_term``."""
    return {
        "ambient": [1],
        "bundle": [{"l": [1]}],
        "external_j": {"D": 1, "terms": [{"beta": [0], "hbar": unit_term}]},
    }


@pytest.mark.parametrize(
    "geometry, field",
    [
        pytest.param(
            {"ambient": [1], "bundle": [{"l": [1]}], "external_j": {"D": 2}},
            "missing external_j field 'terms'",
            id="no-terms",
        ),
        pytest.param(
            _with_external_j([{"pow": 0, "class": ["1/1", True]}]),
            "external_j.terms[0].hbar[0].class[0]",
            id="class-not-objects",
        ),
        pytest.param(
            {
                "ambient": [1, 1],
                "bundle": [{"l": [1, 1]}],
                "external_j": {"D": 1, "terms": [{"beta": [0], "hbar": []}]},
            },
            "external_j.terms[0].beta",
            id="short-beta",
        ),
        pytest.param(
            _with_external_j([{"pow": 0.5, "class": [{"exp": [0], "coeff": "1/1"}]}]),
            "external_j.terms[0].hbar[0].pow",
            id="non-integer-pow",
        ),
        pytest.param(
            _with_external_j([{"pow": 0, "class": [{"exp": [0], "coeff": 1}]}]),
            "external_j.terms[0].hbar[0].class[0].coeff",
            id="number-coeff",
        ),
        pytest.param(
            _with_external_j([{"pow": 0, "class": [{"exp": [2], "coeff": "1/1"}]}]),
            "external_j.terms[0].hbar[0].class[0].exp",
            id="exp-out-of-range",
        ),
        pytest.param(_inhomogeneous_j(), "external_j.terms[1].hbar mixes", id="inhomogeneous"),
        pytest.param(
            _misgraded_quintic_j(),
            "external J at beta = [2] has total degree -11, not -10",
            id="misgraded",
        ),
    ],
)
def test_malformed_external_j_names_the_field(tmp_path, capsys, geometry, field):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(geometry))
    rc, out, err = _run(capsys, ["--geometry", str(path), "--cmd", "check"])
    assert rc == 2
    assert out == ""
    assert err.startswith("ValueError: ")
    assert field in err


def test_valid_external_j_still_loads(tmp_path, capsys):
    good = _with_external_j([{"pow": 0, "class": [{"exp": [0], "coeff": "1/1"}]}])
    path = tmp_path / "good.json"
    path.write_text(json.dumps(good))
    rc, out, _ = _run(capsys, ["--geometry", str(path), "--cmd", "check"])
    assert rc == 0
    assert json.loads(out) == {"theorem1_nonneg": [True], "theorem2_case": None}
