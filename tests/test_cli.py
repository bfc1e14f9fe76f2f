"""Command-line interface: schemas, report formats, exit codes."""

import json

import pytest

from immersion_forge import cli


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_jsonl(out):
    records = [json.loads(line) for line in out.strip().splitlines()]
    assert records[-1].get("summary") is True
    return records[:-1], records[-1]


def write_doc(tmp_path, doc, name="input.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def flat_slice_doc(**overrides):
    doc = {
        "kind": "structure",
        "n": 2,
        "coords": ["u1", "u2"],
        "domain": [[-0.9, 0.9], [-0.9, 0.9]],
        "base_point": [0.1, -0.2],
        "fields": {
            "g": [["1", "0"], ["0", "1"]],
            "S": [["0", "0"], ["0", "0"]],
            "f": [["1", "0"], ["0", "-1"]],
            "U": ["0", "0"],
            "lambda": "-1",
        },
    }
    doc.update(overrides)
    return doc


def test_check_catalog_admissible(capsys):
    code, out, _ = run(capsys, "check", "catalog:geodesic_slice", "--grid", "3")
    assert code == 0
    records, summary = parse_jsonl(out)
    assert summary["admissible"] is True
    assert summary["k"] == 1
    assert len(records) == 9
    assert all(rec["res_C2_gauss"] < 1e-8 for rec in records)


def test_check_reports_real_worst_points_for_zero_sups(capsys):
    code, out, _ = run(capsys, "check", "catalog:geodesic_slice", "--grid", "3")
    records, summary = parse_jsonl(out)
    first = [records[0]["point_u1"], records[0]["point_u2"]]
    for key, worst in summary["worst_points"].items():
        assert worst is not None
        if summary["residuals"][key] == 0.0:
            assert worst == first


def test_check_structure_document(capsys, tmp_path):
    path = write_doc(tmp_path, flat_slice_doc())
    code, out, _ = run(capsys, "check", path, "--grid", "3")
    assert code == 0
    _, summary = parse_jsonl(out)
    assert summary["admissible"] is True


def test_check_f_identity_exits_1(capsys, tmp_path):
    doc = flat_slice_doc()
    doc["coords"] = ["u1", "u2"]
    doc["domain"] = [[0.4, 2.6], [-1.0, 1.0]]
    doc["base_point"] = [1.0, 0.0]
    doc["fields"]["g"] = [["1", "0"], ["0", "sin(u1)^2"]]
    doc["fields"]["f"] = [["1", "0"], ["0", "1"]]
    path = write_doc(tmp_path, doc)
    code, out, _ = run(capsys, "check", path, "--grid", "3")
    assert code == 1
    _, summary = parse_jsonl(out)
    assert any("excluded case f = +/-Id" in r for r in summary["reasons"])


def test_malformed_expression_exits_2(capsys, tmp_path):
    doc = flat_slice_doc()
    doc["fields"]["lambda"] = "1 + *u1"
    path = write_doc(tmp_path, doc)
    code, _, err = run(capsys, "check", path)
    assert code == 2
    assert "byte offset" in err


@pytest.mark.parametrize("mutate", [
    lambda d: d.pop("fields"),
    lambda d: d.update(kind="mystery"),
    lambda d: d.update(coords=["u1"]),
    lambda d: d.update(base_point=[9.0, 9.0]),
])
def test_schema_errors_exit_2(capsys, tmp_path, mutate):
    doc = flat_slice_doc()
    mutate(doc)
    path = write_doc(tmp_path, doc)
    code, _, err = run(capsys, "check", path)
    assert code == 2
    assert err.startswith("error:")


def test_expression_overflow_exits_2(capsys, tmp_path):
    doc = flat_slice_doc()
    doc["fields"]["lambda"] = "-1 + 1e-300*cosh(1000*u1)"
    path = write_doc(tmp_path, doc)
    code, _, err = run(capsys, "check", path, "--grid", "3")
    assert code == 2
    assert err.startswith("error: overflow")
    assert "at (-0.882, -0.882)" in err


COMMANDS = ["check", "reconstruct", "extract", "roundtrip", "audit"]


@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize("base,message", [
    ("0.1", "has 1 coordinates"),
    ("0.1,0.2,0.3", "has 3 coordinates"),
    ("5,5", "outside the chart box"),
])
def test_bad_base_exits_2(capsys, command, base, message):
    code, _, err = run(capsys, command, "catalog:geodesic_slice",
                       "--grid", "2", "--base", base)
    assert code == 2
    assert err.startswith("error: --base") and message in err


@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize("source,grid,points", [
    ("catalog:geodesic_slice_n3", "100000", 10 ** 15),
    ("catalog:diagonal_geodesic", "100001", 100001),
])
def test_grid_above_point_cap_exits_2(capsys, command, source, grid, points):
    code, out, err = run(capsys, command, source, "--grid", grid)
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: --grid {grid} gives {points} points")
    assert f"the cap is {cli.MAX_GRID_POINTS}" in err


def test_base_inside_chart_accepted(capsys):
    code, out, _ = run(capsys, "roundtrip", "catalog:geodesic_slice",
                       "--grid", "2", "--base=-0.3,0.4")
    assert code == 0
    _, summary = parse_jsonl(out)
    assert summary["congruent"] is True


def test_invalid_json_exits_2(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    code, _, err = run(capsys, "check", str(path))
    assert code == 2


@pytest.mark.parametrize("flags", [("--grid", "1"), ("--step", "0.5"),
                                   ("--tol", "-1")])
def test_config_invariants_exit_2(capsys, flags):
    code, _, err = run(capsys, "check", "catalog:geodesic_slice", *flags)
    assert code == 2


def test_reconstruct_catalog(capsys):
    code, out, _ = run(capsys, "reconstruct", "catalog:diagonal_geodesic",
                       "--grid", "4")
    assert code == 0
    records, summary = parse_jsonl(out)
    assert summary["valid"] is True
    assert all(rec["res_quadric"] < 1e-7 for rec in records)
    assert {"point_u1", "psi_1", "psi_4", "N_1"} <= set(records[0])


def test_reconstruct_wrong_declared_k_exits_1(capsys, tmp_path):
    path = write_doc(tmp_path, flat_slice_doc(k=2))
    code, out, _ = run(capsys, "reconstruct", path, "--grid", "3")
    assert code == 1
    _, summary = parse_jsonl(out)
    assert any("k mismatch" in r for r in summary["reasons"])


def test_extract_catalog(capsys):
    code, out, _ = run(capsys, "extract", "catalog:perturbed_geodesic",
                       "--grid", "4")
    assert code == 0
    records, summary = parse_jsonl(out)
    assert summary["admissible"] is True
    assert all(rec["res_on_model"] < 1e-10 for rec in records)


def test_extract_requires_hypersurface(capsys, tmp_path):
    path = write_doc(tmp_path, flat_slice_doc())
    code, _, err = run(capsys, "extract", path)
    assert code == 2
    assert "hypersurface" in err


def test_extract_off_model_exits_2(capsys, tmp_path):
    doc = {
        "kind": "hypersurface", "n": 1, "k": 1,
        "coords": ["u1"], "domain": [[-0.5, 0.5]], "base_point": [0.0],
        "fields": {"x": ["1 + u1", "0", "sinh(u1)", "cosh(u1)"]},
    }
    path = write_doc(tmp_path, doc)
    code, _, err = run(capsys, "extract", path)
    assert code == 2
    assert "not on model" in err


def test_roundtrip_catalog(capsys):
    code, out, _ = run(capsys, "roundtrip", "catalog:diagonal_geodesic",
                       "--grid", "4")
    assert code == 0
    records, summary = parse_jsonl(out)
    assert summary["congruent"] is True
    assert summary["congruence_sup"] < 1e-6
    assert all(rec["res_congruence"] < 1e-6 for rec in records)


def test_audit_catalog(capsys):
    code, out, _ = run(capsys, "audit", "catalog:geodesic_slice",
                       "--grid", "3")
    assert code == 0
    _, summary = parse_jsonl(out)
    assert summary["surviving_gauss"] == ["f_outside"]
    assert summary["codazzi_indistinguishable"] is True


def test_out_file_overwritten_atomically(capsys, tmp_path):
    out_path = tmp_path / "report.jsonl"
    out_path.write_text("stale content\n", encoding="utf-8")
    code, out, _ = run(capsys, "check", "catalog:geodesic_slice",
                       "--grid", "2", "--out", str(out_path))
    assert code == 0
    text = out_path.read_text(encoding="utf-8")
    assert "stale" not in text
    parse_jsonl(text)
    # summary still echoed on stdout
    assert json.loads(out.strip())["summary"] is True


def test_csv_format_column_order(capsys, tmp_path):
    out_path = tmp_path / "table.csv"
    code, out, _ = run(capsys, "reconstruct", "catalog:diagonal_geodesic",
                       "--grid", "3", "--format", "csv",
                       "--out", str(out_path))
    assert code == 0
    header = out_path.read_text(encoding="utf-8").splitlines()[0].split(",")
    groups = [name.split("_")[0] for name in header]
    assert groups == (["point"] + ["psi"] * 4 + ["N"] * 4 + ["res"] * 5)


def test_runs_are_deterministic(capsys):
    _, out1, _ = run(capsys, "check", "catalog:diagonal_cylinder",
                     "--grid", "3")
    _, out2, _ = run(capsys, "check", "catalog:diagonal_cylinder",
                     "--grid", "3")
    assert out1 == out2


def test_tilted_slice_alias(capsys):
    code, out, _ = run(capsys, "check", "catalog:tilted_slice", "--grid", "2")
    assert code == 0


def test_unknown_catalog_entry_exits_2(capsys):
    code, _, err = run(capsys, "check", "catalog:bogus")
    assert code == 2
    assert "unknown catalog entry" in err
