"""Command-line interface: schemas, report formats, exit codes."""

import argparse
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import oracles
import pytest

from immersion_forge import bundle as bd
from immersion_forge import cli
from immersion_forge import geometry as geo
from immersion_forge import structure as st


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


def test_check_fails_on_nan_residuals(tmp_path, capsys):
    # g^-1 overflows at g11 = 1e-320: the residuals built from it are NaN
    doc = flat_slice_doc()
    doc["fields"]["g"] = [["1e-320", "0"], ["0", "1"]]
    code, out, _ = run(capsys, "check", write_doc(tmp_path, doc),
                       "--grid", "2")
    assert code == 1
    _, summary = parse_jsonl(out)
    assert summary["admissible"] is False
    assert summary["reasons"] == [f"{key} residual is NaN"
                                  for key in st.RESIDUAL_KEYS[:5]]


@pytest.mark.parametrize("big,reason", [
    ("1e308", "k = inf is not finite at (-0.882, -0.882)"),
    ("1e200", "k = 1e+200 out of range 1..2 at (-0.882, -0.882)"),
])
def test_check_fails_on_fields_too_large_for_floats(tmp_path, capsys, big,
                                                    reason):
    # tr f overflows to inf at f = 1e308 Id; at 1e200 Id, f^2 does
    doc = flat_slice_doc()
    doc["fields"]["f"] = [[big, "0"], ["0", big]]
    code, out, err = run(capsys, "check", write_doc(tmp_path, doc),
                         "--grid", "2")
    assert (code, err) == (1, "")
    _, summary = parse_jsonl(out)
    assert summary["admissible"] is False
    assert summary["reasons"][0] == reason
    assert "C1_algebraic residual is NaN" in summary["reasons"]


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


def test_roundtrip_of_f_identity_exits_1(capsys, tmp_path):
    """A curve in the H^1 factor of S^1 x H^1 has f = -Id: roundtrip
    refuses it at admission."""
    doc = {"kind": "hypersurface", "n": 1, "k": 1, "coords": ["t"],
           "domain": [[-0.5, 0.5]], "base_point": [0.0],
           "fields": {"x": ["1", "0", "sinh(t)", "cosh(t)"]}}
    code, out, err = run(capsys, "roundtrip", write_doc(tmp_path, doc))
    assert (code, err) == (1, "")
    assert json.loads(out) == {"summary": True, "admissible": False,
                               "reasons": ["excluded case f = +/-Id"]}


@pytest.mark.parametrize("g11", ["1e-20", "1e-300"])
def test_reconstruct_does_not_depend_on_the_scale_of_g(capsys, tmp_path, g11):
    """The frame at the base keeps a direction whose G-norm is tiny: each
    candidate's cutoff scales with |G_ii| of the basis vector it projects."""
    doc = flat_slice_doc()
    doc["fields"]["g"] = [[g11, "0"], ["0", "1"]]
    code, out, err = run(capsys, "reconstruct", write_doc(tmp_path, doc),
                         "--grid", "3", "--step", "0.05")
    assert (code, err) == (0, "")
    _, summary = parse_jsonl(out)
    assert summary["valid"] is True


@pytest.mark.parametrize("step,failing", [
    ("0.05", ["quadric", "isometry"]),
    ("0.001", ["quadric", "isometry", "normal", "shape_operator",
               "product_relations"]),
])
def test_reconstruct_that_overflows_fails_without_a_warning(capsys, tmp_path,
                                                            step, failing):
    """At g11 = 1e8 these steps are too coarse and the transport overflows:
    the inf or NaN residuals fail validation, and numpy warns nothing (a
    RuntimeWarning is an error in this suite)."""
    doc = flat_slice_doc()
    doc["fields"]["g"] = [["1e8", "0"], ["0", "1"]]
    code, out, err = run(capsys, "reconstruct", write_doc(tmp_path, doc),
                         "--grid", "3", "--step", step)
    assert (code, err) == (1, "")
    _, summary = parse_jsonl(out)
    assert summary["failing"] == failing


def test_roundtrip_that_overflows_is_not_congruent(capsys, tmp_path):
    """A circle wound 10 000 times per unit overflows the transport at step
    1e-3: the NaN images are on no hyperboloid sheet, and numpy warns
    nothing."""
    doc = slice_hypersurface_doc()
    doc["fields"]["x"][:2] = ["cos(10000*u1)", "sin(10000*u1)"]
    code, out, err = run(capsys, "roundtrip", write_doc(tmp_path, doc),
                         "--grid", "3", "--step", "0.001")
    assert (code, err) == (1, "")
    _, summary = parse_jsonl(out)
    assert summary["congruence_sup"] != summary["congruence_sup"]     # NaN
    assert summary["preserves_sheet"] is False
    assert summary["congruent"] is False


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


def slice_hypersurface_doc():
    return {
        "kind": "hypersurface",
        "n": 2,
        "k": 1,
        "coords": ["u1", "u2"],
        "domain": [[-0.9, 0.9], [-0.9, 0.9]],
        "base_point": [0.1, -0.2],
        "fields": {"x": ["cos(u1)", "sin(u1)", "0", "sinh(u2)", "cosh(u2)"]},
    }


def _with(**changes):
    return lambda doc: doc.update(changes)


def _with_field(**fields):
    return lambda doc: doc["fields"].update(fields)


@pytest.mark.parametrize("command", ["check", "reconstruct"])
@pytest.mark.parametrize("make,mutate,named", [
    (slice_hypersurface_doc, _with(k="x"), "'k'"),
    (slice_hypersurface_doc, _with(k=None), "'k'"),
    (slice_hypersurface_doc, _with(k=1.5), "'k'"),
    (slice_hypersurface_doc, _with(k=True), "'k'"),
    (slice_hypersurface_doc, _with_field(x="cos(u1)"), "at x"),
    (slice_hypersurface_doc, _with(coords=["u1", "u1"]), "coordinate names"),
    (flat_slice_doc, _with(k="x"), "'k'"),
    (flat_slice_doc, _with(k=1.5), "'k'"),
    (flat_slice_doc, _with(k=0), "'k'"),
    (flat_slice_doc, _with(k=True), "'k'"),
    (flat_slice_doc, _with_field(**{"lambda": ["-1"]}), "at lambda"),
    (flat_slice_doc, _with(coords=["u1", "u1"]), "coordinate names"),
    (flat_slice_doc, _with(n=True), "'n'"),
    (slice_hypersurface_doc, _with(fields={}),
     "hypersurface input needs fields.x"),
    (slice_hypersurface_doc, lambda doc: doc.pop("k"),
     "hypersurface input needs k"),
    (slice_hypersurface_doc, _with_field(x=["1", "0", "0", "1"]),
     "parametrization must have n + 3 components"),
    (flat_slice_doc, lambda doc: doc["fields"].pop("lambda"),
     "structure input needs fields.lambda"),
    (flat_slice_doc, _with_field(U=["0", "0", "0"]),
     "field U must have shape (2,)"),
], ids=["hyp-k-str", "hyp-k-null", "hyp-k-float", "hyp-k-bool",
        "hyp-x-str", "hyp-coords-repeat", "st-k-str", "st-k-float",
        "st-k-0", "st-k-bool", "st-lambda-list", "st-coords-repeat",
        "st-n-bool", "hyp-x-missing", "hyp-k-missing", "hyp-x-short",
        "st-lambda-missing", "st-U-long"])
def test_malformed_fields_exit_2(capsys, tmp_path, command, make, mutate,
                                 named):
    doc = make()
    mutate(doc)
    code, out, err = run(capsys, command, write_doc(tmp_path, doc),
                         "--grid", "2")
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and named in err
    assert "Traceback" not in err


def test_expression_overflow_exits_2(capsys, tmp_path):
    doc = flat_slice_doc()
    doc["fields"]["lambda"] = "-1 + 1e-300*cosh(1000*u1)"
    path = write_doc(tmp_path, doc)
    code, _, err = run(capsys, "check", path, "--grid", "3")
    assert code == 2
    assert err.startswith("error: overflow")
    assert "at (-0.882, -0.882)" in err


@pytest.mark.parametrize("lam,offset", [
    ("-1 + sin(1e999)*u1", 9),      # non-finite, where the literal is read
    ("-1 + exp(1000)*u1", 5),       # overflow
    ("-1 + log(0)*u1", 5),          # out of the domain
    ("-1 + 2^5000*u1", 6),
    # division by a constant zero, at its operator
    ("-1 + u1/0", 7),
    ("-1 + (1/0)*u1", 7),
    ("-1 + u1^(1/0)", 10),
    # a constant that is not finite, at the token that makes it
    ("-1 + 1e999*u1", 5),
    ("-1 + 1e200*1e200*u1", 10),
    ("-1+(1e308+1e308)*u1", 9),
    ("-1 + (1e999 - 1e999)*u1", 6),
    ("1e999", 0),
    # nesting too deep to parse
    pytest.param("(" * 5000 + "u1" + ")" * 5000, None,
                 id="5000-parentheses"),
    pytest.param("-" * 5000 + "u1", None, id="5000-unary-minuses"),
])
def test_constant_fold_failure_names_field_and_offset(capsys, tmp_path, lam,
                                                      offset):
    doc = flat_slice_doc()
    doc["fields"]["lambda"] = lam
    code, out, err = run(capsys, "check", write_doc(tmp_path, doc),
                         "--grid", "3")
    assert code == 2
    assert out == ""
    assert err.startswith("error: bad expression in lambda: ")
    if offset is None:
        assert "expression nested too deeply (at byte offset " in err
    else:
        assert err.endswith(f"(at byte offset {offset})\n")
    assert "Traceback" not in err


def test_json_nested_too_deeply_exits_2(capsys, tmp_path):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000, encoding="utf-8")
    code, out, err = run(capsys, "check", str(path))
    assert code == 2
    assert out == ""
    assert err == f"error: invalid JSON in {path}: nested too deeply\n"


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
    assert f"the cap is {geo.MAX_GRID_POINTS}" in err


def test_unparseable_base_exits_2(capsys):
    with pytest.raises(SystemExit) as exit_:
        cli.main(["reconstruct", "catalog:geodesic_slice", "--base=a,b"])
    captured = capsys.readouterr()
    assert (exit_.value.code, captured.out) == (2, "")
    assert captured.err.endswith(
        "error: argument --base: bad point 'a,b'\n")
    assert "Traceback" not in captured.err


def test_base_inside_chart_accepted(capsys):
    code, out, _ = run(capsys, "roundtrip", "catalog:geodesic_slice",
                       "--grid", "2", "--base=-0.3,0.4")
    assert code == 0
    _, summary = parse_jsonl(out)
    assert summary["congruent"] is True


@pytest.mark.parametrize("n,density", [
    *((n, 8) for n in range(1, 6)), (6, 6), (7, 5), (8, 4), (9, 3), (10, 3),
    *((n, 2) for n in range(11, 18))])
def test_default_grid_follows_the_dimension(n, density):
    assert geo.default_grid(n) == density
    assert density ** n <= geo.MAX_GRID_POINTS or density == 2
    assert density == 8 or (density + 1) ** n > geo.MAX_GRID_POINTS


@pytest.mark.parametrize("n", [6, 7, 8])
def test_default_grid_is_taken_from_the_input(tmp_path, n):
    """Without --grid the loaded input's dimension sets the density; the
    input is never checked on-model or extracted here."""
    path = write_doc(tmp_path, oracles.hypersurface_document(
        oracles.slice_hypersurface(n)))
    config = argparse.Namespace(command="check", input=path, grid=None,
                                base=None, step=bd.DEFAULT_STEP)
    cli.load_checked_input(config)
    assert config.grid == geo.default_grid(n)


def test_default_grid_above_the_point_cap_exits_2(capsys, tmp_path):
    path = write_doc(tmp_path, oracles.hypersurface_document(
        oracles.slice_hypersurface(17)))
    code, out, err = run(capsys, "check", path)
    assert code == 2
    assert out == ""
    assert err == ("error: the default grid 2 gives 131072 points on this "
                   "17-dimensional chart; the cap is 100000\n")


@pytest.mark.parametrize("command", ["check", "extract", "roundtrip",
                                     "reconstruct", "audit"])
@pytest.mark.parametrize("make", [oracles.mixed_s2h2, oracles.mixed_s2h3])
def test_mixed_k2_inputs_pass_every_command(capsys, tmp_path, make, command):
    path = write_doc(tmp_path, oracles.hypersurface_document(make()))
    code, out, _ = run(capsys, command, path, "--grid", "2",
                       "--step", "0.008")
    assert code == 0
    _, summary = parse_jsonl(out)
    if command in ("check", "extract"):
        assert summary["admissible"] is True and summary["k"] == 2
    elif command == "roundtrip":
        assert summary["congruent"] is True and summary["k"] == 2
        assert summary["congruence_sup"] < 1e-9
    elif command == "reconstruct":
        assert summary["valid"] is True


def test_input_that_is_not_utf8_exits_2(capsys, tmp_path):
    path = tmp_path / "utf16.json"
    path.write_bytes(b"\xff\xfe" + json.dumps(flat_slice_doc()).encode())
    code, out, err = run(capsys, "check", str(path), "--grid", "2")
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {path} is not UTF-8 text: ")


@pytest.mark.parametrize("make,message", [
    (str, "error: cannot read {}: "),
    (lambda tmp_path: str(tmp_path / "missing.json"),
     "error: cannot read {}: "),
    (lambda tmp_path: write_doc(tmp_path, [1, 2]),
     "error: input document must be a JSON object\n"),
], ids=["directory", "missing", "json-list"])
def test_unreadable_or_non_object_input_exits_2(capsys, tmp_path, make,
                                                 message):
    path = make(tmp_path)
    code, out, err = run(capsys, "check", path, "--grid", "2")
    assert (code, out) == (2, "")
    assert err.startswith(message.format(path))
    assert "Traceback" not in err


def test_invalid_json_exits_2(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    code, _, err = run(capsys, "check", str(path))
    assert code == 2


# flag -> the error of a value out of its range
CONFIG_ERRORS = {"--grid": "grid density must be >= 2",
                 "--step": "step must lie in [1e-06, 0.1]",
                 "--tol": "tolerance must be positive"}


@pytest.mark.parametrize("flags", [("--grid", "1"), ("--step", "0.5"),
                                   ("--tol", "-1"), ("--grid", "0"),
                                   ("--grid", "-3"), ("--grid", "-400")])
def test_config_invariants_exit_2(capsys, flags):
    # the configuration is checked before the input is read
    code, out, err = run(capsys, "check", "no-such-input.json", *flags)
    assert (code, out, err) == (2, "", f"error: {CONFIG_ERRORS[flags[0]]}\n")


@pytest.mark.parametrize("command,source", [
    ("check", None), ("roundtrip", "catalog:geodesic_slice"),
    ("audit", "catalog:geodesic_slice")])
@pytest.mark.parametrize("tol,message", [
    ("inf", "tolerance must be finite"),
    ("nan", "tolerance must be positive"),
    ("0", "tolerance must be positive"),
])
def test_tolerance_must_be_positive_and_finite(capsys, tmp_path, command,
                                               source, tol, message):
    if source is None:                  # the benchmark's inadmissible control
        doc = flat_slice_doc()
        doc["fields"]["lambda"] = "-1 + 0.015*u1"
        source = write_doc(tmp_path, doc)
    code, out, err = run(capsys, command, source, "--grid", "2",
                         "--tol", tol)
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("command", ["reconstruct", "roundtrip"])
@pytest.mark.parametrize("step", ["1e-300", "1e-7"])
def test_step_below_floor_exits_2_before_transport(capsys, monkeypatch,
                                                   command, step):
    def no_transport(*args, **kwargs):
        raise AssertionError("transport started")

    monkeypatch.setattr(bd.ConnectionField, "block_steps", no_transport)
    code, out, err = run(capsys, command, "catalog:geodesic_slice",
                         "--grid", "2", "--step", step)
    assert code == 2
    assert out == ""
    assert err == "error: step must lie in [1e-06, 0.1]\n"


def test_step_floor_and_ceiling_are_accepted():
    for step in ("1e-6", "0.1"):
        cli.validate_config(cli.build_parser().parse_args(
            ["reconstruct", "catalog:geodesic_slice", "--step", step]))


@pytest.mark.parametrize("command", ["check", "reconstruct"])
@pytest.mark.parametrize("domain", [
    [[-0.9, float("inf")], [-0.9, 0.9]],        # json reads Infinity
    [[-1e308, 1e308], [-0.9, 0.9]],             # the width overflows
])
def test_non_finite_chart_box_exits_2(capsys, tmp_path, command, domain):
    path = write_doc(tmp_path, flat_slice_doc(domain=domain))
    code, out, err = run(capsys, command, path, "--grid", "2")
    assert code == 2
    assert out == ""
    assert err == ("error: bad chart data: box bounds, box widths and base "
                   "point must be finite\n")


def test_box_too_wide_for_step_exits_2_before_transport(capsys, monkeypatch,
                                                        tmp_path):
    def no_transport(*args, **kwargs):
        raise AssertionError("transport started")

    monkeypatch.setattr(bd.ConnectionField, "block_steps", no_transport)
    path = write_doc(tmp_path, flat_slice_doc(
        domain=[[-0.9, 1e308], [-1e308, 0.9]]))
    code, out, err = run(capsys, "reconstruct", path, "--grid", "2",
                         "--step", "0.05")
    assert code == 2
    assert out == ""
    assert err.startswith("error: step 0.05 takes inf RK4 steps")
    assert err.endswith(f"the cap is {bd.MAX_SIDE_STEPS}\n")


@pytest.mark.parametrize("command", COMMANDS)
def test_side_steps_cap_binds_only_the_commands_that_transport(
        capsys, monkeypatch, tmp_path, command):
    def no_transport(*args, **kwargs):
        raise AssertionError("transport started")

    monkeypatch.setattr(bd.ConnectionField, "block_steps", no_transport)
    doc = slice_hypersurface_doc()
    doc["domain"] = [[-10001.0, 10001.0], [-0.9, 0.9]]   # 2e7 steps of 1e-3
    code, out, err = run(capsys, command, write_doc(tmp_path, doc),
                         "--grid", "2")
    if command in ("reconstruct", "roundtrip"):
        assert code == 2
        assert out == ""
        assert err == ("error: step 0.001 takes 2e+07 RK4 steps across the "
                       "widest side of the chart box; the cap is 10000000\n")
    else:
        assert code in (0, 1), err
        assert err == ""


@pytest.mark.parametrize("high,accepted", [(9.1, True), (9.2, False)])
def test_widest_side_steps_cap(tmp_path, high, accepted):
    # a side of 10.0 takes 1e7 steps of 1e-6, the cap; 10.1 takes more
    path = write_doc(tmp_path, flat_slice_doc(domain=[[-0.9, 0.9],
                                                      [-0.9, high]]))
    config = cli.build_parser().parse_args(
        ["reconstruct", path, "--step", "1e-6"])
    if accepted:
        cli.load_checked_input(config)
    else:
        with pytest.raises(cli.InputError, match="the cap is 10000000"):
            cli.load_checked_input(config)


IMPORT_PROBE = """
import os, sys
import immersion_forge as mf
print("numpy" in sys.modules, os.environ.get("OPENBLAS_NUM_THREADS"))
import immersion_forge.cli
from immersion_forge import admit
print(mf.admit is admit, os.environ.get("OPENBLAS_NUM_THREADS"))
"""


@pytest.mark.parametrize("preset", [None, "3"])
def test_only_the_cli_import_sets_one_blas_thread(preset):
    env = {key: val for key, val in os.environ.items()
           if key != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = str(Path(cli.__file__).parents[1])
    if preset is not None:
        env["OPENBLAS_NUM_THREADS"] = preset
    out = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env,
                         capture_output=True, text=True, check=True,
                         timeout=60).stdout
    # the package import loads no numpy and leaves the environment alone;
    # the cli import sets one thread unless the variable was set already
    assert out.splitlines() == [f"False {preset}", f"True {preset or 1}"]


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


@pytest.mark.parametrize("command", COMMANDS)
def test_structure_input_is_refused_by_the_hypersurface_commands(
        capsys, tmp_path, command):
    path = write_doc(tmp_path, flat_slice_doc())
    code, out, err = run(capsys, command, path, "--grid", "2",
                         "--step", "0.01")
    if command in ("extract", "roundtrip", "audit"):
        assert (code, out) == (2, "")
        assert err == "error: this command needs a hypersurface input\n"
    else:
        assert (code, err) == (0, "")


@pytest.mark.parametrize("command,message", [
    ("roundtrip", "error: step 0.001 takes 2e+07 RK4 steps"),
    ("reconstruct", "error: step 0.001 takes 2e+07 RK4 steps"),
    ("extract", "error: this command needs a hypersurface input"),
    ("audit", "error: this command needs a hypersurface input")])
def test_step_cap_is_reported_before_the_input_kind(
        capsys, tmp_path, command, message):
    doc = flat_slice_doc(domain=[[-10001.0, 10001.0], [-0.9, 0.9]])
    code, out, err = run(capsys, command, write_doc(tmp_path, doc),
                         "--grid", "2")
    assert (code, out) == (2, "")
    assert err.startswith(message)


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


@pytest.mark.parametrize("command", ["check", "audit"])
def test_position_too_large_to_square_is_off_model(capsys, tmp_path, command):
    # |x|^2 is inf - inf = NaN at u1 = -0.98, where cosh(400 u1) ~ 1e170
    doc = {
        "kind": "hypersurface", "n": 1, "k": 1,
        "coords": ["u1"], "domain": [[-1.0, 1.0]], "base_point": [0.1],
        "fields": {"x": ["cos(u1)", "sin(u1)", "sinh(400*u1)",
                         "cosh(400*u1)"]},
    }
    code, out, err = run(capsys, command, write_doc(tmp_path, doc),
                         "--grid", "3")
    assert (code, out) == (2, "")
    assert err == "error: not on model at (-0.98,): residual nan\n"


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


@pytest.mark.parametrize("out", ["missing/r.jsonl", "."])
def test_unwritable_out_exits_2_before_work(capsys, tmp_path, out):
    # a file in a missing directory, and a directory
    out = tmp_path / out
    code, stdout, err = run(capsys, "check", "catalog:geodesic_slice",
                            "--grid", "3", "--out", str(out))
    assert code == 2
    assert err.startswith("error: --out") and "Traceback" not in err
    assert stdout == ""
    assert list(tmp_path.iterdir()) == []


def test_report_write_failure_exits_2(capsys, tmp_path, monkeypatch):
    def refuse(src, dst):
        raise IsADirectoryError(21, "Is a directory", dst)

    monkeypatch.setattr(cli.os, "replace", refuse)
    out = tmp_path / "r.jsonl"
    code, _, err = run(capsys, "check", "catalog:geodesic_slice",
                       "--grid", "2", "--out", str(out))
    assert code == 2
    assert err.startswith("error: cannot write report")
    assert "Traceback" not in err
    # the temporary report file is removed again
    assert list(tmp_path.iterdir()) == []


def test_csv_format_column_order(capsys, tmp_path):
    out_path = tmp_path / "table.csv"
    code, out, _ = run(capsys, "reconstruct", "catalog:diagonal_geodesic",
                       "--grid", "3", "--format", "csv",
                       "--out", str(out_path))
    assert code == 0
    header = out_path.read_text(encoding="utf-8").splitlines()[0].split(",")
    groups = [name.split("_")[0] for name in header]
    assert groups == (["point"] + ["psi"] * 4 + ["N"] * 4 + ["res"] * 5)
    # the residual columns by name, in order, for every sample report
    sample_columns = (
        ["point_u1", "point_u2"] + [f"psi_{a}" for a in range(1, 6)]
        + [f"N_{a}" for a in range(1, 6)])
    for command, residuals in (
            ("reconstruct", ["quadric", "isometry", "normal",
                             "product_relations", "shape_operator"]),
            ("extract", ["on_model"]),
            ("roundtrip", ["congruence"])):
        code, out, _ = run(capsys, command, "catalog:diagonal_cylinder",
                           "--grid", "2", "--format", "csv",
                           "--out", str(out_path))
        assert code == 0, command
        header = out_path.read_text(encoding="utf-8").splitlines()[0]
        assert header.split(",") == sample_columns + [
            f"res_{key}" for key in residuals], command


@pytest.mark.parametrize("g,skipped_first", [("u1", True), ("-u1", False)])
def test_csv_check_header_covers_skipped_and_usable_points(
        capsys, tmp_path, g, skipped_first):
    # g = +-u1 is singular on one half of [-1, 1]: the CSV table keeps the
    # residual columns of the usable points and the skipped column
    doc = {"kind": "structure", "n": 1, "coords": ["u1"],
           "domain": [[-1.0, 1.0]],
           "base_point": [0.5 if skipped_first else -0.5],
           "fields": {"g": [[g]], "S": [["0"]], "f": [["1"]], "U": ["0"],
                      "lambda": "-1"}}
    path = write_doc(tmp_path, doc)
    code, out, _ = run(capsys, "check", path, "--grid", "4",
                       "--format", "csv")
    assert code == 1
    table = out.splitlines()[:5]
    residuals = [f"res_{key}" for key in st.RESIDUAL_KEYS[:-1]]
    header = (["point_u1"] + ["res_skipped"] + residuals if skipped_first
              else ["point_u1"] + residuals + ["res_skipped"])
    assert table[0].split(",") == header
    skipped = [row for row in table[1:]
               if row.split(",")[header.index("res_skipped")] == "1.0"]
    usable = [row.split(",") for row in table[1:] if row not in skipped]
    assert len(skipped) == len(usable) == 2
    assert all(row[header.index(key)] == "0.0"
               for row in usable for key in residuals)


def test_roundtrip_tolerance_sets_the_congruence_verdict(capsys):
    code, out, _ = run(capsys, "roundtrip", "catalog:geodesic_slice",
                       "--grid", "2", "--tol", "1e-20")
    assert code == 1
    _, summary = parse_jsonl(out)
    assert summary["congruent"] is False
    assert summary["tolerance"] == 1e-20
    assert list(summary) == ["summary", "k", "congruence_sup",
                             "block_residual", "orthogonality_residual",
                             "preserves_sheet", "tolerance", "congruent"]


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


def _check_report_text(source, grid):
    """The check report as one joined string, records built eagerly."""
    obj = cli.load_input(source)
    points = obj.chart.grid(grid)
    spec = cli.as_structure(obj, grid=points)
    report = st.admit(spec, grid=points)
    lines = []
    for j, point in enumerate(points):
        rec = {f"point_{n}": float(v) for n, v in zip(spec.chart.coords, point)}
        rec.update({"res_skipped": 1.0} if not report.usable[j] else
                   {f"res_{key}": float(val[j])
                    for key, val in report.values.items()})
        lines.append(json.dumps(rec))
    lines.append(json.dumps({"summary": True, **report.to_dict()}))
    return "\n".join(lines) + "\n"


def test_streamed_check_report_is_byte_identical(capsys, tmp_path):
    expected = _check_report_text("catalog:diagonal_cylinder", 8)
    code, out, _ = run(capsys, "check", "catalog:diagonal_cylinder")
    assert code == 0
    assert out == expected
    out_path = tmp_path / "report.jsonl"
    code, out, _ = run(capsys, "check", "catalog:diagonal_cylinder",
                       "--out", str(out_path))
    assert out_path.read_bytes() == expected.encode("utf-8")
    assert out == expected.splitlines(keepends=True)[-1]


def test_csv_report_writes_rows_before_the_last_record(monkeypatch):
    out = io.StringIO()
    monkeypatch.setattr(sys, "stdout", out)
    before_last = []

    def records():
        yield {"point_u1": 0.5, "res_C1_algebraic": 0.0}
        before_last.append(out.getvalue())
        yield {"point_u1": 0.75, "res_skipped": 1.0}

    config = argparse.Namespace(format="csv", out=None)
    keys = ["point_u1", "res_C1_algebraic", "res_skipped"]
    cli.emit(config, {"k": 1}, (keys, records()))
    assert before_last == ["point_u1,res_C1_algebraic,res_skipped\n"
                           "0.5,0.0,\n"]
    assert out.getvalue() == (before_last[0] + "0.75,,1.0\n"
                              '{"summary": true, "k": 1}\n')
