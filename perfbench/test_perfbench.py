"""Self-tests of the benchmark's own code: generator, tracer, smoke run."""

import json
import random
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import gen  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402

from immersion_forge import cli, structure  # noqa: E402


def test_generator_is_deterministic_per_seed():
    assert gen.generate(7) == gen.generate(7)
    assert gen.generate(7) != gen.generate(8)
    assert list(gen.generate(7)) == [*gen.FAMILIES, "control_lambda"]


@pytest.mark.parametrize("family", list(gen.FAMILIES))
def test_generated_documents_are_on_model(family):
    doc = gen.generate(3)[family]
    h = cli.load_document(doc)
    assert h.check_on_model(grid_density=4) < 1e-10
    spec = cli.as_structure(h, 2)
    assert structure.admit(spec, grid_density=2).admissible


def test_control_document_is_inadmissible():
    spec = cli.load_document(gen.generate(3)["control_lambda"])
    report = structure.admit(spec, grid_density=3)
    assert not report.admissible


def test_block_isometry_preserves_the_model_form():
    import numpy as np

    for n, k in ((1, 1), (2, 1), (2, 2), (3, 1)):
        M = np.array(gen.block_isometry(n, k, random.Random(n * 10 + k)))
        J = np.diag([1.0] * (n + 2) + [-1.0])
        assert np.abs(M.T @ J @ M - J).max() < 1e-12
        assert np.abs(M[:k + 1, k + 1:]).max() == 0.0
        assert M[-1, -1] > 0.0          # keeps the upper sheet


def test_missing_names_are_recorded_as_absent():
    code = (
        "import tracer\n"
        "tracer.TARGETS += (('bundle', 'NoSuchField.coefficients', 'agg'),"
        " ('nosuchlayer', 'f', 'span'))\n"
        "t = tracer.Tracer()\n"
        "t.install()\n"
        "print(sorted(t.absent))\n"
    )
    out = subprocess.run([sys.executable, "-c", code], cwd=HERE,
                         env=run.child_env(), capture_output=True, text=True,
                         check=True)
    assert out.stdout.strip() == ("['bundle.NoSuchField.coefficients', "
                                  "'nosuchlayer.f']")
    empty = {"absent": ["bundle.ConnectionField.coefficients"], "spans": [],
             "calls": {}, "layer_self": {}, "counters": {}}
    _, absent = tracer.layer_metrics(
        [empty], {"cli.import_s": 0.0, "cli.report_bytes": 0,
                  "reconstruct.residual_headroom": 0.0})
    assert absent == ["bundle.coefficients.calls", "bundle.coefficients_us"]


SMOKE_OPS = [run.Op("check", "diagonal_geodesic", 4),
             run.Op("roundtrip", "diagonal_geodesic", 3, step="0.01"),
             run.Op("check", "control_lambda", 3, expect_exit=1)]


def _declared(kind):
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


@pytest.mark.parametrize("traced, kind",
                         [(False, "end_to_end"), (True, "per_layer")])
def test_smoke_run_emits_every_named_metric(tmp_path, traced, kind):
    result, info = run.run_workload("smoke", SMOKE_OPS, 5, 0.0, traced,
                                    tmp_path)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] % len(SMOKE_OPS) == 0
    units = {k: m["unit"] for k, m in result["metrics"].items()}
    assert units == _declared(kind)
    assert not any(m.get("absent") for m in result["metrics"].values())
    if not traced:
        assert all(len(t) >= run.SETUP_REPEATS
                   for t in info["setup_times_s"].values())
    else:
        assert info["count_mismatch"] == []
        assert result["metrics"]["reconstruct.offgrid_samples"]["value"] == 0
        assert result["metrics"]["bundle.rk4_steps"]["value"] > 0
