"""Admission of structure quintuples against the compatibility equations."""

import dataclasses
import json
import tracemalloc

import numpy as np
import oracles
import pytest

from immersion_forge import geometry as geo
from immersion_forge import structure as st


def flat_chart():
    return geo.Chart(("u1", "u2"), ((-0.9, 0.9), (-0.9, 0.9)), (0.1, -0.2))


def flat_slice_spec(lam="-1"):
    """g = I, S = 0, f = diag(1, -1), U = 0: a totally geodesic product slice."""
    return oracles.structure_from_strings(
        flat_chart(),
        g=[["1", "0"], ["0", "1"]],
        S=[["0", "0"], ["0", "0"]],
        f=[["1", "0"], ["0", "-1"]],
        U=["0", "0"],
        lam=lam,
    )


def test_flat_slice_is_admissible():
    report = st.admit(flat_slice_spec(), grid_density=4)
    assert report.admissible
    assert report.k == 1
    assert max(report.residuals.values()) == 0.0


def test_report_serializes():
    report = st.admit(flat_slice_spec(), grid_density=3)
    text = json.dumps(report.to_dict())
    assert "admissible" in json.loads(text)


def test_point_residual_keys():
    spec = flat_slice_spec()
    per = st.point_residuals(spec.eval_at(spec.chart.base_point))
    assert set(per) == set(st.RESIDUAL_KEYS) - {"k_consistency"}


def test_perturbed_lambda_rejected():
    report = st.admit(flat_slice_spec(lam="-1 + 0.1*u1"), grid_density=4)
    assert not report.admissible
    # the gradient identity X[lambda] = -2 g(SX, U) pins the residual at 0.1
    assert report.residuals["C6_grad_lambda"] == pytest.approx(0.1, rel=1e-12)
    assert report.residuals["C1_algebraic"] > 1e-3


def test_perturbed_f_breaks_algebraic_identities():
    spec = oracles.structure_from_strings(
        flat_chart(),
        g=[["1", "0"], ["0", "1"]],
        S=[["0", "0"], ["0", "0"]],
        f=[["1.01", "0"], ["0", "-1"]],
        U=["0", "0"],
        lam="-1",
    )
    report = st.admit(spec, grid_density=3)
    assert not report.admissible
    assert report.residuals["C1_algebraic"] > 1e-3


def test_gauss_violation_detected():
    # flat metric but f = Id demands constant curvature +1
    spec = oracles.structure_from_strings(
        flat_chart(),
        g=[["1", "0"], ["0", "1"]],
        S=[["0", "0"], ["0", "0"]],
        f=[["1", "0"], ["0", "1"]],
        U=["0", "0"],
        lam="-1",
    )
    report = st.admit(spec, grid_density=3)
    assert not report.admissible
    assert report.residuals["C2_gauss"] > 0.5


def test_f_identity_excluded_even_when_equations_hold():
    # round sphere with f = Id satisfies every equation but is excluded
    chart = geo.Chart(("u1", "u2"), ((0.4, 2.6), (-1.0, 1.0)), (1.0, 0.0))
    spec = oracles.structure_from_strings(
        chart,
        g=[["1", "0"], ["0", "sin(u1)^2"]],
        S=[["0", "0"], ["0", "0"]],
        f=[["1", "0"], ["0", "1"]],
        U=["0", "0"],
        lam="-1",
    )
    report = st.admit(spec, grid_density=4)
    assert not report.admissible
    assert any("excluded case f = +/-Id" in r for r in report.reasons)
    for key in ("C2_gauss", "C3_codazzi", "C4_grad_f", "C5_grad_U",
                "C6_grad_lambda"):
        assert report.residuals[key] < 1e-12


def test_nan_residuals_fail_admission():
    # g11 = 1e-320 passes the Cholesky test, but g^-1 overflows, so every
    # residual built from it is NaN
    spec = oracles.structure_from_strings(
        flat_chart(), g=[["1e-320", "0"], ["0", "1"]],
        S=[["0", "0"], ["0", "0"]], f=[["1", "0"], ["0", "-1"]], U=["0", "0"],
        lam="-1")
    report = st.admit(spec, grid_density=2)
    nan_keys = [key for key, val in report.residuals.items() if np.isnan(val)]
    assert nan_keys == ["C1_algebraic", "C2_gauss", "C3_codazzi",
                        "C4_grad_f", "C5_grad_U"]
    assert report.k == 1 and not report.admissible
    assert report.reasons == [f"{key} residual is NaN" for key in nan_keys]


def test_codazzi_violation_on_extracted_structure(catalog_structures):
    _, spec = catalog_structures["diagonal_cylinder"]
    bad = oracles.scaled_shape_operator(spec, 2.0)
    report = st.admit(bad, grid_density=4)
    assert not report.admissible
    assert report.residuals["C3_codazzi"] > 1e-3
    assert report.residuals["C2_gauss"] > 1e-3


TRACE_TARGETS = {
    "geodesic_slice": (2, 1, -1.0),
    "sphere_slice": (2, 2, 1.0),
    "diagonal_geodesic": (1, 1, 0.0),
    "diagonal_cylinder": (2, 1, -1.0),
    "perturbed_geodesic": (1, 1, 0.0),
    "geodesic_slice_n3": (3, 1, -2.0),
}


@pytest.mark.parametrize("name", sorted(TRACE_TARGETS))
def test_trace_identity_and_k(name, catalog_structures):
    n, k, target = TRACE_TARGETS[name]
    _, spec = catalog_structures[name]
    assert spec.n == n
    for point in spec.chart.grid(3):
        ev = spec.eval_at(point)
        assert st.trace_invariant(ev) == pytest.approx(target, abs=1e-10)
        assert st.determine_k(spec, point, ev) == k
        # independent route: +1 eigenvalue multiplicity of F on span(TM, xi)
        assert oracles.eigen_multiplicity_k(ev) == k


# entries whose f is far from 0, so scaling it moves the eigenvalues off +/-1
@pytest.mark.parametrize("name", ["geodesic_slice", "sphere_slice",
                                  "geodesic_slice_n3"])
def test_eigen_multiplicity_k_reads_its_tolerance(name, catalog_structures):
    _, spec = catalog_structures[name]
    ev = spec.eval_at(spec.chart.base_point)
    off = dataclasses.replace(ev, f=ev.f * 1.01)
    with pytest.raises(st.StructureError, match="not \\+/-1"):
        oracles.eigen_multiplicity_k(off)
    assert oracles.eigen_multiplicity_k(off, tol=0.1) == TRACE_TARGETS[name][1]


def test_declared_k_mismatch_rejected(catalog_structures):
    _, spec = catalog_structures["geodesic_slice"]
    wrong = st.StructureSpec(spec.chart, spec.g, spec.S, spec.f, spec.U,
                             spec.lam, declared_k=2)
    with pytest.raises(st.StructureError, match="k mismatch"):
        st.determine_k(wrong, wrong.chart.base_point)
    report = st.admit(wrong, grid_density=3)
    assert not report.admissible
    assert any("k mismatch" in r for r in report.reasons)


def test_singular_grid_points_are_skipped_and_reported():
    chart = geo.Chart(("u1",), ((-1.0, 1.0),), (0.5,))
    spec = oracles.structure_from_strings(
        chart, g=[["u1"]], S=[["0"]], f=[["0"]], U=["0"], lam="1")
    report = st.admit(spec, grid_density=4)
    assert not report.admissible
    assert report.skipped_points
    assert any("skipped" in r for r in report.reasons)
    skipped = [tuple(map(float, p))
               for p, ok in zip(spec.chart.grid(4), report.usable) if not ok]
    assert skipped == report.skipped_points


@pytest.mark.parametrize("name", ["geodesic_slice", "diagonal_cylinder"])
def test_worst_points_are_first_points_attaining_each_sup(
        name, catalog_structures):
    _, spec = catalog_structures[name]
    grid = spec.chart.grid(3)
    report = st.admit(spec, grid=grid)
    assert not {"values", "usable"} & set(report.to_dict())
    assert len(report.usable) == len(grid)
    for key in st.RESIDUAL_KEYS[:-1]:
        values = report.values[key].tolist()
        at = values.index(report.residuals[key])
        assert report.worst_points[key] == tuple(grid[at])
    target = 2 * report.k - spec.n - 1
    devs = [abs(st.trace_invariant(spec.eval_at(p)) - target) for p in grid]
    assert report.residuals["k_consistency"] == max(devs)
    assert (report.worst_points["k_consistency"]
            == tuple(grid[devs.index(max(devs))]))


def test_eval_at_exposes_exact_derivatives(catalog_structures):
    _, spec = catalog_structures["diagonal_cylinder"]
    point = spec.chart.base_point
    ev = spec.eval_at(point)
    h = 1e-6
    for p in range(spec.n):
        fwd = list(point)
        bwd = list(point)
        fwd[p] += h
        bwd[p] -= h
        fd = (spec.eval_at(tuple(fwd)).S - spec.eval_at(tuple(bwd)).S) / (2 * h)
        assert np.abs(fd - ev.dS[p]).max() < 1e-8


# ---------------------------------------------------------------------------
# batched admission against the per-point loops of tests/oracles.py


def tilted_spec(g11):
    """A structure far from admissible, with metric entry g11; a g11 that
    is not positive at some grid points makes them singular."""
    return oracles.structure_from_strings(
        flat_chart(),
        g=[[g11, "u1*u2/10"], ["u1*u2/10", "1 + u2^2"]],
        S=[["0.1*u1", "0.2"], ["0.2", "sin(u2)"]],
        f=[["cos(u1)", "sin(u1)"], ["sin(u1)", "-cos(u1)"]],
        U=["0.1*u2", "0"],
        lam="-1")


ORACLE_CASES = {
    # the benchmark's inadmissible control: lambda = -1 + c u1
    "control": lambda: flat_slice_spec(lam="-1 + 0.015*u1"),
    # singular on the column u1 = 0 of the grid, away from its first point
    "singular_interior": lambda: tilted_spec("u1^2 - 0.1 + u2^2/10"),
    # singular on the first column, so k cannot be read at grid[0]
    "singular_first_point": lambda: tilted_spec("u1 + 0.5"),
}

TIE = 1e-14


# S != 0 and U != 0 at n = 3 and 4 with k = 2, admissible or not
MIXED_CASES = ["mixed_s2h2", "mixed_s2h2_S1.1", "mixed_s2h3"]


@pytest.mark.parametrize("chunk", [None, 7])
@pytest.mark.parametrize(
    "name", sorted(TRACE_TARGETS) + sorted(ORACLE_CASES) + MIXED_CASES)
def test_batched_admission_matches_per_point_oracle(
        name, chunk, catalog_structures, mixed_structures, monkeypatch):
    if chunk:
        monkeypatch.setattr(geo, "GRID_CHUNK", chunk)
    inputs = {**catalog_structures, **mixed_structures}
    spec = inputs[name][1] if name in inputs else ORACLE_CASES[name]()
    grid = spec.chart.grid(5 if spec.n < 3 else 3)
    report = st.admit(spec, grid=grid)
    want = oracles.admit(spec, grid)
    assert report.k == want["k"]
    assert report.reasons == want["reasons"]
    assert report.skipped_points == want["skipped_points"]
    assert ([not ok for ok in report.usable]
            == [per is None for per in want["per_point"]])
    for j, ref in enumerate(want["per_point"]):
        if ref is not None:
            assert report.values.keys() == ref.keys()
            assert all(abs(report.values[key][j] - ref[key]) <= TIE
                       for key in ref)
    for key in st.RESIDUAL_KEYS:
        sup = want["residuals"][key]
        assert abs(report.residuals[key] - sup) <= TIE
        # the worst point may only move among points tied with the sup
        tied = [p for p, val in want["values"][key] if val >= sup - TIE]
        assert report.worst_points[key] in tied
        if len(tied) == 1:
            assert report.worst_points[key] == want["worst_points"][key]
    if name.startswith("singular"):
        assert report.skipped_points and not report.admissible
    if name == "mixed_s2h2_S1.1":
        assert not report.admissible
        assert report.residuals["C2_gauss"] > 1e-3


def test_batched_checks_serve_one_point_and_a_batch(catalog_structures):
    _, spec = catalog_structures["diagonal_cylinder"]
    grid = spec.chart.grid(3)
    batch = spec.eval_batch(grid)
    per = st.point_residuals(batch)
    for j, point in enumerate(grid):
        one = st.point_residuals(spec.eval_at(point))
        for key, val in one.items():
            assert np.ndim(val) == 0
            assert abs(per[key][j] - val) <= TIE


@pytest.mark.parametrize("name", sorted(TRACE_TARGETS))
def test_field_batches_are_bit_identical_to_points(name, catalog_structures):
    # each sub-batch, and every 43rd point as a batch of one, gives the
    # same rows as the whole batch
    _, spec = catalog_structures[name]
    lo, hi = np.array(spec.chart.box).T
    rng = np.random.default_rng(1032)
    size = (oracles.SUB_BATCHES[-1].stop, len(lo))
    points = lo + (hi - lo) * rng.random(size)
    parts = oracles.SUB_BATCHES + [slice(j, j + 1)
                                   for j in range(0, len(points), 43)]
    for evaluate in (spec._full_evaluator, spec._connection_evaluator):
        whole = evaluate(points)
        for part in parts:
            rows = evaluate(points[part])
            assert all(np.array_equal(rows[key], whole[key][part])
                       for key in whole)


def _admission_peak(spec, grid):
    """tracemalloc peak, in bytes, of admitting ``grid``."""
    tracemalloc.start()
    try:
        report = st.admit(spec, grid=grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.usable.all()
    return peak


def test_admission_memory_per_point_is_a_few_arrays(catalog_structures):
    # the residuals stay (P,) arrays: no Python object per grid point
    _, spec = catalog_structures["geodesic_slice"]
    lo, hi = np.array(spec.chart.box).T
    rng = np.random.default_rng(4096)
    small, large = ([tuple(p) for p in lo + (hi - lo) * rng.random((m, 2))]
                    for m in (2048, 8192))
    st.admit(spec, grid=small)          # compiles the field evaluator
    growth = _admission_peak(spec, large) - _admission_peak(spec, small)
    assert growth / (len(large) - len(small)) < 256
