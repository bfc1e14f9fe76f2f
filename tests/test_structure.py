"""Admission of structure quintuples against the compatibility equations."""

import json

import numpy as np
import pytest

from immersion_forge import expr as ex
from immersion_forge import geometry as geo
from immersion_forge import structure as st


def flat_chart():
    return geo.Chart(("u1", "u2"), ((-0.9, 0.9), (-0.9, 0.9)), (0.1, -0.2))


def flat_slice_spec(lam="-1"):
    """g = I, S = 0, f = diag(1, -1), U = 0: a totally geodesic product slice."""
    return st.StructureSpec.from_strings(
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
    per = st.point_residuals(spec, spec.chart.base_point)
    assert set(per) == set(st.RESIDUAL_KEYS) - {"k_consistency"}


def test_perturbed_lambda_rejected():
    report = st.admit(flat_slice_spec(lam="-1 + 0.1*u1"), grid_density=4)
    assert not report.admissible
    # the gradient identity X[lambda] = -2 g(SX, U) pins the residual at 0.1
    assert report.residuals["C6_grad_lambda"] == pytest.approx(0.1, rel=1e-12)
    assert report.residuals["C1_algebraic"] > 1e-3


def test_perturbed_f_breaks_algebraic_identities():
    spec = st.StructureSpec.from_strings(
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
    spec = st.StructureSpec.from_strings(
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
    spec = st.StructureSpec.from_strings(
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


def test_codazzi_violation_on_extracted_structure(catalog_structures):
    _, spec = catalog_structures["diagonal_cylinder"]
    S2 = np.array([[ex.mul(ex.const(2.0), e) for e in row] for row in spec.S],
                  dtype=object)
    bad = st.StructureSpec(spec.chart, spec.g, S2, spec.f, spec.U, spec.lam,
                           declared_k=spec.declared_k)
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
        assert st.eigen_multiplicity_k(ev) == k


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
    spec = st.StructureSpec.from_strings(
        chart, g=[["u1"]], S=[["0"]], f=[["0"]], U=["0"], lam="1")
    report = st.admit(spec, grid_density=4)
    assert not report.admissible
    assert report.skipped_points
    assert any("skipped" in r for r in report.reasons)
    skipped = [p for p, per in zip(spec.chart.grid(4), report.per_point)
               if per is None]
    assert skipped == report.skipped_points


@pytest.mark.parametrize("name", ["geodesic_slice", "diagonal_cylinder"])
def test_worst_points_are_first_points_attaining_each_sup(
        name, catalog_structures):
    _, spec = catalog_structures[name]
    grid = spec.chart.grid(3)
    report = st.admit(spec, grid=grid)
    assert "per_point" not in report.to_dict()
    assert len(report.per_point) == len(grid)
    for key in st.RESIDUAL_KEYS[:-1]:
        values = [per[key] for per in report.per_point]
        at = values.index(report.residuals[key])
        assert report.worst_points[key] == grid[at]
    target = 2 * report.k - spec.n - 1
    devs = [abs(st.trace_invariant(spec.eval_at(p)) - target) for p in grid]
    assert report.residuals["k_consistency"] == max(devs)
    assert report.worst_points["k_consistency"] == grid[devs.index(max(devs))]


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
