"""Minkowski model, extraction oracle, congruence, equation audit."""

import numpy as np
import pytest

from immersion_forge import ambient as am
from immersion_forge import expr as ex
from immersion_forge import geometry as geo
from immersion_forge import structure as st


# ---------------------------------------------------------------------------
# model basics


def test_model_quadrics_and_normals():
    model = am.AmbientModel(2, 1)
    x = np.array([np.cos(0.3), np.sin(0.3), np.sinh(0.2), 0.0, np.cosh(0.2)])
    assert model.on_model_residual(x) < 1e-15
    xi1, xi2 = model.xi1(x), model.xi2(x)
    assert model.inner(xi1, xi1) == pytest.approx(1.0)
    assert model.inner(xi2, xi2) == pytest.approx(-1.0)
    assert model.inner(xi1, xi2) == 0.0
    F = model.fhat
    assert np.allclose(F @ F, np.eye(5))
    assert np.allclose(F @ xi1, xi1)
    assert np.allclose(F @ xi2, -xi2)


def test_tangency_enforced():
    model = am.AmbientModel(2, 1)
    x = np.array([1.0, 0.0, 0.0, 0.0, 1.0])
    tangent = np.array([0.0, 1.0, 0.0, 0.0, 0.0])
    model.require_tangent(x, tangent)
    with pytest.raises(am.NotTangentError):
        model.require_tangent(x, x)
    with pytest.raises(am.NotOnModelError):
        model.require_tangent(2.0 * x, tangent)
    with pytest.raises(am.NotTangentError):
        am.ambient_curvature(model, x, x, tangent, tangent)


def _model_parametrization():
    """Chart of the full model S^1 x H^2 in L^5 (for curvature oracles)."""
    chart = geo.Chart(("t", "a", "b"),
                      ((-0.6, 0.6), (-0.6, 0.6), (-0.6, 0.6)),
                      (0.1, 0.2, -0.1))
    comps = ["cos(t)", "sin(t)", "a", "b", "sqrt(1 + a^2 + b^2)"]
    y = [ex.parse(c, chart.coords) for c in comps]
    dy = [[ex.diff(c, v) for v in chart.coords] for c in y]
    eta = [1.0, 1.0, 1.0, 1.0, -1.0]
    g = np.empty((3, 3), dtype=object)
    for i in range(3):
        for j in range(3):
            total = ex.ZERO
            for a in range(5):
                total = ex.add(total, ex.mul(ex.const(eta[a]),
                                             ex.mul(dy[a][i], dy[a][j])))
            g[i, j] = total
    flat = y + [e for row in dy for e in row]
    fn = ex.compile_exprs(flat, chart.coords)

    def sample(point):
        vals = np.array(fn(point))
        return vals[:5], vals[5:].reshape(5, 3)

    return geo.MetricField(chart, g), sample


def test_ambient_curvature_matches_induced_riemann_tensor():
    """R(X,Y)Z = (Fhat((X^Y)Z) + (X^Y) Fhat Z)/2 against the Riemann tensor
    of the induced metric of an explicit model parametrization."""
    metric, sample = _model_parametrization()
    model = am.AmbientModel(2, 1)
    for point in metric.chart.grid(2):
        calc = metric.calculus_at(point)
        x, dy = sample(point)
        for i in range(3):
            for j in range(3):
                for k in range(3):
                    expected = dy @ calc.riem[:, i, j, k]
                    got = am.ambient_curvature(
                        model, x, dy[:, i], dy[:, j], dy[:, k])
                    assert np.abs(got - expected).max() < 1e-10


def test_ambient_connection_is_metric_and_tangent():
    """Differentiating <Y, xi_m> = 0 along the model: the connection output
    of coordinate fields matches the tangential part of the flat derivative."""
    metric, sample = _model_parametrization()
    model = am.AmbientModel(2, 1)
    point = metric.chart.base_point
    x, dy = sample(point)
    h = 1e-6
    for i in range(3):
        for j in range(3):
            fwd = list(point)
            bwd = list(point)
            fwd[i] += h
            bwd[i] -= h
            dY = (sample(tuple(fwd))[1][:, j]
                  - sample(tuple(bwd))[1][:, j]) / (2 * h)
            out = am.ambient_connection(model, x, dy[:, i], dy[:, j], dY,
                                        tol=1e-8)
            assert model.tangency_residual(x, out) < 1e-8


# ---------------------------------------------------------------------------
# symbolic linear algebra


def test_sym_det_and_inverse_match_numpy(rng):
    for m in (1, 2, 3, 4):
        M = rng.standard_normal((m, m)) + 2.0 * np.eye(m)
        rows = [[ex.const(float(v)) for v in row] for row in M]
        det = ex.evaluate(am.sym_det(rows), {})
        assert det == pytest.approx(np.linalg.det(M), rel=1e-10)
        inv = am.sym_inverse(rows)
        inv_num = np.array([[ex.evaluate(e, {}) for e in row] for row in inv])
        assert np.abs(inv_num - np.linalg.inv(M)).max() < 1e-10


# ---------------------------------------------------------------------------
# parametrized hypersurfaces and extraction


def test_catalog_entries_stay_on_model(catalog_structures):
    for name, (h, _) in catalog_structures.items():
        assert h.check_on_model(grid_density=3) < 1e-12


def test_off_model_parametrization_rejected():
    chart = geo.Chart(("u1",), ((-0.5, 0.5),), (0.0,))
    h = am.ParametrizedHypersurface(
        chart, ("1 + u1", "0", "sinh(u1)", "cosh(u1)"), k=1)
    with pytest.raises(am.NotOnModelError):
        h.check_on_model(grid_density=3)


def test_lower_sheet_rejected():
    chart = geo.Chart(("u1",), ((-0.5, 0.5),), (0.0,))
    h = am.ParametrizedHypersurface(
        chart, ("cos(u1)", "sin(u1)", "sinh(u1)", "-cosh(u1)"), k=1)
    with pytest.raises(am.NotOnModelError, match="sheet"):
        h.check_on_model(grid_density=3)


def test_normal_is_unit_tangent_and_orthogonal(catalog_structures):
    for name, (h, _) in catalog_structures.items():
        model = h.model
        for point in h.chart.grid(2):
            x, dx, nu = h.sample(point)
            assert model.inner(nu, nu) == pytest.approx(1.0, abs=1e-12)
            assert model.tangency_residual(x, nu) < 1e-12
            assert np.abs(dx.T @ model.minkowski @ nu).max() < 1e-12


def test_extraction_geodesic_slice_closed_form(catalog_structures):
    _, spec = catalog_structures["geodesic_slice"]
    for point in spec.chart.grid(3):
        ev = spec.eval_at(point)
        assert np.allclose(ev.g, np.eye(2), atol=1e-14)
        assert np.abs(ev.S).max() < 1e-14
        assert np.allclose(ev.f, np.diag([1.0, -1.0]), atol=1e-14)
        assert np.abs(ev.U).max() < 1e-14
        assert ev.lam == pytest.approx(-1.0, abs=1e-14)


def test_extraction_sphere_slice_flips_lambda(catalog_structures):
    _, spec = catalog_structures["sphere_slice"]
    ev = spec.eval_at(spec.chart.base_point)
    assert ev.lam == pytest.approx(1.0, abs=1e-14)
    assert np.allclose(ev.f, np.diag([1.0, -1.0]), atol=1e-14)


def test_extraction_diagonal_geodesic_closed_form(catalog_structures):
    # unit-speed diagonal with a = b = 1/sqrt(2): lambda = b^2 - a^2 = 0,
    # |U| = 2ab = 1, S = 0, f = 0
    _, spec = catalog_structures["diagonal_geodesic"]
    for point in spec.chart.grid(3):
        ev = spec.eval_at(point)
        assert ev.g[0, 0] == pytest.approx(1.0, abs=1e-14)
        assert np.abs(ev.S).max() < 1e-13
        assert np.abs(ev.f).max() < 1e-14
        assert ev.lam == pytest.approx(0.0, abs=1e-14)
        assert abs(ev.U[0]) == pytest.approx(1.0, abs=1e-13)


def test_extraction_against_numeric_normal(catalog_structures):
    """Cross-oracle: recompute lambda and u from a normal obtained by
    numpy null-space computation instead of the symbolic cross product."""
    h, spec = catalog_structures["diagonal_cylinder"]
    model = h.model
    J = model.minkowski
    for point in h.chart.grid(2):
        x, dx, nu = h.sample(point)
        # rows: Minkowski pairings that the normal must annihilate
        rows = np.vstack([dx.T @ J, model.xi1(x) @ J, model.xi2(x) @ J])
        _, _, vt = np.linalg.svd(rows)
        cand = vt[-1]
        cand = cand / np.sqrt(model.inner(cand, cand))
        if np.dot(cand, nu) < 0:
            cand = -cand
        assert np.abs(cand - nu).max() < 1e-10
        ev = spec.eval_at(point)
        Fn = model.fhat @ cand
        assert ev.lam == pytest.approx(model.inner(Fn, cand), abs=1e-10)
        u_oracle = dx.T @ J @ Fn
        assert np.abs(ev.u - u_oracle).max() < 1e-10


def test_extracted_metric_matches_pullback(catalog_structures):
    h, spec = catalog_structures["perturbed_geodesic"]
    J = h.model.minkowski
    for point in h.chart.grid(4):
        _, dx, _ = h.sample(point)
        ev = spec.eval_at(point)
        assert np.abs(dx.T @ J @ dx - ev.g).max() < 1e-12


# ---------------------------------------------------------------------------
# congruence


def _block_isometry(k, d, rng):
    def rotation(m):
        Q, R = np.linalg.qr(rng.standard_normal((m, m)))
        return Q * np.sign(np.diag(R))

    phi = np.zeros((d, d))
    phi[:k + 1, :k + 1] = rotation(k + 1)
    hyp = d - k - 1
    B = np.eye(hyp)
    B[:hyp - 1, :hyp - 1] = rotation(hyp - 1)
    t = 0.3
    boost = np.eye(hyp)
    boost[-2, -2] = boost[-1, -1] = np.cosh(t)
    boost[-1, -2] = boost[-2, -1] = np.sinh(t)
    phi[k + 1:, k + 1:] = boost @ B
    return phi


def test_solve_congruence_recovers_block_isometry(catalog_structures, rng):
    h, _ = catalog_structures["diagonal_cylinder"]
    points = h.chart.grid(3)
    samples = am.hypersurface_samples(h, points)
    phi0 = _block_isometry(h.k, h.n + 3, rng)
    moved = []
    for s in samples:
        moved.append(type(s)(point=s.point, psi=phi0 @ s.psi,
                             normal=phi0 @ s.normal, dpsi=phi0 @ s.dpsi,
                             residuals={}))
    cong = am.solve_congruence(samples, moved, h.k)
    assert cong.congruent
    assert np.abs(cong.matrix - phi0).max() < 1e-10


def test_solve_congruence_detects_mismatch(catalog_structures):
    h1, _ = catalog_structures["diagonal_cylinder"]
    h2, _ = catalog_structures["geodesic_slice"]
    points = h1.chart.grid(2)
    cong = am.solve_congruence(am.hypersurface_samples(h1, points),
                               am.hypersurface_samples(h2, points), 1)
    assert not cong.congruent


# ---------------------------------------------------------------------------
# equation audit


def test_audit_separates_gauss_variants(catalog_structures):
    h, _ = catalog_structures["geodesic_slice"]
    report = am.audit_equations(h, grid_density=3)
    assert report.gauss_f_outside < 1e-8
    assert report.gauss_f_paired > 0.1
    assert report.surviving_gauss == ["f_outside"]
    # with U = 0 both Codazzi signs degenerate to the same equation
    assert report.codazzi_indistinguishable


def test_audit_separates_codazzi_signs(catalog_structures):
    h, _ = catalog_structures["diagonal_cylinder"]
    report = am.audit_equations(h, grid_density=3)
    assert report.codazzi_plus < 1e-8
    assert report.codazzi_minus > 0.1
    assert report.surviving_codazzi == ["plus"]
    assert not report.codazzi_indistinguishable


@pytest.mark.parametrize("name", am.catalog_names())
def test_audit_uses_the_admission_equations(name, catalog_structures):
    h, spec = catalog_structures[name]
    audit = am.audit_equations(h, grid_density=3)
    report = st.admit(spec, grid_density=3)
    assert audit.gauss_f_outside == report.residuals["C2_gauss"]
    assert audit.codazzi_plus == report.residuals["C3_codazzi"]


def test_catalog_aliases():
    assert am.catalog_entry("tilted_slice").name == "diagonal_cylinder"
    with pytest.raises(am.AmbientError, match="unknown catalog entry"):
        am.catalog_entry("nope")
