"""Chart calculus: Christoffels, curvature, covariant derivatives."""

import numpy as np
import pytest

from immersion_forge import expr as ex
from immersion_forge import geometry as geo


def sphere_metric():
    chart = geo.Chart(("u1", "u2"), ((0.3, 2.8), (-3.0, 3.0)), (0.8, 0.0))
    g = geo.expr_matrix([["1", "0"], ["0", "sin(u1)^2"]], chart.coords)
    return geo.MetricField(chart, g)


def hyperbolic_metric():
    chart = geo.Chart(("u1", "u2"), ((-2.0, 2.0), (-2.0, 2.0)), (0.3, -0.4))
    g = geo.expr_matrix([["1", "0"], ["0", "cosh(u1)^2"]], chart.coords)
    return geo.MetricField(chart, g)


def bumpy_metric():
    chart = geo.Chart(("u1", "u2"), ((-1.0, 1.0), (-1.0, 1.0)), (0.1, 0.2))
    g = geo.expr_matrix(
        [["2 + sin(u1)*cos(u2)", "u1*u2/4"],
         ["u1*u2/4", "2 + u1^2/2"]], chart.coords)
    return geo.MetricField(chart, g)


def test_sphere_christoffels_closed_form():
    m = sphere_metric()
    u1 = np.pi / 4
    calc = m.calculus_at((u1, 0.5))
    # Gamma^1_22 = -sin cos, Gamma^2_12 = cos/sin
    assert calc.gamma[0, 1, 1] == pytest.approx(-np.sin(u1) * np.cos(u1),
                                                abs=1e-14)
    assert calc.gamma[1, 0, 1] == pytest.approx(np.cos(u1) / np.sin(u1),
                                                abs=1e-14)
    assert calc.gamma[0, 0, 0] == 0.0


@pytest.mark.parametrize("metric,curv", [(sphere_metric, 1.0),
                                         (hyperbolic_metric, -1.0)])
def test_constant_sectional_curvature(metric, curv):
    m = metric()
    for point in m.chart.grid(4):
        calc = m.calculus_at(point)
        low = calc.lowered_riemann()
        g = calc.g
        # sectional curvature of the coordinate plane
        denom = g[0, 0] * g[1, 1] - g[0, 1] ** 2
        assert low[0, 1, 1, 0] / denom == pytest.approx(curv, abs=1e-10)


def test_metric_compatibility():
    m = bumpy_metric()
    for point in m.chart.grid(3):
        calc = m.calculus_at(point)
        # nabla_i g_jk = d_i g_jk - Gamma^m_ij g_mk - Gamma^m_ik g_jm = 0
        nabla = (calc.dg
                 - np.einsum("mij,mk->ijk", calc.gamma, calc.g)
                 - np.einsum("mik,jm->ijk", calc.gamma, calc.g))
        assert np.abs(nabla).max() < 1e-14


def test_christoffel_derivatives_match_finite_differences():
    m = bumpy_metric()
    point = (0.15, -0.25)
    calc = m.calculus_at(point)
    h = 1e-6
    for p in range(2):
        fwd = list(point)
        bwd = list(point)
        fwd[p] += h
        bwd[p] -= h
        fd = (m.calculus_at(tuple(fwd)).gamma
              - m.calculus_at(tuple(bwd)).gamma) / (2 * h)
        assert np.abs(fd - calc.dgamma[p]).max() < 1e-8


def test_riemann_first_bianchi():
    m = bumpy_metric()
    calc = m.calculus_at((0.3, 0.4))
    R = calc.riem
    n = 2
    for i in range(n):
        for j in range(n):
            for k in range(n):
                cyc = R[:, i, j, k] + R[:, j, k, i] + R[:, k, i, j]
                assert np.abs(cyc).max() < 1e-12


def test_flat_metric_has_zero_curvature():
    chart = geo.Chart(("u1", "u2"), ((-1, 1), (-1, 1)), (0.0, 0.0))
    g = geo.expr_matrix([["1", "0"], ["0", "1"]], chart.coords)
    m = geo.MetricField(chart, g)
    calc = m.calculus_at((0.3, -0.7))
    assert np.abs(calc.riem).max() == 0.0
    assert np.abs(calc.gamma).max() == 0.0


def test_singular_metric_rejected():
    chart = geo.Chart(("u1",), ((-1.0, 1.0),), (0.0,))
    g = geo.expr_matrix([["u1"]], chart.coords)
    m = geo.MetricField(chart, g)
    with pytest.raises(geo.SingularMetricError):
        m.calculus_at((-0.5,))


def test_covariant_derivative_of_identity_vanishes():
    m = bumpy_metric()
    eye = np.array([[ex.ONE, ex.ZERO], [ex.ZERO, ex.ONE]], dtype=object)
    for direction in range(2):
        out = geo.covariant_derivative_operator_field(
            eye, m, (0.2, -0.3), direction)
        assert np.abs(out).max() == 0.0


def test_compile_fields_matches_evaluate(rng):
    coords = ("u1", "u2")
    matrix = geo.expr_matrix([["2 + sin(u1)*cos(u2)", "u1*u2/4"],
                              ["u1*u2/4", "log(2 + u1^2)"]], coords)
    derivative = geo.derivatives(matrix, coords)
    for p, name in enumerate(coords):
        for idx in np.ndindex(matrix.shape):
            assert derivative[(p, *idx)] is ex.diff(matrix[idx], name)
    fields = [
        ("d_matrix", derivative),
        ("scalar", ex.parse("exp(u1*u2)", coords)),
        ("vector", np.array([ex.parse(t, coords) for t in
                             ("sin(u1)", "u1^3*u2", "1/(2 + cos(u2))")])),
        ("matrix", matrix),
    ]
    evaluate = geo.compile_fields(fields, coords)
    points = rng.uniform(-1.0, 1.0, (7, 2))
    for pts in (points, points[:1]):
        out = evaluate(pts)
        assert list(out) == [name for name, _ in fields]
        for name, arr in fields:
            arr = np.asarray(arr, dtype=object)
            assert out[name].shape == (len(pts),) + arr.shape
            for j, point in enumerate(pts):
                env = dict(zip(coords, point))
                for idx in np.ndindex(arr.shape):
                    assert out[name][(j, *idx)] == pytest.approx(
                        ex.evaluate(arr[idx], env), rel=1e-13, abs=1e-15)


def test_compile_fields_domain_error_names_point():
    coords = ("u1",)
    evaluate = geo.compile_fields(
        [("v", np.array([ex.parse("log(u1)", coords)]))], coords)
    for points in ([[0.5], [-0.5], [-0.25]], [[-0.5]]):
        with pytest.raises(ex.DomainError, match=r"at \(-0\.5,\)"):
            evaluate(points)


def test_compile_fields_rejects_points_of_wrong_length():
    coords = ("u1", "u2")
    evaluate = geo.compile_fields([("v", ex.parse("u1*u2", coords))], coords)
    for points in ([(0.1, 0.2, 0.3, 0.4)], [0.1, 0.2], [(0.1,), (0.2,)]):
        with pytest.raises(ValueError, match="shape"):
            evaluate(points)


def test_wedge_identities(rng):
    g = np.array([[2.0, 0.3], [0.3, 1.5]])
    for _ in range(10):
        v, w, z, y = rng.standard_normal((4, 2))
        a = geo.wedge(v, w, z, g)
        assert np.allclose(a, -geo.wedge(w, v, z, g))
        # g((v^w)z, y) = -g(z, (v^w)y)
        lhs = a @ g @ y
        rhs = z @ g @ geo.wedge(v, w, y, g)
        assert lhs == pytest.approx(-rhs, rel=1e-12, abs=1e-12)


def test_minkowski_inner():
    x = np.array([1.0, 2.0, 3.0])
    assert geo.minkowski_inner(x, x) == pytest.approx(1 + 4 - 9)
    J = geo.minkowski_metric(3)
    assert geo.minkowski_inner(x, x) == pytest.approx(x @ J @ x)


class TestChart:
    def test_grid_is_deterministic_and_row_major(self):
        chart = geo.Chart(("u1", "u2"), ((0.0, 1.0), (0.0, 1.0)), (0.5, 0.5))
        a = chart.grid(3)
        b = chart.grid(3)
        assert a == b
        assert a[0][0] == a[1][0] == a[2][0]   # first axis varies slowest

    def test_grids_share_endpoints_across_densities(self):
        chart = geo.Chart(("u1",), ((-1.0, 1.0),), (0.0,))
        coarse = set(chart.grid(2))
        fine = set(chart.grid(8))
        assert coarse <= fine

    def test_validation(self):
        with pytest.raises(geo.GeometryError):
            geo.Chart(("u1",), ((1.0, -1.0),), (0.0,))
        with pytest.raises(geo.GeometryError):
            geo.Chart(("u1",), ((-1.0, 1.0),), (2.0,))
        with pytest.raises(geo.GeometryError):
            geo.Chart(("pi",), ((-1.0, 1.0),), (0.0,))
        with pytest.raises(geo.GeometryError):
            geo.Chart(("u1", "u2"), ((-1.0, 1.0),), (0.0,))

    def test_contains(self):
        chart = geo.Chart(("u1",), ((-1.0, 1.0),), (0.0,))
        assert chart.contains((0.5,))
        assert not chart.contains((1.5,))
        assert not chart.contains((0.5, 0.5))
        assert not chart.contains(())
