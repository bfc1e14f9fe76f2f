"""Chart calculus: Christoffels, curvature, covariant derivatives."""

import math

import numpy as np
import oracles
import pytest
from oracles import chart_grid, wedge

from immersion_forge import ambient as am
from immersion_forge import expr as ex
from immersion_forge import geometry as geo


def lowered_riemann(calc):
    """R_ijkl = g(R(d_i, d_j) d_k, d_l)."""
    return np.einsum("lijk,lm->ijkm", calc.riem, calc.g)


def covariant_derivative_operator_field(T, metric, point, direction):
    """(nabla_i T)^a_b for a (1,1)-tensor field of expressions."""
    T = np.asarray(T, dtype=object)
    calc = metric.calculus_at(point)
    coords = metric.chart.coords
    dT = geo.derivatives(T, coords[direction:direction + 1])[0]
    env = dict(zip(coords, point))
    dT_num = np.array([[oracles.evaluate(dT[a, b], env)
                        for b in range(T.shape[1])]
                       for a in range(T.shape[0])])
    T_num = np.array([[oracles.evaluate(T[a, b], env)
                       for b in range(T.shape[1])]
                      for a in range(T.shape[0])])
    i = direction
    return dT_num + calc.gamma[:, i, :] @ T_num - T_num @ calc.gamma[:, i, :]


def sphere_metric():
    chart = geo.Chart(("u1", "u2"), ((0.3, 2.8), (-3.0, 3.0)), (0.8, 0.0))
    g = oracles.expr_matrix([["1", "0"], ["0", "sin(u1)^2"]], chart.coords)
    return oracles.MetricField(chart, g)


def hyperbolic_metric():
    chart = geo.Chart(("u1", "u2"), ((-2.0, 2.0), (-2.0, 2.0)), (0.3, -0.4))
    g = oracles.expr_matrix([["1", "0"], ["0", "cosh(u1)^2"]], chart.coords)
    return oracles.MetricField(chart, g)


def bumpy_metric():
    chart = geo.Chart(("u1", "u2"), ((-1.0, 1.0), (-1.0, 1.0)), (0.1, 0.2))
    g = oracles.expr_matrix(
        [["2 + sin(u1)*cos(u2)", "u1*u2/4"],
         ["u1*u2/4", "2 + u1^2/2"]], chart.coords)
    return oracles.MetricField(chart, g)


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
        low = lowered_riemann(calc)
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
    g = oracles.expr_matrix([["1", "0"], ["0", "1"]], chart.coords)
    m = oracles.MetricField(chart, g)
    calc = m.calculus_at((0.3, -0.7))
    assert np.abs(calc.riem).max() == 0.0
    assert np.abs(calc.gamma).max() == 0.0


# the catalog at grid 3, then the inputs beyond it at grid 2 or 3
PAIR_STACK_INPUTS = {
    **{name: (lambda name=name: am.catalog_entry(name), 3)
       for name in am.catalog_names()},
    **{f"slice_n{n}": (lambda n=n: oracles.slice_hypersurface(n), 2)
       for n in (4, 5, 6, 7)},
    **{f"mixed_{n}_{k}": (lambda n=n, k=k: oracles.mixed_family(n, k), d)
       for n, k, d in ((3, 1, 3), (3, 2, 3), (3, 3, 3), (4, 2, 2))},
}


@pytest.mark.parametrize("name", sorted(PAIR_STACK_INPUTS))
def test_curvature_pair_stack_equals_the_full_reference(name):
    """``calculus_from_values`` keeps R at the pairs i < j, in the order of
    ``np.triu_indices``; each entry is bit-equal to the full reference."""
    make, density = PAIR_STACK_INPUTS[name]
    spec = am.extract_structure(make())
    v = spec._full_evaluator(spec.chart.grid(density))
    got = geo.calculus_from_values(v["g"], v["dg"], v["ddg"])
    want = oracles.calculus_from_values(v["g"], v["dg"], v["ddg"])
    i, j = np.triu_indices(spec.n, 1)
    assert np.array_equal(got["riem"], want.riem[..., :, i, j, :])
    assert np.array_equal(got["gamma"], want.gamma)
    assert np.array_equal(got["ginv"], want.ginv)


def test_singular_metric_rejected():
    chart = geo.Chart(("u1",), ((-1.0, 1.0),), (0.0,))
    g = oracles.expr_matrix([["u1"]], chart.coords)
    m = oracles.MetricField(chart, g)
    with pytest.raises(geo.SingularMetricError):
        m.calculus_at((-0.5,))


def test_covariant_derivative_of_identity_vanishes():
    m = bumpy_metric()
    eye = np.array([[ex.ONE, ex.ZERO], [ex.ZERO, ex.ONE]], dtype=object)
    for direction in range(2):
        out = covariant_derivative_operator_field(
            eye, m, (0.2, -0.3), direction)
        assert np.abs(out).max() == 0.0


def test_compile_fields_matches_evaluate(rng):
    coords = ("u1", "u2")
    matrix = oracles.expr_matrix([["2 + sin(u1)*cos(u2)", "u1*u2/4"],
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
                        oracles.evaluate(arr[idx], env), rel=1e-13, abs=1e-15)


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
        a = wedge(v, w, z, g)
        assert np.allclose(a, -wedge(w, v, z, g))
        # g((v^w)z, y) = -g(z, (v^w)y)
        lhs = a @ g @ y
        rhs = z @ g @ wedge(v, w, y, g)
        assert lhs == pytest.approx(-rhs, rel=1e-12, abs=1e-12)


def test_minkowski_inner():
    model = am.AmbientModel(1, 1)
    x = np.array([1.0, 2.0, 3.0, 4.0])
    assert model.inner(x, x) == pytest.approx(1 + 4 + 9 - 16)
    J = geo.minkowski_metric(4)
    assert model.inner(x, x) == pytest.approx(x @ J @ x)


class TestChart:
    def test_grid_is_deterministic_and_row_major(self):
        chart = geo.Chart(("u1", "u2"), ((0.0, 1.0), (0.0, 1.0)), (0.5, 0.5))
        a = chart.grid(3)
        b = chart.grid(3)
        assert np.array_equal(a, b)
        assert a[0][0] == a[1][0] == a[2][0]   # first axis varies slowest

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_grid_is_the_tuple_grid_bit_for_bit(self, n):
        chart = geo.Chart(("u1", "u2", "u3")[:n],
                          ((-0.9, 0.9), (-0.4, 0.3), (0.1, 2.0))[:n],
                          (0.0, 0.0, 1.0)[:n])
        for density in (2, 3, 8):
            grid = chart.grid(density)
            want = np.array(chart_grid(chart, density))
            assert grid.dtype == np.float64
            assert grid.shape == (density ** n, n)
            assert grid.tobytes() == want.tobytes()

    @pytest.mark.parametrize("n", [1, 2, 6])
    def test_default_density_follows_the_dimension(self, n):
        chart = geo.Chart(tuple(f"u{i}" for i in range(1, n + 1)),
                          ((-0.5, 0.5),) * n, (0.0,) * n)
        density = geo.default_grid(n)
        assert density == (8 if n <= 5 else 6)
        assert chart.grid().tobytes() == chart.grid(density).tobytes()

    @pytest.mark.parametrize("density", [1, 0, -3])
    def test_grid_density_below_2_rejected(self, density):
        chart = geo.Chart(("u1",), ((-1.0, 1.0),), (0.0,))
        with pytest.raises(geo.GeometryError) as err:
            chart.grid(density)
        assert str(err.value) == "grid density must be >= 2"

    def test_grids_share_endpoints_across_densities(self):
        chart = geo.Chart(("u1",), ((-1.0, 1.0),), (0.0,))
        coarse = {tuple(map(float, p)) for p in chart.grid(2)}
        fine = {tuple(map(float, p)) for p in chart.grid(8)}
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

    @pytest.mark.parametrize("box,base", [
        (((-1.0, math.inf),), (0.0,)),          # a bound
        (((-math.inf, 1.0),), (0.0,)),
        (((-1e308, 1e308),), (0.0,)),           # the width overflows
    ])
    def test_non_finite_box_rejected(self, box, base):
        with pytest.raises(geo.GeometryError, match="must be finite"):
            geo.Chart(("u1",), box, base)

    def test_contains(self):
        chart = geo.Chart(("u1",), ((-1.0, 1.0),), (0.0,))
        assert chart.contains((0.5,))
        assert not chart.contains((1.5,))
        assert not chart.contains((0.5, 0.5))
        assert not chart.contains(())
