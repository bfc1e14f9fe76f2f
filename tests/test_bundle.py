"""Extended-bundle connection: flatness, metricity, parallel transport."""

import numpy as np
import oracles
import pytest

from immersion_forge import bundle as bd
from immersion_forge import expr as ex
from immersion_forge import geometry as geo
from immersion_forge import structure as st


@pytest.fixture(scope="module")
def cylinder(catalog_structures):
    _, spec = catalog_structures["diagonal_cylinder"]
    return spec, bd.ConnectionField(spec)


@pytest.mark.parametrize("name", ["geodesic_slice", "sphere_slice",
                                  "diagonal_geodesic", "diagonal_cylinder",
                                  "perturbed_geodesic", "geodesic_slice_n3"])
def test_connection_is_flat_metric_and_f_parallel(name, catalog_structures):
    _, spec = catalog_structures[name]
    for point in spec.chart.grid(3):
        ev = spec.eval_at(point)
        assert oracles.flatness_residual(spec, point, ev) < 1e-8
        assert oracles.metric_residual(spec, point, ev) < 1e-12
        assert oracles.parallel_map_residual(spec, point, ev) < 1e-12


def test_mutant_structure_has_curvature(cylinder):
    spec, _ = cylinder
    bad = oracles.scaled_shape_operator(spec, 2.0)
    worst = max(oracles.flatness_residual(bad, p) for p in spec.chart.grid(4))
    assert worst > 1e-3


def test_coefficient_derivatives_match_finite_differences(cylinder):
    spec, conn = cylinder
    point = np.array(spec.chart.base_point)
    dA = oracles.coefficient_derivatives(spec, tuple(point))
    h = 1e-6
    for p in range(spec.n):
        fwd = point.copy()
        bwd = point.copy()
        fwd[p] += h
        bwd[p] -= h
        fd = (conn.coefficients(tuple(fwd))
              - conn.coefficients(tuple(bwd))) / (2 * h)
        assert np.abs(fd - dA[p]).max() < 1e-8


def test_gram_drift_below_tolerance(cylinder):
    spec, conn = cylinder
    # unit-length straight path through the chart
    path = [(-0.3, -0.4), (0.3, 0.4)]
    assert oracles.gram_drift(conn, path) < 1e-9


def test_transport_preserves_gram_along_staircase(cylinder):
    spec, conn = cylinder
    path = bd.staircase_path((-0.5, -0.5), (0.6, 0.5))
    assert oracles.gram_drift(conn, path) < 1e-9


def test_staircase_path_independence(cylinder):
    spec, conn = cylinder
    p0 = (-0.5, -0.4)
    p1 = (0.6, 0.5)
    axis0_first = bd.staircase_path(p0, p1)
    axis1_first = [p0, (p0[0], p1[1]), p1]
    M1 = oracles.transport(conn, axis0_first)
    M2 = oracles.transport(conn, axis1_first)
    assert np.abs(M1 - M2).max() < 1e-6


def test_transport_reversibility(cylinder):
    spec, conn = cylinder
    path = bd.staircase_path((-0.4, -0.3), (0.5, 0.4))
    M = oracles.transport(conn, path + path[::-1][1:])
    assert np.abs(M - np.eye(conn.fiber_dim)).max() < 1e-10


def test_holonomy_convergence_order(cylinder):
    spec, conn = cylinder
    loop = oracles.rectangle_loop((-0.5, -0.5), (0.5, 0.5))
    steps = [2e-2, 1e-2, 5e-3]
    defects = [oracles.holonomy_defect(conn, loop, step=s) for s in steps]
    assert defects[0] > defects[1] > defects[2]
    slope = np.log(defects[0] / defects[2]) / np.log(steps[0] / steps[2])
    assert slope >= 3.0


def test_staircase_path_waypoints():
    path = bd.staircase_path((0.0, 1.0, 2.0), (3.0, 1.0, 5.0))
    assert path == [(0.0, 1.0, 2.0), (3.0, 1.0, 2.0), (3.0, 1.0, 5.0)]
    assert bd.staircase_path((1.0,), (1.0,)) == [(1.0,)]


def test_rectangle_loop_closes():
    loop = oracles.rectangle_loop((0.0, 0.0), (1.0, 2.0))
    assert loop[0] == loop[-1]
    assert len(loop) == 5
    with pytest.raises(oracles.BundleError):
        oracles.rectangle_loop((0.0,), (1.0,))


def test_coefficients_recover_shape_operator(cylinder):
    """The xi row of A_i is g(S d_i, .): connection encodes the shape data."""
    spec, conn = cylinder
    point = spec.chart.base_point
    g, gamma, S, f, u = spec.connection_data_at(point)
    A = conn.coefficients(point)
    n = spec.n
    for i in range(n):
        assert np.allclose(A[i, n, :n], (g @ S)[:, i])
        assert np.allclose(A[i, :n, n], -S[:, i])
        assert np.allclose(A[i, :n, :n], gamma[:, i, :])


# -- batched stage evaluation ------------------------------------------------


@pytest.mark.parametrize("name", ["geodesic_slice", "sphere_slice",
                                  "diagonal_geodesic", "diagonal_cylinder",
                                  "perturbed_geodesic", "geodesic_slice_n3"])
def test_connection_data_batch_matches_pointwise(name, catalog_structures):
    _, spec = catalog_structures[name]
    points = spec.chart.grid(3)
    batch = spec.connection_data_batch(points)
    for j, point in enumerate(points):
        single = spec.connection_data_at(point)
        ev = spec.eval_at(point)        # the full table, compiled apart
        full = (ev.g, ev.calc.gamma, ev.S, ev.f, ev.u)
        for got, one, ref in zip(batch, single, full):
            np.testing.assert_allclose(got[j], one, rtol=1e-13, atol=1e-13)
            np.testing.assert_allclose(got[j], ref, rtol=1e-13, atol=1e-13)


def _reference_transport(conn, p0, p1, M, step):
    """Per-point RK4 with one coefficients() call per stage."""
    p0 = np.asarray(p0, dtype=float)
    delta = np.asarray(p1, dtype=float) - p0
    steps = max(1, int(np.ceil(np.linalg.norm(delta) / step)))
    h = 1.0 / steps

    def B(t):
        return -np.einsum("i,iab->ab", delta, conn.coefficients(p0 + t * delta))

    for s in range(steps):
        t = s * h
        B1, B2, B3 = B(t), B(t + 0.5 * h), B(t + h)
        k1 = B1 @ M
        k2 = B2 @ (M + 0.5 * h * k1)
        k3 = B2 @ (M + 0.5 * h * k2)
        k4 = B3 @ (M + h * k3)
        M = M + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return M


@pytest.mark.parametrize("name,p0,p1,step", [
    # 571 steps: several full stage blocks and a partial one
    ("diagonal_cylinder", (-0.4, -0.3), (0.5, 0.4), 2e-3),
    ("perturbed_geodesic", (-0.3,), (0.4,), 1e-2),
    ("geodesic_slice_n3", (-0.2, 0.1, -0.3), (0.3, -0.2, 0.2), 1e-2),
])
def test_transport_segment_matches_per_point_reference(
        name, p0, p1, step, catalog_structures, rng):
    _, spec = catalog_structures[name]
    conn = bd.ConnectionField(spec)
    M0 = np.eye(conn.fiber_dim) + 0.1 * rng.standard_normal(
        (conn.fiber_dim, conn.fiber_dim))
    got = conn.transport_segment(p0, p1, M0, step=step)
    want = _reference_transport(conn, p0, p1, M0, step)
    assert np.abs(got - want).max() <= 1e-12


def _line_structure(g="1", S="0"):
    chart = geo.Chart(("u1",), ((-1.0, 1.0),), (0.5,))
    return oracles.structure_from_strings(chart, [[g]], [[S]], [["1"]],
                                          ["0"], "-1")


def test_transport_rejects_singular_metric_at_interior_stage_point():
    # g vanishes at u1 = 0, the midpoint of the middle step of five
    conn = bd.ConnectionField(_line_structure(g="u1^2"))
    with pytest.raises(geo.SingularMetricError, match=r"at \(0\.0,\)"):
        conn.transport_segment((-0.5,), (0.5,), np.eye(4), step=0.2)


def test_transport_rejects_division_by_zero_at_stage_point():
    conn = bd.ConnectionField(_line_structure(S="1/u1"))
    with pytest.raises(ex.DomainError, match=r"division by zero at \(0\.0,\)"):
        conn.transport_segment((-0.5,), (0.5,), np.eye(4), step=0.1)


# -- shared stage batches ----------------------------------------------------

STEP = 2e-3
LONG = ((-0.4, -0.3), (0.5, 0.4))           # 571 steps at STEP
SEGMENTS = [((0.1, 0.2), (0.1, 0.23)), LONG, ((0.3, 0.3), (0.3, 0.3)),
            ((-0.2, 0.1), (0.25, 0.1))]


def _count_field_calls(monkeypatch):
    calls = []
    original = st.StructureSpec.connection_data_batch

    def counting(self, points):
        calls.append(len(points))
        return original(self, points)

    monkeypatch.setattr(st.StructureSpec, "connection_data_batch", counting)
    return calls


def test_segment_in_shared_batch_equals_segment_alone(cylinder, rng,
                                                      monkeypatch):
    spec, conn = cylinder
    step, long, segments = STEP, LONG, SEGMENTS
    assert np.ceil(np.linalg.norm(np.subtract(long[1], long[0])) / step) \
        > bd.STAGE_BLOCK
    calls = _count_field_calls(monkeypatch)
    M0 = np.eye(conn.fiber_dim) + 0.1 * rng.standard_normal(
        (conn.fiber_dim, conn.fiber_dim))
    shared = [conn.transport_segment(p0, p1, M0, step=step, blocks=blocks)
              for (p0, p1), blocks in zip(segments,
                                          conn.block_steps(segments, step))]
    shared_calls = len(calls)
    alone = [conn.transport_segment(p0, p1, M0, step=step)
             for p0, p1 in segments]
    # the segments do share calls, cut across segment and block boundaries
    assert shared_calls < len(calls) - shared_calls
    for got, want in zip(shared, alone):
        assert np.array_equal(got, want)
    # the zero-length segment has no blocks and returns a copy of M
    assert list(conn.block_steps(segments[2:3], step)) == [[]]
    assert np.array_equal(shared[2], M0) and shared[2] is not M0
    assert list(conn.block_steps([], step)) == []


@pytest.mark.parametrize("chunk", [3, 257, 1024])
def test_block_steps_take_stage_points_in_grid_chunk_windows(
        cylinder, chunk, monkeypatch):
    # 257 is one block's stage points, 1024 the default chunk; every window
    # straddles segment and block boundaries
    _, conn = cylinder
    reference = list(conn.block_steps(SEGMENTS, STEP))
    calls = _count_field_calls(monkeypatch)
    monkeypatch.setattr(geo, "GRID_CHUNK", chunk)
    got = list(conn.block_steps(SEGMENTS, STEP))
    assert calls and max(calls) <= chunk
    assert [len(blocks) for blocks in got] == [len(b) for b in reference]
    for blocks, want in zip(got, reference):
        assert all(np.array_equal(D, W) for D, W in zip(blocks, want))


def test_block_steps_yield_a_segment_once_its_last_block_is_formed(
        cylinder, monkeypatch):
    # a run holds one segment's blocks at a time: the first segment comes
    # before more than one window of the next segment's stage rows is read
    _, conn = cylinder
    monkeypatch.setattr(geo, "GRID_CHUNK", 64)
    segments = [LONG, SEGMENTS[3]]
    steps = [int(np.ceil(np.linalg.norm(np.subtract(p1, p0)) / STEP))
             for p0, p1 in segments]
    block_counts = [int(np.ceil(s / bd.STAGE_BLOCK)) for s in steps]
    rows = [2 * s + b for s, b in zip(steps, block_counts)]   # stage rows
    calls = _count_field_calls(monkeypatch)
    first = next(iter(conn.block_steps(segments, STEP)))
    assert len(first) == block_counts[0]
    assert rows[0] <= sum(calls) <= rows[0] + geo.GRID_CHUNK < sum(rows)
    # the zero-length segments before, between and after are yielded empty
    gaps = [SEGMENTS[2], LONG, SEGMENTS[2], SEGMENTS[2], LONG, SEGMENTS[2]]
    assert [len(b) for b in conn.block_steps(gaps, STEP)] \
        == [0, len(first), 0, 0, len(first), 0]


def test_multi_segment_transport_matches_per_point_reference(cylinder, rng):
    spec, conn = cylinder
    step = 1e-2
    path = [(-0.5, -0.4), (0.2, -0.4), (0.2, 0.5), (0.2, 0.5), (-0.3, 0.1)]
    M0 = np.eye(conn.fiber_dim) + 0.1 * rng.standard_normal(
        (conn.fiber_dim, conn.fiber_dim))
    want = M0
    for p0, p1 in zip(path[:-1], path[1:]):
        if p0 != p1:
            want = _reference_transport(conn, p0, p1, want, step)
    got = oracles.transport(conn, path, M=M0, step=step)
    assert np.abs(got - want).max() <= 1e-12


@pytest.mark.parametrize("structure,error", [
    (dict(g="u1^2"), geo.SingularMetricError),
    (dict(S="1/u1"), ex.DomainError),
])
def test_stage_point_error_names_the_same_point_in_a_shared_batch(
        structure, error):
    # the first segment is regular; the second meets u1 = 0 at a midpoint
    conn = bd.ConnectionField(_line_structure(**structure))
    path = [(-0.9,), (-0.5,), (0.5,)]
    with pytest.raises(error) as alone:
        conn.transport_segment(path[1], path[2], np.eye(4), step=0.2)
    with pytest.raises(error) as shared:
        oracles.transport(conn, path, step=0.2)
    assert "at (0.0,)" in str(alone.value)
    assert str(shared.value) == str(alone.value)
