"""Immersion reconstruction from admissible structures."""

import numpy as np
import oracles
import pytest

from immersion_forge import ambient as am
from immersion_forge import bundle as bd
from immersion_forge import geometry as geo
from immersion_forge import reconstruct as rc
from immersion_forge import structure as st


def test_synthesized_frame_is_adapted(catalog_structures):
    _, spec = catalog_structures["diagonal_cylinder"]
    ev = spec.eval_at(spec.chart.base_point)
    k = st.determine_k(spec, spec.chart.base_point, ev)
    G = bd.assemble_gram(ev.g)
    F = bd.assemble_bundle_map(ev.f, ev.U, ev.u, ev.lam)
    E0 = rc.synthesize_frame(F, G, k)
    N = spec.n + 3
    target = np.diag([1.0] * (N - 1) + [-1.0])
    assert np.abs(E0.T @ G @ E0 - target).max() < 1e-12
    assert np.abs(F @ E0[:, :k + 1] - E0[:, :k + 1]).max() < 1e-12
    assert np.abs(F @ E0[:, k + 1:] + E0[:, k + 1:]).max() < 1e-12


@pytest.mark.parametrize("scale", [1.0, 1e-20, 1e-300])
def test_synthesized_frame_does_not_depend_on_the_scale_of_g(scale):
    """g = diag(scale, 1), f = diag(1, -1), U = 0, lambda = -1: the +1
    eigenspace holds d_1 and xi_1 at every scale of g_11."""
    g, f = np.diag([scale, 1.0]), np.diag([1.0, -1.0])
    F = bd.assemble_bundle_map(f, np.zeros(2), np.zeros(2), -1.0)
    G = bd.assemble_gram(g)
    E0 = rc.synthesize_frame(F, G, 1)
    assert np.abs(E0.T @ G @ E0 - geo.minkowski_metric(5)).max() < 1e-12
    assert np.abs(F @ E0[:, :2] - E0[:, :2]).max() == 0.0


def test_base_point_maps_to_standard_position(catalog_structures):
    _, spec = catalog_structures["diagonal_cylinder"]
    imm = rc.Immersion(spec)
    s = imm.sample(spec.chart.base_point)
    expected = np.zeros(spec.n + 3)
    expected[0] = 1.0
    expected[-1] = 1.0
    assert np.abs(s.psi - expected).max() < 1e-12


def test_bad_base_frame_rejected(catalog_structures):
    _, spec = catalog_structures["diagonal_cylinder"]
    with pytest.raises(rc.ReconstructionError, match="orthonormal"):
        rc.Immersion(spec, base_frame=2.0 * np.eye(spec.n + 3))


def test_base_point_outside_chart_rejected(catalog_structures):
    _, spec = catalog_structures["diagonal_cylinder"]
    with pytest.raises(rc.ReconstructionError, match="outside"):
        rc.Immersion(spec, base=(5.0, 0.0))


@pytest.mark.parametrize("step", [-1e-2, 0.0, float("nan"), 1e-300])
def test_step_out_of_range_rejected(catalog_structures, step):
    # a negative step used to take no RK4 steps, so every sample had the
    # base frame, and the validation passed with every residual 0.0
    _, spec = catalog_structures["geodesic_slice"]
    with pytest.raises(rc.ReconstructionError, match="step"):
        rc.validate_theorem(spec, spec.chart.grid(2), step=step)
    with pytest.raises(rc.ReconstructionError, match="step"):
        rc.immerse(spec, spec.chart.grid(2), step=step)


@pytest.mark.parametrize("box,step,accepted", [
    (((-0.9, 1e308), (-1e308, 0.9)), 0.05, False),  # int(inf) steps
    (((-0.9, 0.9), (-0.9, 9.1)), bd.MIN_STEP, True),    # 1e7 steps, the cap
    (((-0.9, 0.9), (-0.9, 9.2)), bd.MIN_STEP, False),
])
def test_steps_across_the_chart_box_are_capped(catalog_structures, box, step,
                                               accepted):
    _, spec = catalog_structures["geodesic_slice"]
    chart = geo.Chart(spec.chart.coords, box, spec.chart.base_point)
    wide = st.StructureSpec(chart, spec.g, spec.S, spec.f, spec.U, spec.lam)
    if accepted:
        assert rc.Immersion(wide, step=step).step == step
    else:
        with pytest.raises(rc.ReconstructionError,
                           match=f"the cap is {bd.MAX_SIDE_STEPS}"):
            rc.immerse(wide, wide.chart.grid(2), step=step)


def test_step_bounds_accepted(catalog_structures):
    _, spec = catalog_structures["geodesic_slice"]
    for step in (bd.MIN_STEP, bd.MAX_STEP):
        assert rc.Immersion(spec, step=step).step == step


@pytest.mark.parametrize("name,density", [
    ("geodesic_slice", 3),
    ("sphere_slice", 3),
    ("diagonal_geodesic", 5),
    ("perturbed_geodesic", 5),
])
def test_validate_theorem(name, density, catalog_structures):
    _, spec = catalog_structures[name]
    report = rc.validate_theorem(spec, spec.chart.grid(density))
    assert report.valid, report.to_dict()
    assert report.residuals["quadric"] < 1e-7
    assert report.residuals["isometry"] < 1e-6
    assert report.residuals["normal"] < 1e-7
    assert report.residuals["shape_operator"] < 1e-4
    assert report.residuals["product_relations"] < 1e-6


def test_validate_refuses_inadmissible():
    # flat metric with f = Id fails the Gauss equation
    chart_spec = oracles.structure_from_strings(
        geo.Chart(("u1", "u2"), ((-0.5, 0.5), (-0.5, 0.5)), (0.0, 0.0)),
        g=[["1", "0"], ["0", "1"]],
        S=[["0", "0"], ["0", "0"]],
        f=[["1", "0"], ["0", "1"]],
        U=["0", "0"],
        lam="-1",
    )
    with pytest.raises(st.InadmissibleStructureError):
        rc.validate_theorem(chart_spec, chart_spec.chart.grid(3))


def test_reconstruction_matches_ground_truth(catalog_structures):
    h, spec = catalog_structures["diagonal_cylinder"]
    points = spec.chart.grid(3)
    _, rebuilt = rc.immerse(spec, points)
    reference = am.hypersurface_samples(h, points)
    cong = am.solve_congruence(rebuilt, reference, h.k)
    assert cong.congruent
    assert cong.sup_residual < 1e-9


def test_uniqueness_under_frame_shuffle(catalog_structures, rng):
    _, spec = catalog_structures["diagonal_cylinder"]
    points = spec.chart.grid(3)
    imm1, s1 = rc.immerse(spec, points)
    E0 = oracles.randomize_frame(imm1.base_frame, imm1.k, rng)
    _, s2 = rc.immerse(spec, points, base_frame=E0)
    cong = am.solve_congruence(s1, s2, imm1.k)
    assert cong.congruent
    assert cong.sup_residual < 1e-6
    assert cong.block_residual < 1e-8
    assert cong.orthogonality_residual < 1e-8


def test_uniqueness_under_base_change(catalog_structures):
    _, spec = catalog_structures["diagonal_cylinder"]
    points = spec.chart.grid(3)
    _, s1 = rc.immerse(spec, points)
    _, s2 = rc.immerse(spec, points, base=(0.3, 0.25))
    cong = am.solve_congruence(s1, s2, 1)
    assert cong.congruent
    assert cong.sup_residual < 1e-6


def test_determinism_across_grid_densities(catalog_structures):
    _, spec = catalog_structures["diagonal_cylinder"]
    coarse_pts = spec.chart.grid(2)
    fine_pts = spec.chart.grid(4)
    imm_a, coarse = rc.immerse(spec, coarse_pts)
    imm_b, fine = rc.immerse(spec, fine_pts)
    fine_by_point = {tuple(p): j for j, p in enumerate(fine.points)}
    shared = 0
    for j, p in enumerate(coarse.points):
        match = fine_by_point.get(tuple(p))
        if match is not None:
            shared += 1
            assert np.abs(coarse.psi[j] - fine.psi[match]).max() < 1e-9
    assert shared == len(coarse)


def test_pushforward_matches_position_finite_differences(catalog_structures):
    _, spec = catalog_structures["perturbed_geodesic"]
    imm = rc.Immersion(spec)
    point = (0.35,)
    s = imm.sample(point)
    h = 1e-5
    fd = (imm.sample((point[0] + h,)).psi
          - imm.sample((point[0] - h,)).psi) / (2 * h)
    assert np.abs(fd - s.dpsi[:, 0]).max() < 1e-8


@pytest.mark.parametrize("name,density", [
    ("perturbed_geodesic", 5),
    ("diagonal_geodesic", 5),
    ("diagonal_cylinder", 3),
])
def test_shape_check_does_not_carry_transport_error(name, density,
                                                    catalog_structures):
    # the normals are differentiated off each grid frame along +-h, so
    # a coarser transport step must not move the finite difference
    _, spec = catalog_structures[name]
    coarse, fine = (rc.validate_theorem(spec, spec.chart.grid(density), step=s)
                    .residuals["shape_operator"] for s in (1e-2, 1e-3))
    assert max(coarse / fine, fine / coarse) <= 1.05


def test_frame_table_matches_uncached_transport(catalog_structures,
                                                mixed_structures,
                                                monkeypatch):
    # the samples span several chunks; psi is read off row n + 1 on the
    # k + 1 sphere slots and off row n + 2 on the rest, 2 + 4 and 4 + 2 of
    # the 6 slots for the mixed members with k = 1 and k = 3
    monkeypatch.setattr(geo, "GRID_CHUNK", 4)
    for spec, density in ((catalog_structures["diagonal_cylinder"][1], 3),
                          (mixed_structures["mixed_s1h3"][1], 2),
                          (mixed_structures["mixed_s3h1"][1], 2)):
        points = spec.chart.grid(density)
        imm = rc.Immersion(spec, step=1e-2)
        samples = imm.samples(points)
        for j, p in enumerate(points):
            reference = oracles.transport(
                imm.conn, bd.staircase_path(imm.base, p), M=imm.base_frame,
                step=1e-2)
            assert np.array_equal(imm.frames[tuple(map(float, p))],
                                  reference)
            one = imm.sample(p)
            expected = oracles.sample_from_frame(spec, p, reference, imm.k)
            for field, ref in zip(("psi", "normal", "dpsi"), expected):
                assert np.abs(getattr(one, field)
                              - getattr(samples, field)[j]).max() <= 1e-15
                assert np.abs(getattr(samples, field)[j]
                              - ref).max() <= 1e-15


def test_samples_in_the_frame_table_evaluate_no_christoffels(
        catalog_structures, monkeypatch):
    # the read-off needs g alone, and the frames are already transported
    _, spec = catalog_structures["geodesic_slice_n3"]
    points = spec.chart.grid(3)
    imm = rc.Immersion(spec, step=1e-2)
    first = imm.samples(points)
    calls = []
    original = geo.christoffels_from_values
    monkeypatch.setattr(geo, "christoffels_from_values",
                        lambda *args: calls.append(1) or original(*args))
    again = imm.samples(points)
    assert calls == []
    for field in ("psi", "normal", "dpsi"):
        assert np.array_equal(getattr(again, field), getattr(first, field))


def test_validation_walks_staircases_to_grid_points_only(catalog_structures,
                                                        monkeypatch):
    _, spec = catalog_structures["diagonal_cylinder"]
    points = spec.chart.grid(3)
    ends = []
    original = bd.staircase_path

    def recording(p0, p1):
        ends.append(tuple(map(float, p1)))
        return original(p0, p1)

    monkeypatch.setattr(bd, "staircase_path", recording)
    rc.validate_theorem(spec, points, step=1e-2)
    assert ends
    assert set(ends) <= ({tuple(map(float, p)) for p in points}
                         | {spec.chart.base_point})


def test_validation_admits_the_sample_points(catalog_structures):
    _, spec = catalog_structures["diagonal_cylinder"]
    points = spec.chart.grid(3)
    report = rc.validate_theorem(spec, points, step=1e-2)
    assert len(report.admission.usable) == len(points)


def _count_field_calls(monkeypatch):
    calls = []
    original = st.StructureSpec.connection_data_batch

    def counting(self, points):
        calls.append(len(points))
        return original(self, points)

    monkeypatch.setattr(st.StructureSpec, "connection_data_batch", counting)
    return calls


def test_immerse_shares_stage_calls_across_segments(catalog_structures,
                                                    monkeypatch):
    _, spec = catalog_structures["geodesic_slice_n3"]
    points = spec.chart.grid(2)
    step = 0.008
    corners = {}            # staircase corner -> the corner before it
    for p in points:
        path = bd.staircase_path(spec.chart.base_point, p)
        corners.update(zip(path[1:], path[:-1]))
    steps = [int(np.ceil(np.linalg.norm(np.subtract(b, a)) / step))
             for b, a in corners.items()]
    # a block of c steps has 2 c + 1 stage points
    rows = sum(2 * s + -(-s // bd.STAGE_BLOCK) for s in steps)
    calls = _count_field_calls(monkeypatch)
    rc.immerse(spec, points, step=step)
    assert len(corners) == 14           # one stage call each, unbatched
    # the read-off evaluates g alone, so every call is a stage call
    assert len(calls) <= -(-rows // geo.GRID_CHUNK)
    assert max(calls) <= geo.GRID_CHUNK


def test_shape_check_field_calls_do_not_grow_with_the_grid(catalog_structures,
                                                          monkeypatch):
    _, spec = catalog_structures["diagonal_cylinder"]
    calls = _count_field_calls(monkeypatch)
    rows = []               # the rows of each field call of the shape check
    for density in (2, 4):
        points = spec.chart.grid(density)
        admission = st.admit(spec, grid=points)
        calls.clear()
        rc.immerse(spec, points, step=1e-2)
        fill = list(calls)
        calls.clear()
        rc.validate_theorem(spec, points, step=1e-2, admission=admission)
        assert calls[:len(fill)] == fill
        rows.append(calls[len(fill):])
    # one stage call, at 4 and at 16 points: each of the 2 n P = 4 P +-h
    # segments takes one RK4 step of 3 stage points.  The normals at the
    # segment ends are read off their frames, so no call evaluates g at
    # those 4 P points
    assert rows == [[3 * 4 * 4], [3 * 4 * 16]]


ORACLE_GRID = {1: 5, 2: 3, 3: 2}


@pytest.mark.parametrize("chunk", [geo.GRID_CHUNK, 3])
@pytest.mark.parametrize("name", [*am.catalog_names(), "mixed_s1h3",
                                  "mixed_s3h1"])
def test_array_checks_match_per_sample_oracle(name, chunk, catalog_structures,
                                              mixed_structures, monkeypatch):
    # theorem residuals, congruence sup and sheet flag, bit for bit, with
    # the samples in one chunk and spread over several
    h, spec = {**catalog_structures, **mixed_structures}[name]
    monkeypatch.setattr(geo, "GRID_CHUNK", chunk)
    points = spec.chart.grid(ORACLE_GRID[spec.n])
    report = rc.validate_theorem(spec, points, step=1e-2)
    imm, rebuilt = rc.immerse(spec, points, step=1e-2, k=report.k)
    expected = oracles.theorem_residuals(imm, report.samples)
    assert list(report.samples.residuals) == list(expected)
    for key, values in expected.items():
        assert np.array_equal(report.samples.residuals[key], values), key
    reference = am.hypersurface_samples(h, points)
    cong = am.solve_congruence(rebuilt, reference, report.k)
    ref = oracles.congruence(rebuilt, reference, report.k)
    assert np.array_equal(cong.matrix, ref["matrix"])
    assert np.array_equal(cong.residuals, ref["residuals"])
    assert cong.sup_residual == ref["sup"]
    assert cong.preserves_sheet is ref["preserves_sheet"]


@pytest.mark.parametrize("n,k", [(3, 1), (3, 2), (3, 3), (4, 2)])
def test_mixed_family_is_ground_truth_for_every_k(n, k):
    """Each member lies on the model with S and U nonzero, is admitted with
    its k, validates and rebuilds to a congruent copy."""
    h = oracles.mixed_family(n, k)
    assert h.check_on_model(grid_density=3) < 1e-12
    spec = am.extract_structure(h)
    admission = st.admit(spec, grid_density=3)
    assert admission.admissible and admission.k == k, admission.reasons
    ev = spec.eval_batch(h.chart.grid(3))
    assert np.abs(ev.S).max() > 0.1 and np.abs(ev.U).max() > 0.1
    points = h.chart.grid(2)
    report = rc.validate_theorem(spec, points, step=0.008)
    assert report.valid, report.to_dict()
    cong = am.solve_congruence(report.samples,
                               am.hypersurface_samples(h, points), k)
    assert cong.congruent and cong.sup_residual < 1e-9


def test_validation_at_box_corners_skips_the_shape_check(catalog_structures):
    # no +-h segment fits at the ends of a 1-dimensional chart
    _, spec = catalog_structures["diagonal_geodesic"]
    report = rc.validate_theorem(spec, [(-1.0,), (1.0,)], step=1e-2)
    assert report.valid, report.to_dict()
    assert report.residuals["shape_operator"] == 0.0


def test_congruence_verdict_reads_its_tolerance(catalog_structures):
    h, spec = catalog_structures["geodesic_slice"]
    points = spec.chart.grid(2)
    _, rebuilt = rc.immerse(spec, points)
    reference = am.hypersurface_samples(h, points)
    assert am.solve_congruence(rebuilt, reference, h.k).congruent
    assert not am.solve_congruence(rebuilt, reference, h.k,
                                   tol=1e-20).congruent


@pytest.mark.parametrize("name", ["geodesic_slice", "geodesic_slice_n3",
                                  "diagonal_geodesic"])
def test_empty_point_sets_give_empty_samples(name, catalog_structures):
    """Every sweep over a point set also takes an empty one: no samples, no
    usable grid point, zero sups."""
    h, spec = catalog_structures[name]
    n = spec.n
    imm, immersed = rc.immerse(spec, points=[], step=1e-2)
    for samples in (immersed, imm.samples([]), am.hypersurface_samples(h, [])):
        assert len(samples) == 0
        assert samples.points.shape == (0, n)
        assert samples.psi.shape == samples.normal.shape == (0, n + 3)
        assert samples.dpsi.shape == (0, n + 3, n)
    report = st.admit(spec, grid=[])
    assert not report.admissible and report.k is None
    assert report.reasons == ["no usable grid points"]
    assert report.residuals == dict.fromkeys(st.RESIDUAL_KEYS, 0.0)
    assert report.usable.shape == (0,)
    assert all(col.shape == (0,) for col in report.values.values())
    assert am.audit_equations(spec, grid=[]).residuals == dict.fromkeys(
        ("gauss_f_outside", "gauss_f_paired", "codazzi_plus",
         "codazzi_minus"), 0.0)
    assert h.check_on_model(grid=[]) == 0.0


# entry point -> its call on a hypersurface, its structure and a point set
POINT_SET_ENTRY_POINTS = {
    "admit": lambda h, spec, pts: st.admit(spec, grid=pts),
    "check_on_model": lambda h, spec, pts: h.check_on_model(grid=pts),
    "audit_equations": lambda h, spec, pts: am.audit_equations(
        spec, grid=pts),
    "hypersurface_samples": lambda h, spec, pts: am.hypersurface_samples(
        h, pts),
    "immerse": lambda h, spec, pts: rc.immerse(spec, pts, step=1e-2),
    "Immersion.samples": lambda h, spec, pts: rc.Immersion(
        spec, step=1e-2).samples(pts),
    "validate_theorem": lambda h, spec, pts: rc.validate_theorem(
        spec, pts, step=1e-2),
}
# point sets that are not (P, 2) -> the end of the error message; None,
# which is no point set, takes the chart grid
POINT_SETS = {
    "none": (None, None),
    "three_coordinates": ([(0.1, 0.2, 0.3), (0.4, 0.5, 0.6)],
                          ", got shape (2, 3)"),
    "one_flat_point": ([0.1, 0.2], ", got shape (2,)"),
    "ragged": ([(0.1, 0.2), (0.3,)], ": setting an array element"),
}


@pytest.mark.parametrize("points", sorted(POINT_SETS))
@pytest.mark.parametrize("entry", sorted(POINT_SET_ENTRY_POINTS))
def test_wrong_point_sets_raise_the_point_set_error(
        entry, points, catalog_structures, monkeypatch):
    """No entry point reads points of another dimension as other points,
    and with no points each sweeps the chart grid."""
    h, spec = catalog_structures["geodesic_slice"]
    pts, tail = POINT_SETS[points]
    if pts is None:
        monkeypatch.setattr(geo, "default_grid", lambda n: 2)
        swept, chunk_arrays = [], geo.chunk_arrays
        monkeypatch.setattr(geo, "chunk_arrays", lambda fn, sweep: (
            swept.append(sweep) or chunk_arrays(fn, sweep)))
        POINT_SET_ENTRY_POINTS[entry](h, spec, None)
        grid = spec.chart.grid()
        assert len(grid) == 4 and swept
        assert all(np.array_equal(sweep, grid) for sweep in swept)
        return
    with pytest.raises(geo.PointSetError) as err:
        POINT_SET_ENTRY_POINTS[entry](h, spec, pts)
    message = str(err.value)
    assert message.startswith(
        "points must have shape (P, 2) in a chart of dimension 2")
    assert tail in message


@pytest.mark.parametrize("entry", ["immerse", "Immersion.samples",
                                   "validate_theorem"])
def test_points_outside_the_chart_box_raise_the_point_set_error(
        entry, catalog_structures):
    """Reconstruction refuses a point outside the box, where the fields
    may not hold and no step cap bounds the transport, and names it."""
    h, spec = catalog_structures["geodesic_slice"]
    with pytest.raises(geo.PointSetError) as err:
        POINT_SET_ENTRY_POINTS[entry](h, spec, [(0.5, 0.0), (0.95, 0.0)])
    assert str(err.value) == ("point (0.95, 0.0) lies outside the chart box "
                              "[[-0.9, 0.9], [-0.9, 0.9]]")


def test_a_nan_residual_fails_validation():
    report = rc.TheoremReport(
        k=1, residuals={"quadric": float("nan"), "isometry": 0.0},
        tolerances={"quadric": 1e-7, "isometry": 1e-6}, samples=None,
        admission=None)
    assert report.failing() == ["quadric"]
    assert not report.valid
