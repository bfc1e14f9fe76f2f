"""Minkowski model, extraction oracle, congruence, equation audit."""

import itertools
import time

import numpy as np
import oracles
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
    oracles.require_tangent(model, x, tangent)
    with pytest.raises(oracles.NotTangentError):
        oracles.require_tangent(model, x, x)
    with pytest.raises(am.NotOnModelError):
        oracles.require_tangent(model, 2.0 * x, tangent)
    with pytest.raises(oracles.NotTangentError):
        oracles.ambient_curvature(model, x, x, tangent, tangent)


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
        vals = np.array(fn([point])[0])
        return vals[:5], vals[5:].reshape(5, 3)

    return oracles.MetricField(chart, g), sample


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
                    got = oracles.ambient_curvature(
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
            out = oracles.ambient_connection(model, x, dy[:, i], dy[:, j],
                                             dY, tol=1e-8)
            assert model.tangency_residual(x, out) < 1e-8


# ---------------------------------------------------------------------------
# symbolic linear algebra


def test_sym_det_and_inverse_match_numpy(rng):
    for m in (1, 2, 3, 4):
        M = rng.standard_normal((m, m)) + 2.0 * np.eye(m)
        rows = [[ex.const(float(v)) for v in row] for row in M]
        idx = tuple(range(m))
        det = oracles.evaluate(am.sym_minor(rows, idx, idx, {}), {})
        assert det == pytest.approx(np.linalg.det(M), rel=1e-10)
        inv = am.sym_inverse(rows)
        inv_num = np.array([[oracles.evaluate(e, {}) for e in row]
                            for row in inv])
        assert np.abs(inv_num - np.linalg.inv(M)).max() < 1e-10


def _symbolic_matrix(m, rng):
    """An m x m matrix of expressions over u1, u2, u3 that is non-singular
    at u = (1, 1, 1), where it is a random M + 2I; about a third of its
    off-diagonal entries are zero and a third constants, so the expansion
    meets every folding rule of ``expr.add``, ``sub`` and ``mul``."""
    M = rng.standard_normal((m, m)) + 2.0 * np.eye(m)
    kind = rng.integers(0, 3, (m, m))
    rows = [[None] * m for _ in range(m)]
    for i in range(m):
        for j in range(m):
            if kind[i, j] == 0 and i != j:
                M[i, j] = 0.0
                rows[i][j] = ex.ZERO
            elif kind[i, j] == 1:
                rows[i][j] = ex.const(float(M[i, j]))
            else:
                u = ex.var(f"u{(i + j) % 3 + 1}")
                rows[i][j] = ex.mul(ex.const(float(M[i, j])), u)
    return rows, M


@pytest.mark.parametrize("m", range(1, 7))
def test_sym_minor_builds_the_reference_nodes(m):
    rng = np.random.default_rng(1800 + m)
    rows, M = _symbolic_matrix(m, rng)
    assert abs(np.linalg.det(M)) > 1e-3
    idx = tuple(range(m))
    det = am.sym_minor(rows, idx, idx, {})
    assert det is oracles.reference_sym_det(rows)
    inv = am.sym_inverse(rows)
    want = oracles.reference_sym_inverse(rows)
    assert all(a is b for row, wrow in zip(inv, want)
               for a, b in zip(row, wrow))
    ones = {"u1": 1.0, "u2": 1.0, "u3": 1.0}
    inv_num = np.array([[oracles.evaluate(e, ones) for e in row]
                        for row in inv])
    assert np.abs(inv_num - np.linalg.inv(M)).max() < 1e-9


# catalog entries, then the inputs beyond the catalog: slices up to n = 5
# (the reference takes about 0.2 s at n = 5, and doubles in time per n)
# and the two mixed k = 2 inputs
EXTRACTION_INPUTS = {
    **{name: (lambda name=name: am.catalog_entry(name))
       for name in am.catalog_names()},
    **{f"slice_n{n}": (lambda n=n: oracles.slice_hypersurface(n))
       for n in (2, 4, 5)},
    "mixed_s2h2": oracles.mixed_s2h2,
    "mixed_s2h3": oracles.mixed_s2h3,
}


@pytest.mark.parametrize("name", sorted(EXTRACTION_INPUTS))
def test_extraction_builds_the_reference_nodes(name):
    h = EXTRACTION_INPUTS[name]()
    assert all(a is b for a, b in zip(h.normal_exprs,
                                      oracles.reference_normal_exprs(h)))
    got = am.extract_structure(h)
    want = oracles.reference_extract_structure(h)
    for field in ("g", "S", "f", "U"):
        assert all(a is b for a, b in zip(getattr(got, field).flat,
                                          getattr(want, field).flat)), field
    assert got.lam is want.lam
    assert got.declared_k == want.declared_k == h.k


def test_normal_in_seven_dimensions_is_built_quickly():
    # one Laplace expansion per component took 9.8 s here; every minor
    # built once takes about 0.03 s
    h = oracles.slice_hypersurface(7)
    start = time.perf_counter()
    h.normal_exprs
    assert time.perf_counter() - start < 2.0


@pytest.mark.parametrize("n", [4, 5, 6, 7])
def test_slices_up_to_seven_dimensions_are_admissible(n):
    h = oracles.slice_hypersurface(n)
    spec = am.extract_structure(h)
    report = st.admit(spec, grid_density=2)
    assert report.admissible, report.reasons
    assert report.k == 1


@pytest.mark.parametrize("make", [oracles.mixed_s2h2, oracles.mixed_s2h3])
def test_mixed_inputs_mix_the_factors(make):
    """S and U do not vanish on the mixed k = 2 inputs, and the normal has
    a part in each factor, so lambda = <F nu, nu> is not +-1."""
    h = make()
    assert h.check_on_model(grid_density=3) < 1e-12
    spec = am.extract_structure(h)
    report = st.admit(spec, grid_density=3)
    assert report.admissible and report.k == 2
    ev = spec.eval_batch(h.chart.grid(2))
    assert np.abs(ev.S).max() > 0.1 and np.abs(ev.U).max() > 0.1
    assert np.abs(ev.lam).max() < 0.9


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
        samples = am.hypersurface_samples(h, h.chart.grid(2))
        for j in range(len(samples)):
            x, dx, nu = samples.psi[j], samples.dpsi[j], samples.normal[j]
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
    samples = am.hypersurface_samples(h, h.chart.grid(2))
    for j in range(len(samples)):
        point, x, dx, nu = (samples.points[j], samples.psi[j],
                            samples.dpsi[j], samples.normal[j])
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
    samples = am.hypersurface_samples(h, h.chart.grid(4))
    for j in range(len(samples)):
        dx = samples.dpsi[j]
        ev = spec.eval_at(samples.points[j])
        assert np.abs(dx.T @ J @ dx - ev.g).max() < 1e-12


def _sympy_derivatives(name):
    """A function of a point giving the catalog row's x, dx[a, i] = d_i x_a
    and d2x[a, i, j], and g with dg[i, j, l] = d_i g_jl and ddg[p, i, j, l]
    = d_p d_i g_jl, every derivative taken by sympy from the row's text."""
    sympy = pytest.importorskip("sympy")
    from sympy.parsing.sympy_parser import (convert_xor, parse_expr,
                                            standard_transformations)
    _, coords, _, _, x_text = am.CATALOG[name]
    u = [sympy.Symbol(c) for c in coords]
    x = [parse_expr(text, local_dict=dict(zip(coords, u)),
                    transformations=standard_transformations + (convert_xor,))
         for text in x_text]
    eta = [1] * (len(x) - 1) + [-1]
    dx = [[sympy.diff(xa, ui) for ui in u] for xa in x]
    d2x = [[[sympy.diff(dxa[i], uj) for uj in u] for i in range(len(u))]
           for dxa in dx]
    g = [[sum(e * dxa[i] * dxa[j] for e, dxa in zip(eta, dx))
          for j in range(len(u))] for i in range(len(u))]
    dg = [[[sympy.diff(gjl, ui) for gjl in gj] for gj in g] for ui in u]
    ddg = [[[[sympy.diff(dgijl, up) for dgijl in dgij] for dgij in dgi]
            for dgi in dg] for up in u]
    fn = sympy.lambdify(u, [x, dx, d2x, g, dg, ddg], "math")
    return lambda point: [np.array(v, dtype=float) for v in fn(*point)]


@pytest.mark.parametrize("name", am.CATALOG)
def test_extraction_matches_a_sympy_and_numpy_oracle(name):
    """The quintuple, Gamma and R of extraction against sympy derivatives
    and numpy linear algebra, with the index formulas written per component:
    Gamma^m_ij = g^ml (d_i g_jl + d_j g_il - d_l g_ij) / 2 and R^l_ijk =
    d_i Gamma^l_jk - d_j Gamma^l_ik + Gamma^l_im Gamma^m_jk
    - Gamma^l_jm Gamma^m_ik."""
    derivatives = _sympy_derivatives(name)
    h = am.catalog_entry(name)
    spec = am.extract_structure(h)
    n, d, k = h.n, h.n + 3, h.k
    J = np.diag([1.0] * (d - 1) + [-1.0])
    F = np.diag([1.0] * (k + 1) + [-1.0] * (d - k - 1))
    ids = range(n)
    grid = h.chart.grid(3)
    for point in grid[[0, len(grid) // 2, -1]]:
        x, dx, d2x, g, dg, ddg = derivatives(point)
        xi1 = np.where(np.arange(d) <= k, x, 0.0)
        xi2 = x - xi1
        # the unit normal: Minkowski-orthogonal to dx, xi1 and xi2, with
        # det(dx, nu, xi1, xi2) > 0
        nu = np.linalg.svd(np.column_stack([dx, xi1, xi2]).T @ J)[2][-1]
        nu /= np.sqrt(nu @ J @ nu)
        if np.linalg.det(np.column_stack([dx, nu, xi1, xi2])) < 0:
            nu = -nu
        ginv = np.linalg.inv(g)
        want = {"g": g,
                "S": ginv @ np.einsum("aij,a->ij", d2x, J @ nu),
                "f": ginv @ dx.T @ J @ F @ dx,
                "U": ginv @ dx.T @ J @ F @ nu,
                "lam": nu @ J @ F @ nu}
        gamma = np.zeros((n, n, n))
        dgamma = np.zeros((n, n, n, n))
        for m, i, j, l in itertools.product(ids, repeat=4):
            gamma[m, i, j] += 0.5 * ginv[m, l] * (
                dg[i, j, l] + dg[j, i, l] - dg[l, i, j])
        for p, m, i, j, l in itertools.product(ids, repeat=5):
            dginv = -sum(ginv[m, a] * dg[p, a, b] * ginv[b, l]
                         for a, b in itertools.product(ids, repeat=2))
            dgamma[p, m, i, j] += 0.5 * (
                dginv * (dg[i, j, l] + dg[j, i, l] - dg[l, i, j])
                + ginv[m, l] * (ddg[p, i, j, l] + ddg[p, j, i, l]
                                - ddg[p, l, i, j]))
        riem = np.zeros((n, n, n, n))
        for l, i, j, kk in itertools.product(ids, repeat=4):
            riem[l, i, j, kk] = (
                dgamma[i, l, j, kk] - dgamma[j, l, i, kk]
                + sum(gamma[l, i, m] * gamma[m, j, kk]
                      - gamma[l, j, m] * gamma[m, i, kk] for m in ids))
        ev = spec.eval_at(point)
        got = {"g": ev.g, "S": ev.S, "f": ev.f, "U": ev.U, "lam": ev.lam}
        for key, val in want.items():
            assert np.abs(got[key] - val).max() < 1e-14, key
        assert np.abs(ev.gamma - gamma).max() < 1e-14
        pairs = np.triu_indices(n, 1)
        assert np.abs(ev.riem - riem[:, pairs[0], pairs[1], :]).max(
            initial=0.0) < 1e-14
        reference = oracles.reference_calculus_at(spec, point)
        assert np.abs(reference.riem - riem).max() < 1e-14


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
    moved = type(samples)(points=samples.points,
                          psi=(phi0 @ samples.psi[..., None])[..., 0],
                          normal=(phi0 @ samples.normal[..., None])[..., 0],
                          dpsi=phi0 @ samples.dpsi)
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


def test_solve_congruence_puts_a_nan_image_on_no_sheet(catalog_structures):
    h, _ = catalog_structures["diagonal_cylinder"]
    samples = am.hypersurface_samples(h, h.chart.grid(3))
    psi = samples.psi.copy()
    psi[-1] = np.nan
    broken = type(samples)(points=samples.points, psi=psi,
                           normal=samples.normal, dpsi=samples.dpsi)
    cong = am.solve_congruence(broken, samples, h.k)
    assert cong.preserves_sheet is False
    assert not cong.congruent


# ---------------------------------------------------------------------------
# equation audit


def test_audit_separates_gauss_variants(catalog_structures):
    h, spec = catalog_structures["geodesic_slice"]
    report = am.audit_equations(spec, h.chart.grid(3))
    assert report.residuals["gauss_f_outside"] < 1e-8
    assert report.residuals["gauss_f_paired"] > 0.1
    assert report.surviving("gauss") == ["f_outside"]
    # with U = 0 both Codazzi signs degenerate to the same equation
    assert report.to_dict()["codazzi_indistinguishable"]


def test_audit_separates_codazzi_signs(catalog_structures):
    h, spec = catalog_structures["diagonal_cylinder"]
    report = am.audit_equations(spec, h.chart.grid(3))
    assert report.residuals["codazzi_plus"] < 1e-8
    assert report.residuals["codazzi_minus"] > 0.1
    assert report.surviving("codazzi") == ["plus"]
    assert not report.to_dict()["codazzi_indistinguishable"]


@pytest.mark.parametrize("name", am.catalog_names())
def test_audit_uses_the_admission_equations(name, catalog_structures):
    h, spec = catalog_structures[name]
    audit = am.audit_equations(spec, h.chart.grid(3))
    report = st.admit(spec, grid_density=3)
    assert audit.residuals["gauss_f_outside"] == report.residuals["C2_gauss"]
    assert audit.residuals["codazzi_plus"] == report.residuals["C3_codazzi"]


def test_catalog_aliases():
    assert am.catalog_entry("tilted_slice").name == "diagonal_cylinder"
    with pytest.raises(am.AmbientError, match="unknown catalog entry") as err:
        am.catalog_entry("nope")
    # the message lists every accepted name, the aliases included
    known = sorted([*am.catalog_names(), "tilted_slice"])
    assert str(err.value).endswith(f"; known: {known}")


# ---------------------------------------------------------------------------
# batched audit and on-model check against the per-point loops


@pytest.mark.parametrize("chunk", [None, 7])
@pytest.mark.parametrize("name", am.catalog_names() + [
    "mixed_s2h2", "mixed_s2h2_S1.1", "mixed_s2h3"])
def test_batched_audit_matches_per_point_oracle(
        name, chunk, catalog_structures, mixed_structures, monkeypatch):
    if chunk:
        monkeypatch.setattr(geo, "GRID_CHUNK", chunk)
    h, spec = {**catalog_structures, **mixed_structures}[name]
    grid = h.chart.grid(5 if h.n < 3 else 3)
    audit = am.audit_equations(spec, grid=grid)
    for key, val in oracles.audit(spec, grid).items():
        assert abs(audit.residuals[key] - val) <= 1e-14


LINE_CHART = geo.Chart(("u1",), ((-0.5, 0.5),), (0.0,))
LINE_GRID = LINE_CHART.grid(9)      # -0.49, -0.3675, ..., 0.49
M = "((u1 + 0.49)/0.1225)"          # the index m of a point of LINE_GRID
ON_MODEL_DEFECTS = {
    # c1 grows like 2e-12 exp(40 u1): off the model from index 5 on
    "off_model": (("cos(u1) + 1e-12*exp(40*u1)", "sin(u1)", "sinh(u1)",
                   "cosh(u1)"), 5, "not on model at"),
    # the timelike coordinate flips sign at the grid points where
    # m(m-1)(m-2)/6 is odd, the first being m = 3
    "lower_sheet": (("cos(u1)", "sin(u1)", "sinh(u1)",
                     f"cosh(u1)*cos(pi*{M}*({M} - 1)*({M} - 2)/6)"), 3,
                    "lower hyperboloid sheet at"),
    # both at m = 5, the first point where m(m-1)...(m-4)/120 is odd: the
    # residual is tested first
    "off_model_on_lower_sheet": (
        ("cos(u1) + 1e-12*exp(40*u1)", "sin(u1)", "sinh(u1)",
         f"cosh(u1)*cos(pi*{M}*({M} - 1)*({M} - 2)*({M} - 3)*({M} - 4)/120)"),
        5, "not on model at"),
    # d/du1 of u1^3 vanishes at the middle point u1 = 0
    "rank_defect": (("cos(u1^3)", "sin(u1^3)", "sinh(u1^3)", "cosh(u1^3)"), 4,
                    "jacobian rank defect at"),
}


@pytest.mark.parametrize("chunk", [None, 2])
@pytest.mark.parametrize("name", sorted(ON_MODEL_DEFECTS))
def test_batched_on_model_check_names_the_first_failing_point(
        name, chunk, monkeypatch):
    if chunk:
        monkeypatch.setattr(geo, "GRID_CHUNK", chunk)
    x, index, message = ON_MODEL_DEFECTS[name]
    h = am.ParametrizedHypersurface(LINE_CHART, x, k=1)
    with pytest.raises(am.NotOnModelError) as want:
        oracles.check_on_model(h, LINE_GRID)
    with pytest.raises(am.NotOnModelError) as got:
        h.check_on_model(grid=LINE_GRID)
    assert str(got.value) == str(want.value)
    assert str(got.value).startswith(
        f"{message} {tuple(map(float, LINE_GRID[index]))}")
    # passing points come first; the same check passes on them
    assert h.check_on_model(grid=LINE_GRID[:index]) < 1e-10
