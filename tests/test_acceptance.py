"""Acceptance gate: one test and one printed pass/fail line per criterion."""

import numpy as np
import oracles
import pytest

from immersion_forge import ambient as am
from immersion_forge import bundle as bd
from immersion_forge import expr as ex
from immersion_forge import reconstruct as rc
from immersion_forge import structure as st

from test_expr import CORPUS, COORDS, _random_points


def report(capsys, number, name, ok, detail):
    with capsys.disabled():
        status = "PASS" if ok else "FAIL"
        print(f"[{status}] criterion {number} ({name}): {detail}")
    assert ok, f"criterion {number} ({name}): {detail}"


def test_criterion_1_extraction_admission(capsys, catalog_structures):
    worst = 0.0
    which = None
    for name, (_, spec) in catalog_structures.items():
        rep = st.admit(spec)
        top = max(rep.residuals.values())
        if top > worst:
            worst, which = top, name
        if not rep.admissible:
            report(capsys, 1, "extraction admission", False,
                   f"{name} rejected: {rep.reasons}")
    report(capsys, 1, "extraction admission", worst < 1e-8,
           f"max residual {worst:.3e} ({which}) < 1e-8")


def test_criterion_2_flatness(capsys, catalog_structures):
    worst = 0.0
    for name, (_, spec) in catalog_structures.items():
        for point in spec.chart.grid(4):
            worst = max(worst, oracles.flatness_residual(spec, point))
    _, spec = catalog_structures["diagonal_cylinder"]
    mutant = oracles.scaled_shape_operator(spec, 2.0)
    mutant_res = max(oracles.flatness_residual(mutant, p)
                     for p in spec.chart.grid(4))
    ok = worst < 1e-8 and mutant_res > 1e-3
    report(capsys, 2, "flatness", ok,
           f"admissible sup {worst:.3e} < 1e-8; "
           f"S-doubled mutant {mutant_res:.3e} > 1e-3")


def test_criterion_3_transport_quality(capsys, catalog_structures):
    _, spec = catalog_structures["diagonal_cylinder"]
    conn = bd.ConnectionField(spec)
    p0, p1 = (-0.5, -0.4), (0.6, 0.5)
    path = bd.staircase_path(p0, p1)
    length = sum(np.linalg.norm(np.subtract(b, a))
                 for a, b in zip(path[:-1], path[1:]))
    drift = oracles.gram_drift(conn, path) / length
    M1 = oracles.transport(conn, path)
    M2 = oracles.transport(conn, [p0, (p0[0], p1[1]), p1])
    indep = float(np.abs(M1 - M2).max())
    loop = oracles.rectangle_loop((-0.5, -0.5), (0.5, 0.5))
    steps = [2e-2, 1e-2, 5e-3]
    defects = [oracles.holonomy_defect(conn, loop, step=s) for s in steps]
    slope = float(np.log(defects[0] / defects[2]) / np.log(steps[0] / steps[2]))
    ok = drift < 1e-9 and indep < 1e-6 and slope >= 3.0
    report(capsys, 3, "transport quality", ok,
           f"gram drift/length {drift:.3e} < 1e-9; path independence "
           f"{indep:.3e} < 1e-6; holonomy order {slope:.2f} >= 3")


@pytest.mark.parametrize("name,density", [
    ("geodesic_slice", 4),
    ("diagonal_geodesic", 8),
    ("diagonal_cylinder", 4),
])
def test_criterion_4_theorem_reconstruction(capsys, catalog_structures,
                                            name, density):
    _, spec = catalog_structures[name]
    rep = rc.validate_theorem(spec, grid_density=density)
    detail = ", ".join(f"{k} {v:.2e}" for k, v in rep.residuals.items())
    report(capsys, 4, f"reconstruction [{name}]", rep.valid, detail)


def test_criterion_5_uniqueness(capsys, catalog_structures, rng):
    _, spec = catalog_structures["diagonal_cylinder"]
    points = spec.chart.grid(3)
    imm1, s1 = rc.immerse(spec, points)
    E0 = oracles.randomize_frame(imm1.base_frame, imm1.k, rng)
    _, s2 = rc.immerse(spec, points, base_frame=E0)
    _, s3 = rc.immerse(spec, points, base=(0.3, 0.25))
    worst_sup = 0.0
    worst_inv = 0.0
    for other in (s2, s3):
        cong = am.solve_congruence(s1, other, imm1.k)
        worst_sup = max(worst_sup, cong.sup_residual)
        worst_inv = max(worst_inv, cong.block_residual,
                        cong.orthogonality_residual)
        if not cong.preserves_sheet:
            worst_inv = 1.0
    ok = worst_sup < 1e-6 and worst_inv < 1e-8
    report(capsys, 5, "uniqueness", ok,
           f"congruence sup {worst_sup:.3e} < 1e-6; "
           f"group invariants {worst_inv:.3e} < 1e-8")


def test_criterion_6_roundtrip(capsys, catalog_structures):
    worst = 0.0
    which = None
    for name, (h, spec) in catalog_structures.items():
        density = {1: 8, 2: 4, 3: 3}[spec.n]
        points = spec.chart.grid(density)
        admission = st.admit(spec, grid_density=density)
        assert admission.admissible, name
        _, rebuilt = rc.immerse(spec, points, k=admission.k)
        reference = am.hypersurface_samples(h, points)
        cong = am.solve_congruence(rebuilt, reference, admission.k)
        if cong.sup_residual > worst:
            worst, which = cong.sup_residual, name
        if not cong.congruent:
            report(capsys, 6, "roundtrip", False, f"{name} not congruent")
    report(capsys, 6, "roundtrip", worst < 1e-6,
           f"max congruence sup {worst:.3e} ({which}) < 1e-6")


def test_criterion_7_equation_audit(capsys, catalog_structures):
    h1, _ = catalog_structures["geodesic_slice"]
    a1 = am.audit_equations(h1, grid_density=4)
    h2, _ = catalog_structures["diagonal_cylinder"]
    a2 = am.audit_equations(h2, grid_density=4)
    r1, r2 = a1.residuals, a2.residuals
    ok = (r1["gauss_f_outside"] < 1e-8 and r1["gauss_f_paired"] > 0.1
          and r2["codazzi_plus"] < 1e-8 and r2["codazzi_minus"] > 0.1)
    report(capsys, 7, "equation audit", ok,
           f"Gauss f-outside {r1['gauss_f_outside']:.2e} < 1e-8, f-paired "
           f"{r1['gauss_f_paired']:.2e} > 0.1; Codazzi + "
           f"{r2['codazzi_plus']:.2e} < 1e-8 on U != 0, - "
           f"{r2['codazzi_minus']:.2e} > 0.1")


def test_criterion_8_k_determination(capsys, catalog_structures):
    worst = 0.0
    for name, (_, spec) in catalog_structures.items():
        traces = [st.trace_invariant(spec.eval_at(p))
                  for p in spec.chart.grid(4)]
        k = st.determine_k(spec, spec.chart.base_point)
        target = 2 * k - spec.n - 1
        worst = max(worst, max(abs(t - target) for t in traces))
    _, spec = catalog_structures["geodesic_slice"]
    wrong = st.StructureSpec(spec.chart, spec.g, spec.S, spec.f, spec.U,
                             spec.lam, declared_k=2)
    try:
        st.determine_k(wrong, wrong.chart.base_point)
        rejected = False
    except st.StructureError:
        rejected = True
    ok = worst < 1e-10 and rejected
    report(capsys, 8, "k determination", ok,
           f"trace drift {worst:.3e} < 1e-10; declared-k mismatch rejected: "
           f"{rejected}")


def test_criterion_9_expression_derivatives(capsys, rng):
    worst = 0.0
    h = 1e-5
    for text in CORPUS:
        e = ex.parse(text, COORDS)
        grads = [ex.diff(e, c) for c in COORDS]
        for point in _random_points(100, rng):
            env = dict(zip(COORDS, point))
            for axis, c in enumerate(COORDS):
                exact = oracles.evaluate(grads[axis], env)
                env_p = dict(env, **{c: point[axis] + h})
                env_m = dict(env, **{c: point[axis] - h})
                fd = (oracles.evaluate(e, env_p)
                      - oracles.evaluate(e, env_m)) / (2 * h)
                worst = max(worst, abs(fd - exact) / max(1.0, abs(exact)))
    report(capsys, 9, "expression engine", worst < 1e-6,
           f"max relative derivative error {worst:.3e} < 1e-6 "
           f"over {len(CORPUS)} expressions x 100 points")
