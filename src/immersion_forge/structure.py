"""The structure quintuple (g, S, f, U, lambda) and its admission checks.

A structure is admissible when it satisfies, on a sample grid:

* the algebraic identities (f and S symmetric w.r.t. g, f^2 X = X - g(U,X)U,
  fU = -lambda U, g(U,U) + lambda^2 = 1),
* the Gauss equation R(X,Y)Z = (SX ^ SY)Z + (f((X^Y)Z) + (X^Y)fZ)/2,
* the Codazzi equation (nabla_X S)Y - (nabla_Y S)X = (u(X)Y - u(Y)X)/2,
* the derivative identities for f, U and lambda,

and the integer k read off from tr f + lambda = 2k - n - 1 is constant.
The case f = +/-Id everywhere is rejected (those structures immerse into a
single sphere or hyperbolic space instead of a genuine product).
"""

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import bundle as bd
from . import expr as ex
from . import geometry as geo
from .geometry import SingularMetricError

DEFAULT_TOLERANCE = 1e-8

RESIDUAL_KEYS = ("C1_algebraic", "C2_gauss", "C3_codazzi",
                 "C4_grad_f", "C5_grad_U", "C6_grad_lambda", "k_consistency")


class StructureError(Exception):
    pass


class InadmissibleStructureError(StructureError):
    pass


@dataclass
class StructureEval:
    """All structure data at one point, from exact derivatives."""

    point: tuple
    calc: geo.PointCalculus
    S: np.ndarray        # S^a_b
    dS: np.ndarray       # dS[p, a, b] = d_p S^a_b
    f: np.ndarray
    df: np.ndarray
    U: np.ndarray        # U^a
    dU: np.ndarray       # dU[p, a]
    lam: float
    dlam: np.ndarray

    @property
    def g(self):
        return self.calc.g

    @property
    def u(self):
        """Lowered U: u_i = g(U, d_i)."""
        return self.calc.g @ self.U

    def nabla_S(self, i):
        return geo.covariant_derivative_from_values(
            self.S, self.dS[i], self.calc.gamma, i)

    def nabla_f(self, i):
        return geo.covariant_derivative_from_values(
            self.f, self.df[i], self.calc.gamma, i)

    def nabla_U(self, i):
        return self.dU[i] + self.calc.gamma[:, i, :] @ self.U


class StructureSpec:
    """Expression-valued structure fields over a chart.

    ``S``, ``f`` are n x n object arrays of mixed (1,1) components, ``U`` a
    length-n object vector and ``lam`` a single expression.
    """

    def __init__(self, chart, g, S, f, U, lam, declared_k=None):
        self.chart = chart
        n = chart.n
        self.g = np.asarray(g, dtype=object)
        self.S = np.asarray(S, dtype=object)
        self.f = np.asarray(f, dtype=object)
        self.U = np.asarray(U, dtype=object)
        self.lam = lam
        self.declared_k = declared_k
        for name, arr, shape in (("g", self.g, (n, n)), ("S", self.S, (n, n)),
                                 ("f", self.f, (n, n)), ("U", self.U, (n,))):
            if arr.shape != shape:
                raise StructureError(f"field {name} must have shape {shape}")

    @property
    def n(self):
        return self.chart.n

    @classmethod
    def from_strings(cls, chart, g, S, f, U, lam, declared_k=None):
        coords = chart.coords
        return cls(
            chart,
            geo.expr_matrix(g, coords),
            geo.expr_matrix(S, coords),
            geo.expr_matrix(f, coords),
            np.array([ex.parse(t, coords) if not isinstance(t, ex.Expr) else t
                      for t in U], dtype=object),
            ex.parse(lam, coords) if not isinstance(lam, ex.Expr) else lam,
            declared_k,
        )

    @cached_property
    def _full_evaluator(self):
        """Compiled g, dg, ddg, S, dS, f, df, U, dU, lam, dlam."""
        coords = self.chart.coords
        dg = geo.derivatives(self.g, coords)
        blocks = [("g", self.g), ("dg", dg), ("ddg", geo.derivatives(dg, coords))]
        for name, arr in (("S", self.S), ("f", self.f), ("U", self.U),
                          ("lam", self.lam)):
            blocks += [(name, arr), ("d" + name, geo.derivatives(arr, coords))]
        return geo.compile_fields(blocks, coords)

    def eval_at(self, point):
        v = {name: arr[0] for name, arr in self._full_evaluator([point]).items()}
        calc = geo.calculus_from_values(point, v["g"], v["dg"], v["ddg"])
        return StructureEval(
            point=tuple(point), calc=calc,
            S=v["S"], dS=v["dS"], f=v["f"], df=v["df"],
            U=v["U"], dU=v["dU"],
            lam=float(v["lam"]), dlam=v["dlam"])

    @cached_property
    def _connection_evaluator(self):
        """Compiled fields entering the bundle connection."""
        coords = self.chart.coords
        return geo.compile_fields(
            [("g", self.g), ("dg", geo.derivatives(self.g, coords)),
             ("S", self.S), ("f", self.f), ("U", self.U)], coords)

    def connection_data_batch(self, points):
        """Stacked (g, gamma, S, f, u) at each of ``points``, shape (P, n)."""
        points = np.asarray(points, dtype=float)
        v = self._connection_evaluator(points)
        g = v["g"]
        geo.check_positive_definite(g, points)
        gamma = geo.christoffels_from_values(g, v["dg"])
        return g, gamma, v["S"], v["f"], np.einsum("pij,pj->pi", g, v["U"])

    def connection_data_at(self, point):
        """(g, gamma, S, f, u) needed to assemble connection coefficients."""
        return tuple(a[0] for a in self.connection_data_batch([point]))


# ---------------------------------------------------------------------------
# pointwise checks


def check_algebraic(spec, point, ev=None):
    """Residuals of the algebraic identities at a point."""
    ev = ev or spec.eval_at(point)
    g, f, S, U, lam = ev.g, ev.f, ev.S, ev.U, ev.lam
    calc = ev.calc
    n = spec.n
    res = {}
    res["f_symmetric"] = _operator_defect(f.T @ g - g @ f, calc)
    res["S_symmetric"] = _operator_defect(S.T @ g - g @ S, calc)
    ff_defect = f @ f - np.eye(n) + np.outer(U, ev.u)
    res["f_squared"] = max(calc.gnorm(ff_defect[:, j]) for j in range(n))
    res["fU"] = calc.gnorm(f @ U + lam * U)
    res["unit"] = abs(float(ev.u @ U) + lam * lam - 1.0)
    return res


def _operator_defect(M, calc):
    # M carries lowered output index; measure columns in the dual metric
    return max(float(np.sqrt(max(0.0, M[:, j] @ calc.ginv @ M[:, j])))
               for j in range(M.shape[1]))


def check_gauss(spec, point, ev=None, paired=False):
    """Sup over basis triples of the Gauss-equation defect, in g-norm.

    The equation is R(X,Y)Z = (SX ^ SY)Z + (f((X^Y)Z) + (X^Y)fZ)/2; with
    ``paired`` the variant with (fX ^ fY)Z in place of f((X^Y)Z).
    """
    ev = ev or spec.eval_at(point)
    n = spec.n
    if n == 1:
        return 0.0
    calc = ev.calc
    g, S, f = ev.g, ev.S, ev.f
    eye = np.eye(n)
    worst = 0.0
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(n):
                lhs = calc.riem[:, i, j, k]
                wSS = geo.wedge(S[:, i], S[:, j], eye[:, k], g)
                wIJf = geo.wedge(eye[:, i], eye[:, j], f[:, k], g)
                if paired:
                    wf = geo.wedge(f[:, i], f[:, j], eye[:, k], g)
                else:
                    wf = f @ geo.wedge(eye[:, i], eye[:, j], eye[:, k], g)
                rhs = wSS + 0.5 * (wf + wIJf)
                worst = max(worst, calc.gnorm(lhs - rhs))
    return worst


def check_codazzi(spec, point, ev=None, sign=1.0):
    """Sup over basis pairs of the Codazzi-equation defect, in g-norm.

    The equation is (nabla_X S)Y - (nabla_Y S)X = sign (u(X)Y - u(Y)X)/2.
    """
    ev = ev or spec.eval_at(point)
    n = spec.n
    if n == 1:
        return 0.0
    calc = ev.calc
    u = ev.u
    eye = np.eye(n)
    worst = 0.0
    nabla = [ev.nabla_S(i) for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            lhs = nabla[i][:, j] - nabla[j][:, i]
            rhs = 0.5 * (u[i] * eye[:, j] - u[j] * eye[:, i])
            worst = max(worst, calc.gnorm(lhs - sign * rhs))
    return worst


def check_gradients(spec, point, ev=None):
    """Residuals of the covariant-derivative identities for f, U, lambda."""
    ev = ev or spec.eval_at(point)
    n = spec.n
    calc = ev.calc
    g, S, f, U, lam, u = ev.g, ev.S, ev.f, ev.U, ev.lam, ev.u
    res_f = 0.0
    res_U = 0.0
    res_lam = 0.0
    for i in range(n):
        Si = S[:, i]
        gSi = g @ Si
        nf = ev.nabla_f(i)
        for j in range(n):
            rhs = u[j] * Si + gSi[j] * U
            res_f = max(res_f, calc.gnorm(nf[:, j] - rhs))
        res_U = max(res_U, calc.gnorm(ev.nabla_U(i) - (lam * Si - f @ Si)))
        res_lam = max(res_lam, abs(float(ev.dlam[i]) + 2.0 * float(gSi @ U)))
    return {"grad_f": res_f, "grad_U": res_U, "grad_lambda": res_lam}


def trace_invariant(ev):
    """tr f + lambda; equals 2k - n - 1 for realizable structures."""
    return float(np.trace(ev.f)) + ev.lam


def determine_k(spec, point, ev=None, tol=1e-8):
    """Factor dimension k from the trace identity tr f + lambda = 2k - n - 1."""
    ev = ev or spec.eval_at(point)
    n = spec.n
    raw = (trace_invariant(ev) + n + 1.0) / 2.0
    k = int(round(raw))
    if abs(raw - k) > tol:
        raise StructureError(f"k = {raw} is not an integer at {point}")
    if not 1 <= k <= n:
        raise StructureError(f"k = {k} out of range 1..{n} at {point}")
    if spec.declared_k is not None and k != spec.declared_k:
        raise StructureError(
            f"k mismatch: determined {k}, declared {spec.declared_k}")
    return k


def eigen_multiplicity_k(ev, tol=1e-8):
    """Independent route to k: +1 eigenvalue count of F on span(TM, xi)."""
    m = ev.S.shape[0] + 1
    V = bd.assemble_bundle_map(ev.f, ev.U, ev.u, ev.lam)[:m, :m]
    gram = bd.assemble_gram(ev.g)[:m, :m]
    L = np.linalg.cholesky(gram)
    M = L.T @ V @ np.linalg.inv(L.T)
    w = np.linalg.eigvalsh(0.5 * (M + M.T))
    plus = int(np.sum(w > 0.0))
    if np.any(np.abs(np.abs(w) - 1.0) > 1e-6):
        raise StructureError(f"F eigenvalues not +/-1: {w}")
    return plus


def point_residuals(spec, point, ev=None):
    """All pointwise compatibility residuals, keyed like RESIDUAL_KEYS."""
    ev = ev or spec.eval_at(point)
    alg = check_algebraic(spec, point, ev)
    grads = check_gradients(spec, point, ev)
    return {
        "C1_algebraic": max(alg.values()),
        "C2_gauss": check_gauss(spec, point, ev),
        "C3_codazzi": check_codazzi(spec, point, ev),
        "C4_grad_f": grads["grad_f"],
        "C5_grad_U": grads["grad_U"],
        "C6_grad_lambda": grads["grad_lambda"],
    }


@dataclass
class CompatibilityReport:
    residuals: dict                 # key -> sup residual
    worst_points: dict              # key -> point achieving the sup
    k: int | None
    tolerance: float
    admissible: bool
    reasons: list = field(default_factory=list)
    skipped_points: list = field(default_factory=list)
    # point_residuals of each grid point, None where skipped; not serialized
    per_point: list = field(default_factory=list)

    def to_dict(self):
        return {
            "residuals": {k: float(v) for k, v in self.residuals.items()},
            "worst_points": {k: list(map(float, v)) if v is not None else None
                             for k, v in self.worst_points.items()},
            "k": self.k,
            "tolerance": self.tolerance,
            "admissible": self.admissible,
            "reasons": list(self.reasons),
            "skipped_points": [list(map(float, p)) for p in self.skipped_points],
        }


def admit(spec, grid=None, tol=DEFAULT_TOLERANCE, grid_density=8):
    """Run all compatibility checks over a grid and aggregate a verdict."""
    if grid is None:
        grid = spec.chart.grid(grid_density)
    n = spec.n
    sup = {key: 0.0 for key in RESIDUAL_KEYS}
    worst = {key: None for key in RESIDUAL_KEYS}
    reasons = []
    skipped = []
    per_point = []
    traces = []             # (point, tr f + lambda) at each usable point
    f_identity_everywhere = True

    def record(key, val, point):
        # the first point attaining each sup, also when the sup is 0
        if worst[key] is None or val > sup[key]:
            sup[key] = val
            worst[key] = point

    for point in grid:
        try:
            ev = spec.eval_at(point)
        except SingularMetricError:
            skipped.append(point)
            per_point.append(None)
            continue
        per = point_residuals(spec, point, ev)
        per_point.append(per)
        traces.append((point, trace_invariant(ev)))
        if min(float(np.abs(ev.f - np.eye(n)).max()),
               float(np.abs(ev.f + np.eye(n)).max())) > tol:
            f_identity_everywhere = False
        for key, val in per.items():
            record(key, val, point)

    if not traces:
        return CompatibilityReport(sup, worst, None, tol, False,
                                   ["no usable grid points"], skipped,
                                   per_point)

    k = None
    try:
        k = determine_k(spec, grid[0], tol=max(tol, 1e-8))
    except (StructureError, SingularMetricError) as exc:
        reasons.append(str(exc))
    target = ((2 * k - n - 1) if k is not None
              else float(np.mean([t for _, t in traces])))
    for point, t in traces:
        record("k_consistency", abs(t - target), point)

    if f_identity_everywhere:
        reasons.append("excluded case f = +/-Id")
    for key in RESIDUAL_KEYS:
        if sup[key] > tol:
            reasons.append(f"{key} residual {sup[key]:.3e} exceeds {tol:.1e}")
    if skipped:
        reasons.append(f"{len(skipped)} grid points skipped (singular metric)")

    admissible = not reasons and k is not None
    return CompatibilityReport(sup, worst, k, tol, admissible, reasons, skipped,
                               per_point)
