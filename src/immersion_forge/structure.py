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

Each vector identity is a stack of defect vectors, the vector index last,
and its residual the largest g-norm over the stack's index tuples; Gauss
and Codazzi are antisymmetric in (X, Y), so they are taken on the pairs
i < j alone.  A residual that is not a number fails admission.
"""

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

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
    """All structure data, from exact derivatives, at one point or at a
    batch of points along a leading axis (see ``geometry.point_of``)."""

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
        return geo.matvec(self.calc.g, self.U)


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

    def eval_batch(self, points):
        """StructureEval of the points (P, n) along a leading axis; raises
        SingularMetricError naming the first point with a singular metric."""
        v = self._full_evaluator(points)
        geo.check_positive_definite(v["g"], points)
        return self._eval_from_values(v)

    def _eval_from_values(self, v):
        """StructureEval from the evaluator's values ``v`` (consumed), at
        points where g is positive definite."""
        calc = geo.calculus_from_values(v.pop("g"), v.pop("dg"), v.pop("ddg"))
        return StructureEval(calc=calc, **v)

    def eval_at(self, point):
        return geo.point_of(self.eval_batch([point]), 0)

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
# pointwise checks: each takes the StructureEval of one point, or of a batch
# of points along a leading axis, and returns values of the same shape


def _sup_gnorm(v, g):
    """The largest g-norm among the vectors v[..., a], over every index-tuple
    axis between the point axes of g and the vector index; 0 when there are
    none."""
    points, n = g.shape[:-2], v.shape[-1]
    # the tuples are counted, not inferred: a stack may have none
    v = v.reshape(points + (math.prod(v.shape[len(points):-1]), n))
    norms = np.einsum("...a,...ab,...b->...", v, g[..., None, :, :], v)
    return np.sqrt(np.maximum(0.0, norms)).max(-1, initial=0.0)


def check_algebraic(ev):
    """Residuals of the algebraic identities."""
    g, f, S, U, u = ev.g, ev.f, ev.S, ev.U, ev.u
    lam = np.asarray(ev.lam)
    ginv = ev.calc.ginv
    fT, ST = np.swapaxes(f, -1, -2), np.swapaxes(S, -1, -2)
    ff_defect = f @ f - np.eye(U.shape[-1]) + U[..., :, None] * u[..., None, :]
    # each defect matrix is measured by its columns; f and S symmetric: the
    # defect has a lowered output index, so in the dual metric
    return {
        "f_symmetric": _sup_gnorm(np.swapaxes(fT @ g - g @ f, -1, -2), ginv),
        "S_symmetric": _sup_gnorm(np.swapaxes(ST @ g - g @ S, -1, -2), ginv),
        "f_squared": _sup_gnorm(np.swapaxes(ff_defect, -1, -2), g),
        "fU": _sup_gnorm(geo.matvec(f, U) + lam[..., None] * U, g),
        "unit": np.abs(geo.dot(u, U) + lam * lam - 1.0),
    }


def _wedges(A, B, i, j):
    """W[..., a, p, k] = B[k, j] A[a, i] - B[k, i] A[a, j] at the pairs
    (i, j) = (i[p], j[p]): the wedge (A_i ^ A_j) e_k for B = g A, of
    columns A_i."""
    return (np.einsum("...kp,...ap->...apk", B[..., j], A[..., i])
            - np.einsum("...kp,...ap->...apk", B[..., i], A[..., j]))


def check_gauss(ev, paired=False):
    """Sup over the pairs i < j and over k of the Gauss-equation defect at
    (e_i, e_j, e_k), in g-norm; both sides are antisymmetric in (X, Y).

    The equation is R(X,Y)Z = (SX ^ SY)Z + (f((X^Y)Z) + (X^Y)fZ)/2; with
    ``paired`` the variant with (fX ^ fY)Z in place of f((X^Y)Z).
    """
    g, S, f = ev.g, ev.S, ev.f
    i, j = np.triu_indices(S.shape[-1], 1)
    gf = g @ f
    wSS = _wedges(S, g @ S, i, j)
    wIJf = _wedges(np.eye(S.shape[-1]), np.swapaxes(gf, -1, -2), i, j)
    wf = (_wedges(f, gf, i, j) if paired
          else _wedges(f, np.swapaxes(g, -1, -2), i, j))    # f((X^Y)Z)
    # R(e_i, e_j) e_k - rhs at [..., a, pair, k], in rhs's array: the vector
    # index keeps the largest stride, which fixes einsum's summation order
    rhs = wSS + 0.5 * (wf + wIJf)
    defect = np.subtract(ev.calc.riem[..., :, i, j, :], rhs, out=rhs)
    return _sup_gnorm(np.moveaxis(defect, -3, -1), g)


def check_codazzi(ev, sign=1.0):
    """Sup over basis pairs i < j of the Codazzi-equation defect, in g-norm.

    The equation is (nabla_X S)Y - (nabla_Y S)X = sign (u(X)Y - u(Y)X)/2.
    """
    i, j = np.triu_indices(ev.S.shape[-1], 1)
    nS = geo.covariant_derivatives(ev.S, ev.dS, ev.calc.gamma)
    eye, u = np.eye(ev.S.shape[-1]), ev.u
    # ((nabla_i S) e_j - (nabla_j S) e_i)^a and (u_i e_j - u_j e_i)^a / 2
    # at [..., pair, a]
    lhs = nS[..., i, j, :] - nS[..., j, i, :]
    rhs = 0.5 * (u[..., i, None] * eye[j] - u[..., j, None] * eye[i])
    return _sup_gnorm(lhs - sign * rhs, ev.g)


def check_gradients(ev):
    """Residuals of the covariant-derivative identities for f, U, lambda."""
    g, S, f, U, u, gamma = ev.g, ev.S, ev.f, ev.U, ev.u, ev.calc.gamma
    lam = np.asarray(ev.lam)
    gS = g @ S
    # (nabla_i f) e_j = u(e_j) S e_i + g(S e_i, e_j) U, at [..., i, j, a]
    nf = geo.covariant_derivatives(f, ev.df, gamma)
    rhs_f = (np.einsum("...j,...ai->...ija", u, S)
             + np.einsum("...ji,...a->...ija", gS, U))
    # nabla_i U = lam S e_i - f S e_i, at [..., i, a]
    nU = ev.dU + np.einsum("...aic,...c->...ia", gamma, U)
    rhs_U = np.swapaxes(lam[..., None, None] * S - f @ S, -1, -2)
    # d_i lambda = -2 g(S e_i, U)
    dlam = ev.dlam + 2.0 * np.einsum("...ai,...a->...i", gS, U)
    return {"grad_f": _sup_gnorm(nf - rhs_f, g),
            "grad_U": _sup_gnorm(nU - rhs_U, g),
            "grad_lambda": np.abs(dlam).max(-1)}


def trace_invariant(ev):
    """tr f + lambda; equals 2k - n - 1 for realizable structures."""
    return np.trace(ev.f, axis1=-2, axis2=-1) + ev.lam


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


def point_residuals(ev):
    """All pointwise compatibility residuals, keyed like RESIDUAL_KEYS."""
    alg = check_algebraic(ev)
    grads = check_gradients(ev)
    return {
        "C1_algebraic": np.max(list(alg.values()), axis=0),
        "C2_gauss": check_gauss(ev),
        "C3_codazzi": check_codazzi(ev),
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
    # not serialized: key -> (P,) point_residuals over the grid, in
    # RESIDUAL_KEYS[:-1] order, and the (P,) mask of the points not skipped
    values: dict = field(default_factory=dict)
    usable: np.ndarray = None

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


def admit(spec, grid=None, tol=DEFAULT_TOLERANCE, grid_density=None):
    """Run all compatibility checks over a grid and aggregate a verdict.

    The grid is evaluated in batches of ``geometry.GRID_CHUNK`` points;
    points where the metric is singular are skipped, and their rows of
    ``values`` hold NaN.
    """
    n = spec.n
    grid = (spec.chart.grid(grid_density) if grid is None
            else geo.as_points(grid, n))
    eye = np.eye(n)

    def evaluate(_, chunk):
        v = spec._full_evaluator(chunk)
        ok = geo.definite_points(v["g"])
        ev = spec._eval_from_values({name: arr[ok] for name, arr in v.items()})
        cols = {**point_residuals(ev), "trace": trace_invariant(ev),
                # the distance of f from +Id or -Id, whichever is nearer
                "f_deviation": np.minimum(np.abs(ev.f - eye).max((-2, -1)),
                                          np.abs(ev.f + eye).max((-2, -1)))}
        out = {"usable": ok}
        for key, col in cols.items():
            out[key] = np.full(len(chunk), np.nan)
            out[key][ok] = col
        return out

    values = geo.chunk_arrays(evaluate, grid)
    usable, traces, f_deviation = (values.pop(key) for key in
                                   ("usable", "trace", "f_deviation"))
    reasons = []
    skipped = [tuple(map(float, grid[i])) for i in np.flatnonzero(~usable)]
    if not usable.any():
        return CompatibilityReport(
            dict.fromkeys(RESIDUAL_KEYS, 0.0),
            dict.fromkeys(RESIDUAL_KEYS), None, tol, False,
            ["no usable grid points"], skipped, values, usable)

    k = None
    try:
        # a singular first point is reported by determine_k itself
        k = determine_k(spec, tuple(map(float, grid[0])), tol=max(tol, 1e-8))
    except (StructureError, SingularMetricError) as exc:
        reasons.append(str(exc))
    rows = np.flatnonzero(usable)
    traces = traces[rows]
    target = (2 * k - n - 1) if k is not None else float(np.mean(traces))

    # the first usable point attaining each sup, also when the sup is 0
    sup = {}
    worst = {}
    for key in RESIDUAL_KEYS:
        col = (values[key][rows] if key in values
               else np.abs(traces - target))
        at = int(np.argmax(col))
        sup[key] = float(col[at])
        worst[key] = tuple(map(float, grid[rows[at]]))

    if not np.any(f_deviation > tol):
        reasons.append("excluded case f = +/-Id")
    for key in RESIDUAL_KEYS:
        # a residual that is not a number fails too
        if not sup[key] <= tol:
            reasons.append(f"{key} residual {sup[key]:.3e} exceeds {tol:.1e}"
                           if sup[key] > tol else f"{key} residual is NaN")
    if skipped:
        reasons.append(f"{len(skipped)} grid points skipped (singular metric)")

    admissible = not reasons and k is not None
    return CompatibilityReport(sup, worst, k, tol, admissible, reasons, skipped,
                               values, usable)
