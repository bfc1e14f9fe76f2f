"""Chart-level tensor calculus from an expression-valued metric.

Index conventions used throughout the package:

* ``dg[i, j, k]``      is the coordinate derivative d_i g_jk,
* ``gamma[m, i, j]``   is Gamma^m_ij (upper index first),
* ``riem[l, i, j, k]`` are the components of R(d_i, d_j) d_k = R^l_ijk d_l
  with the sign convention R(X, Y) = [nabla_X, nabla_Y] - nabla_[X,Y].
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import expr as ex


class GeometryError(Exception):
    pass


class SingularMetricError(GeometryError):
    """Metric not positive definite at a sample point."""


@dataclass(frozen=True)
class Chart:
    """A single convex coordinate box with a distinguished base point."""

    coords: tuple
    box: tuple          # per-coordinate (lo, hi)
    base_point: tuple

    def __post_init__(self):
        n = len(self.coords)
        if n < 1:
            raise GeometryError("chart dimension must be >= 1")
        if len(self.box) != n or len(self.base_point) != n:
            raise GeometryError("box and base point must match dimension")
        for name in self.coords:
            if name in ex.NAMED_CONSTANTS or name in ex.FUNCTIONS:
                raise GeometryError(f"coordinate name {name!r} is reserved")
        for (lo, hi), p in zip(self.box, self.base_point):
            if not lo < hi:
                raise GeometryError("empty domain box interval")
            if not lo < p < hi:
                raise GeometryError("base point must be interior to the box")

    @property
    def n(self):
        return len(self.coords)

    def contains(self, point, slack=1e-12):
        """True for a point of the chart's dimension inside the box."""
        return len(point) == self.n and all(
            lo - slack <= p <= hi + slack
            for (lo, hi), p in zip(self.box, point))

    def axis_values(self, density=8, margin=0.01):
        """Uniform per-axis sample values, shrunk from the box boundary."""
        if density < 2:
            raise GeometryError("grid density must be >= 2")
        values = []
        for lo, hi in self.box:
            pad = margin * (hi - lo)
            values.append(np.linspace(lo + pad, hi - pad, density))
        return values

    def grid(self, density=8, margin=0.01):
        """Uniform grid over the (slightly shrunk) box, row-major order."""
        axes = self.axis_values(density, margin)
        mesh = np.meshgrid(*axes, indexing="ij")
        return [tuple(float(m[idx]) for m in mesh)
                for idx in np.ndindex(*mesh[0].shape)]


def expr_matrix(rows, coords):
    """Parse a nested list of expression strings into an object array."""
    arr = np.empty((len(rows), len(rows[0])), dtype=object)
    for i, row in enumerate(rows):
        for j, text in enumerate(row):
            arr[i, j] = text if isinstance(text, ex.Expr) else ex.parse(text, coords)
    return arr


def derivatives(arr, coords):
    """d[p, ...] = d_p arr[...] for each coordinate name in ``coords``."""
    arr = np.asarray(arr, dtype=object)
    out = np.empty((len(coords),) + arr.shape, dtype=object)
    for p, name in enumerate(coords):
        for idx in np.ndindex(arr.shape):
            out[(p, *idx)] = ex.diff(arr[idx], name)
    return out


def compile_fields(fields, coords):
    """Compile named blocks of expressions into one field evaluator.

    ``fields`` is a sequence of (name, object array) pairs, compiled with a
    single ``compile_exprs`` call.  The evaluator maps points of shape
    (P, n) to {name: array of shape (P, *block shape)}.
    """
    blocks = [(name, np.asarray(arr, dtype=object)) for name, arr in fields]
    fn = ex.compile_exprs([e for _, arr in blocks for e in arr.ravel()], coords)

    def evaluate(points):
        vals = fn.batch(points)
        out = {}
        pos = 0
        for name, arr in blocks:
            out[name] = vals[:, pos:pos + arr.size].reshape(
                (len(vals),) + arr.shape)
            pos += arr.size
        return out

    return evaluate


@dataclass
class PointCalculus:
    """Numeric metric data at a single point (all from exact derivatives)."""

    point: tuple
    g: np.ndarray
    ginv: np.ndarray
    dg: np.ndarray       # dg[i, j, k] = d_i g_jk
    gamma: np.ndarray    # gamma[m, i, j]
    dgamma: np.ndarray   # dgamma[p, m, i, j] = d_p Gamma^m_ij
    riem: np.ndarray     # riem[l, i, j, k]

    def gnorm(self, v):
        return float(np.sqrt(max(0.0, float(v @ self.g @ v))))

    def lowered_riemann(self):
        """R_ijkl = g(R(d_i, d_j) d_k, d_l)."""
        return np.einsum("lijk,lm->ijkm", self.riem, self.g)


class MetricField:
    """Symmetric positive-definite matrix of expressions over a chart."""

    def __init__(self, chart, g):
        self.chart = chart
        self.g = np.asarray(g, dtype=object)
        n = chart.n
        if self.g.shape != (n, n):
            raise GeometryError("metric must be n x n")

    @cached_property
    def _evaluator(self):
        coords = self.chart.coords
        dg = derivatives(self.g, coords)
        return compile_fields(
            [("g", self.g), ("dg", dg), ("ddg", derivatives(dg, coords))],
            coords)

    def calculus_at(self, point):
        v = self._evaluator([point])
        return calculus_from_values(point, v["g"][0], v["dg"][0], v["ddg"][0])


def check_positive_definite(g, point):
    """Raise SingularMetricError unless ``g`` is positive definite.

    With a leading point axis, ``g`` has shape (P, n, n), ``point`` holds
    the P points and the error names the first failing one.
    """
    try:
        np.linalg.cholesky(g)
    except np.linalg.LinAlgError:
        if g.ndim == 3:
            for gj, pj in zip(g, point):
                check_positive_definite(gj, tuple(float(x) for x in pj))
        raise SingularMetricError(
            f"metric not positive definite at {point}") from None


def calculus_from_values(point, g, dg, ddg):
    """Assemble Christoffels and curvature from exact g, dg, ddg values."""
    check_positive_definite(g, point)
    ginv = np.linalg.inv(g)
    gamma = christoffels_from_values(g, dg, ginv)
    # d_p g^{ml} = -(ginv dg[p] ginv)^{ml}
    dginv = -np.einsum("ma,pab,bl->pml", ginv, dg, ginv)
    # sym[i, j, l] = d_i g_jl + d_j g_il - d_l g_ij
    sym = dg + dg.transpose(1, 0, 2) - dg.transpose(1, 2, 0)
    # dsym[p, i, j, l] = d_p d_i g_jl + d_p d_j g_il - d_p d_l g_ij
    dsym = ddg + ddg.transpose(0, 2, 1, 3) - ddg.transpose(0, 2, 3, 1)
    dgamma = 0.5 * (np.einsum("pml,ijl->pmij", dginv, sym)
                    + np.einsum("ml,pijl->pmij", ginv, dsym))
    riem = riemann_from_values(gamma, dgamma)
    return PointCalculus(point=tuple(point), g=g, ginv=ginv, dg=dg,
                         gamma=gamma, dgamma=dgamma, riem=riem)


def christoffels_from_values(g, dg, ginv=None):
    """Gamma^m_ij from g and dg; all arrays may carry leading point axes."""
    if ginv is None:
        ginv = np.linalg.inv(g)
    # sym[i, j, l] = d_i g_jl + d_j g_il - d_l g_ij
    sym = dg + np.swapaxes(dg, -3, -2) - np.moveaxis(dg, -3, -1)
    return 0.5 * np.einsum("...ml,...ijl->...mij", ginv, sym)


def riemann_from_values(gamma, dgamma):
    """R^l_ijk = d_i G^l_jk - d_j G^l_ik + G^l_im G^m_jk - G^l_jm G^m_ik."""
    d1 = dgamma.transpose(1, 0, 2, 3)          # [l, i, j, k] = d_i G^l_jk
    quad = np.einsum("lim,mjk->lijk", gamma, gamma)
    return d1 - d1.transpose(0, 2, 1, 3) + quad - quad.transpose(0, 2, 1, 3)


def covariant_derivative_operator_field(T, metric, point, direction):
    """(nabla_i T)^a_b for a (1,1)-tensor field of expressions."""
    T = np.asarray(T, dtype=object)
    calc = metric.calculus_at(point)
    coords = metric.chart.coords
    dT = derivatives(T, coords[direction:direction + 1])[0]
    env = dict(zip(coords, point))
    dT_num = np.array([[ex.evaluate(dT[a, b], env) for b in range(T.shape[1])]
                       for a in range(T.shape[0])])
    T_num = np.array([[ex.evaluate(T[a, b], env) for b in range(T.shape[1])]
                      for a in range(T.shape[0])])
    return covariant_derivative_from_values(T_num, dT_num, calc.gamma, direction)


def covariant_derivative_from_values(T, dT, gamma, i):
    """(nabla_i T)^a_b from numeric T, d_i T and Christoffels."""
    return dT + gamma[:, i, :] @ T - T @ gamma[:, i, :]


def wedge(v, w, z, g):
    """(v ^ w) z = g(w, z) v - g(v, z) w."""
    v = np.asarray(v, dtype=float)
    w = np.asarray(w, dtype=float)
    z = np.asarray(z, dtype=float)
    return float(w @ g @ z) * v - float(v @ g @ z) * w


def minkowski_metric(dim):
    """diag(1, ..., 1, -1): signature (dim-1, 1), timelike axis last."""
    J = np.eye(dim)
    J[-1, -1] = -1.0
    return J


def minkowski_inner(x, y):
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    return float(np.dot(x[:-1], y[:-1]) - x[-1] * y[-1])
