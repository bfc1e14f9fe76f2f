"""Chart-level tensor calculus from an expression-valued metric.

Index conventions used throughout the package:

* ``dg[i, j, k]``      is the coordinate derivative d_i g_jk,
* ``gamma[m, i, j]``   is Gamma^m_ij (upper index first),
* ``riem[l, p, k]``     is R^l_ijk in R(d_i, d_j) d_k = R^l_ijk d_l at the
  pairs (i, j) = (i[p], j[p]) of ``np.triu_indices(n, 1)`` alone, with the
  sign convention R(X, Y) = [nabla_X, nabla_Y] - nabla_[X,Y].
"""

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from . import expr as ex


class GeometryError(Exception):
    pass


class SingularMetricError(GeometryError):
    """Metric not positive definite at a sample point."""


class PointSetError(GeometryError):
    """A point set that is not P points of the chart's dimension."""


# tolerance of Chart.contains at the faces of the box
CONTAINS_SLACK = 1e-12
# share of each box side that Chart.grid keeps clear at either end
GRID_MARGIN = 0.01
# largest default grid in points, the density to the power of the dimension
MAX_GRID_POINTS = 100_000


def default_grid(n):
    """The grid density of an n-dimensional chart when none is given: the
    largest in 2..8 with at most MAX_GRID_POINTS points, else 2."""
    return max((d for d in range(2, 9) if d ** n <= MAX_GRID_POINTS),
               default=2)


def density_error(density):
    """Why ``density`` cannot be a grid's values per axis, or None."""
    return "grid density must be >= 2" if density < 2 else None


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
        if len(set(self.coords)) != n:
            raise GeometryError(f"coordinate names {list(self.coords)} "
                                f"repeat a name")
        for name in self.coords:
            if name in ex.NAMED_CONSTANTS or name in ex.FUNCTIONS:
                raise GeometryError(f"coordinate name {name!r} is reserved")
        for (lo, hi), p in zip(self.box, self.base_point):
            if not lo < hi:
                raise GeometryError("empty domain box interval")
            if not lo < p < hi:
                raise GeometryError("base point must be interior to the box")
            if not all(map(math.isfinite, (lo, hi, p, hi - lo))):
                raise GeometryError("box bounds, box widths and base point "
                                    "must be finite")

    @property
    def n(self):
        return len(self.coords)

    def contains(self, point):
        """True for a point of the chart's dimension inside the box."""
        return len(point) == self.n and all(
            lo - CONTAINS_SLACK <= p <= hi + CONTAINS_SLACK
            for (lo, hi), p in zip(self.box, point))

    def grid(self, density=None):
        """(density ** n, n) array of a uniform grid, ``density`` values per
        axis over the box shrunk by GRID_MARGIN of each side, row-major; the
        density defaults to ``default_grid(n)``."""
        if density is None:
            density = default_grid(self.n)
        error = density_error(density)
        if error:
            raise GeometryError(error)
        axes = []
        for lo, hi in self.box:
            pad = GRID_MARGIN * (hi - lo)
            axes.append(np.linspace(lo + pad, hi - pad, density))
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack(mesh, -1).reshape(-1, self.n)

    def points(self, points=None, density=None):
        """The chart grid of ``density`` when ``points`` is None, else
        ``points`` as a (P, n) float array, ``[]`` as (0, n); raises
        PointSetError naming the dimension expected and the shape given."""
        if points is None:
            return self.grid(density)
        n = self.n
        expected = (f"points must have shape (P, {n}) in a chart of "
                    f"dimension {n}")
        try:
            points = np.asarray(points, dtype=float)
        except (TypeError, ValueError) as err:
            raise PointSetError(f"{expected}: {err}") from None
        if points.shape == (0,):
            return points.reshape(0, n)
        if points.ndim != 2 or points.shape[1] != n:
            raise PointSetError(f"{expected}, got shape {points.shape}")
        return points


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
    cuts = np.cumsum([arr.size for _, arr in blocks])[:-1]

    def evaluate(points):
        vals = fn(points)
        parts = np.split(vals, cuts, axis=1)
        return {name: part.reshape((len(vals),) + arr.shape)
                for (name, arr), part in zip(blocks, parts)}

    return evaluate


# points evaluated per batch, of a grid or of transport stages: bounds the
# memory of the field arrays and the tape's live registers at any size
GRID_CHUNK = 1024


def chunk_arrays(fn, points):
    """The dicts of arrays ``fn(start, chunk)`` gives on the GRID_CHUNK or
    fewer rows of the (P, n) array ``points`` from row ``start`` on, joined
    over the chunks in order; ``fn(0, points)`` when P = 0."""
    parts = ([fn(start, points[start:start + GRID_CHUNK])
              for start in range(0, len(points), GRID_CHUNK)]
             or [fn(0, points)])
    return {key: np.concatenate([part[key] for part in parts])
            for key in parts[0]}


def point_of(batch, j):
    """Point j, or the points at slice j, of a dataclass of arrays with a
    leading point axis (dicts of arrays included)."""
    values = {}
    for f in dataclasses.fields(batch):
        v = getattr(batch, f.name)
        values[f.name] = ({key: a[j] for key, a in v.items()}
                          if isinstance(v, dict) else v[j])
    return dataclasses.replace(batch, **values)


def definite_points(g):
    """Mask over the leading axis of ``g`` (P, n, n): positive definite or
    not.  Tested point by point only when the batched Cholesky fails."""
    try:
        np.linalg.cholesky(g)
    except np.linalg.LinAlgError:
        if len(g) == 1:
            return np.zeros(1, dtype=bool)
        return np.concatenate([definite_points(gj[None]) for gj in g])
    return np.ones(len(g), dtype=bool)


def check_positive_definite(g, points):
    """Raise SingularMetricError unless each of ``g`` (P, n, n) is positive
    definite, naming the first of the P ``points`` where one is not."""
    ok = definite_points(g)
    if not ok.all():
        bad = points[int(np.argmin(ok))]
        raise SingularMetricError(
            f"metric not positive definite at {tuple(map(float, bad))}")


def _sym(dg):
    """d_i g_jl + d_j g_il - d_l g_ij at [..., i, j, l], from dg[..., i, j, l]
    = d_i g_jl; second derivatives carry one more leading axis."""
    return dg + np.swapaxes(dg, -3, -2) - np.moveaxis(dg, -3, -1)


def calculus_from_values(g, dg, ddg):
    """{"ginv", "gamma", "riem"} from exact g, dg, ddg values with a leading
    point axis, R at the pairs i < j alone; g must be positive definite at
    every point."""
    ginv = np.linalg.inv(g)
    gamma = christoffels_from_values(g, dg, ginv)
    # d_p g^{ml} = -(ginv dg[p] ginv)^{ml}
    dginv = -np.einsum("...ma,...pab,...bl->...pml", ginv, dg, ginv)
    dgamma = 0.5 * (np.einsum("...pml,...ijl->...pmij", dginv, _sym(dg))
                    + np.einsum("...ml,...pijl->...pmij", ginv, _sym(ddg)))
    # R^l_ijk = d_i G^l_jk - d_j G^l_ik + G^l_im G^m_jk - G^l_jm G^m_ik
    i, j = np.triu_indices(g.shape[-1], 1)
    d1 = np.swapaxes(dgamma, -4, -3)          # [l, i, j, k] = d_i G^l_jk
    gi, gj = gamma[..., :, i, :], gamma[..., :, j, :]
    riem = (d1[..., i, j, :] - d1[..., j, i, :]
            + np.einsum("...lpm,...mpk->...lpk", gi, gj)
            - np.einsum("...lpm,...mpk->...lpk", gj, gi))
    return {"ginv": ginv, "gamma": gamma, "riem": riem}


def christoffels_from_values(g, dg, ginv=None):
    """Gamma^m_ij from g and dg; all arrays may carry leading point axes."""
    if ginv is None:
        ginv = np.linalg.inv(g)
    return 0.5 * np.einsum("...ml,...ijl->...mij", ginv, _sym(dg))


def covariant_derivatives(T, dT, gamma):
    """((nabla_i T) e_b)^a at [..., i, b, a] from a (1,1)-tensor T[..., a, b],
    its derivatives dT[..., i, a, b] and the Christoffels."""
    return (np.swapaxes(dT, -1, -2)
            + np.einsum("...aic,...cb->...iba", gamma, T)
            - np.einsum("...ac,...cib->...iba", T, gamma))


def dot(a, b):
    """a . b over the last axis, with leading axes; as np.dot for vectors."""
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def matvec(A, v):
    """A v over the last axes, with leading axes; as A @ v for one point."""
    return (A @ v[..., None])[..., 0]


def minkowski_metric(dim):
    """diag(1, ..., 1, -1): signature (dim-1, 1), timelike axis last."""
    J = np.eye(dim)
    J[-1, -1] = -1.0
    return J
