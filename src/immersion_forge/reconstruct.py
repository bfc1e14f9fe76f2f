"""Reconstruction of the immersion from an admissible structure.

A parallel frame (eta_1, ..., eta_{n+3}) of the extended bundle, adapted to
the product structure F (first k+1 sections in the +1 eigenspace, the rest
in the -1 eigenspace, G-orthonormal with the last section timelike), turns
the flat bundle into a copy of Minkowski space.  The immersion is

    psi_a(p) = eps_a * G(w(p), eta_a(p)),   w = xi1 (sphere slots)
                                            w = xi2 (hyperbolic slots),

with eps = (1, ..., 1, -1); its differential is psi_* v = eps * G(v, eta)
and the image unit normal is N = eps * G(xi, eta).  Frame components are
obtained by parallel transport along staircase paths from the base point;
each corner of those paths is transported once, from the corner before it.
A ``Samples`` record holds psi, psi_* and N at many points as arrays with a
leading point axis; theorem validation adds its residuals to it as arrays.
"""

from dataclasses import dataclass, field

import numpy as np

from . import bundle as bd
from . import geometry as geo
from . import structure as st
from .ambient import AmbientModel


class ReconstructionError(Exception):
    pass


@dataclass
class Samples:
    """The immersion at P points, as arrays along a leading point axis."""

    points: np.ndarray    # (P, n) chart points
    psi: np.ndarray       # (P, n+3) position in L^(n+3)
    normal: np.ndarray    # (P, n+3) unit normal, tangent to the model
    dpsi: np.ndarray      # (P, n+3, n) pushforward of the coordinate basis
    residuals: dict = field(default_factory=dict)   # name -> (P,) values

    def __len__(self):
        return len(self.points)

    __getitem__ = geo.point_of


def _gram_schmidt(vectors, G):
    """G-orthonormalize (G positive definite on the span), dropping defects."""
    out = []
    for v in vectors:
        w = np.array(v, dtype=float)
        for b in out:
            w = w - float(b @ G @ w) * b
        norm2 = float(w @ G @ w)
        if norm2 > 1e-18:
            out.append(w / np.sqrt(norm2))
    return out


def synthesize_frame(ev, k):
    """Adapted G-orthonormal base frame, columns ordered (+1 block, -1 block).

    xi1 and xi2 are exact eigenvectors of F (F xi1 = xi1, F xi2 = -xi2), so
    they seed the two blocks; xi2 is kept as the final, timelike section,
    which puts the reconstructed base point on the upper hyperboloid sheet.
    """
    n = ev.S.shape[0]
    N = n + 3
    F = bd.assemble_bundle_map(ev.f, ev.U, ev.u, ev.lam)
    G = bd.assemble_gram(ev.g)
    eye = np.eye(N)
    plus_candidates = [eye[:, N - 2]] + [0.5 * (eye[:, a] + F[:, a])
                                         for a in range(N)]
    plus = _gram_schmidt(plus_candidates, G)
    if len(plus) != k + 1:
        raise ReconstructionError(
            f"+1 eigenspace of F has dimension {len(plus)}, expected {k + 1}")
    xi2 = eye[:, N - 1]
    minus_candidates = []
    for a in range(N):
        v = 0.5 * (eye[:, a] - F[:, a])
        v = v + float(v @ G @ xi2) * xi2        # project out the timelike seed
        minus_candidates.append(v)
    minus = _gram_schmidt(minus_candidates, G)
    if len(minus) != n - k + 1:
        raise ReconstructionError(
            f"-1 eigenspace of F has dimension {len(minus) + 1}, "
            f"expected {n - k + 2}")
    cols = plus + minus + [xi2]
    return np.column_stack(cols)


class Immersion:
    """Transport-based evaluation of the reconstructed immersion.

    ``frames`` maps each corner of the staircase paths from the base
    point, a sampled point being the last corner of its path, to the frame
    components transported there from the corner before it.
    """

    def __init__(self, spec, k=None, base=None, step=bd.DEFAULT_STEP,
                 base_frame=None):
        error = bd.step_error(spec.chart.box, step)
        if error is not None:
            raise ReconstructionError(error)
        self.spec = spec
        self.base = tuple(base) if base is not None else spec.chart.base_point
        if not spec.chart.contains(self.base):
            raise ReconstructionError(f"base point {self.base} outside chart")
        ev = spec.eval_at(self.base)
        self.k = k if k is not None else st.determine_k(spec, self.base, ev)
        self.conn = bd.ConnectionField(spec)
        self.step = step
        E0 = base_frame if base_frame is not None else synthesize_frame(ev, self.k)
        self._check_base_frame(E0, ev)
        self.base_frame = np.array(E0, dtype=float)
        self.frames = {tuple(map(float, self.base)): self.base_frame}

    def _check_base_frame(self, E0, ev):
        N = self.spec.n + 3
        G = bd.assemble_gram(ev.g)
        F = bd.assemble_bundle_map(ev.f, ev.U, ev.u, ev.lam)
        target = geo.minkowski_metric(N)
        if np.abs(E0.T @ G @ E0 - target).max() > 1e-8:
            raise ReconstructionError("base frame is not G-orthonormal")
        sph = self.k + 1
        if (np.abs(F @ E0[:, :sph] - E0[:, :sph]).max() > 1e-8
                or np.abs(F @ E0[:, sph:] + E0[:, sph:]).max() > 1e-8):
            raise ReconstructionError("base frame is not adapted to F")

    def _assemble(self, points, frames):
        """Samples at ``points`` read off their frame components, evaluating
        g once per ``geometry.GRID_CHUNK`` points."""
        n = self.spec.n
        N = n + 3
        eps = np.diag(geo.minkowski_metric(N))
        rows = np.array([n + 1] * (self.k + 1) + [n + 2] * (n - self.k + 2))

        def read_off(start, chunk):
            g = self.spec.connection_data_batch(chunk)[0]
            # P[j, b, a] = G(e_b, eta_a) at the j-th point of the chunk
            P = bd.assemble_gram(g) @ np.reshape(
                frames[start:start + len(chunk)], (-1, N, N))
            return {"psi": eps * P[:, rows, np.arange(N)],
                    "normal": eps * P[:, n], "dpsi": eps * P[:, :n]}

        vals = geo.chunk_arrays(read_off, points)
        # dpsi[j] stays the transpose of a row-major block: the last bit of
        # a matrix product depends on the memory layout of its operands
        return Samples(points, vals["psi"], vals["normal"],
                       np.swapaxes(vals["dpsi"], 1, 2))

    def sample(self, point):
        return self.samples([point])[0]

    def samples(self, points):
        """Samples at ``points``.  The frame table is first filled at their
        missing staircase corners, parents first, from one ``block_steps``
        run over all of them."""
        points = geo.as_points(points, self.spec.n)
        ends, todo = [], {}         # missing corner -> the corner before it
        for p in points:
            path = bd.staircase_path(self.base, p)
            ends.append(path[-1])
            todo.update((b, a) for a, b in zip(path[:-1], path[1:])
                        if b not in self.frames)
        segments = [(a, b) for b, a in todo.items()]
        for (a, b), blocks in zip(segments,
                                  self.conn.block_steps(segments, self.step)):
            self.frames[b] = self.conn.transport_segment(
                a, b, self.frames[a], step=self.step, blocks=blocks)
        return self._assemble(points, [self.frames[e] for e in ends])


def immerse(spec, points=None, base=None, step=bd.DEFAULT_STEP,
            grid_density=None, base_frame=None, k=None):
    """Reconstruct the immersion at the given points (default: chart grid)."""
    imm = Immersion(spec, k=k, base=base, step=step, base_frame=base_frame)
    if points is None:
        points = spec.chart.grid(grid_density)
    return imm, imm.samples(points)


# ---------------------------------------------------------------------------
# theorem validation


@dataclass
class TheoremReport:
    k: int
    residuals: dict
    tolerances: dict
    samples: Samples
    admission: st.CompatibilityReport

    @property
    def valid(self):
        return not self.failing()

    def failing(self):
        # a residual that is not a number fails too
        return [key for key in self.residuals
                if not self.residuals[key] < self.tolerances[key]]

    def to_dict(self):
        return {
            "k": self.k,
            "valid": self.valid,
            "residuals": {k: float(v) for k, v in self.residuals.items()},
            "tolerances": dict(self.tolerances),
            "failing": self.failing(),
        }


DEFAULT_VALIDATION_TOLERANCES = {
    "quadric": 1e-7,
    "isometry": 1e-6,
    "normal": 1e-7,
    "shape_operator": 1e-4,
    "product_relations": 1e-6,
}


def validate_theorem(spec, points=None, base=None, step=bd.DEFAULT_STEP,
                     grid_density=None, admission=None):
    """Reconstruct and check the immersion against the model geometry.

    Refuses structures that fail admission.  Checks, as sups over the
    sample points: quadric membership and sheet, isometry, unit normal,
    the shape operator (finite differences of the normal), and the
    product-structure relations Fhat psi_* v = psi_*(fv) + u(v) N and
    Fhat N = psi_* U + lam N.  Admission runs over ``points`` unless given.
    """
    points = (spec.chart.grid(grid_density) if points is None
              else geo.as_points(points, spec.n))
    if admission is None:
        admission = st.admit(spec, grid=points)
    if not admission.admissible:
        raise st.InadmissibleStructureError(
            "structure fails admission: " + "; ".join(admission.reasons))
    imm = Immersion(spec, k=admission.k, base=base, step=step)
    model = AmbientModel(spec.n, imm.k)
    samples = imm.samples(points)

    def checks(start, chunk):
        s, ev = samples[start:start + len(chunk)], spec.eval_batch(chunk)
        psi, N, dpsi = s.psi, s.normal, s.dpsi
        dpsiT_J = np.swapaxes(dpsi, -1, -2) @ model.minkowski
        return {
            # the wrong hyperboloid sheet fails the quadric
            "quadric": np.maximum(model.on_model_residual(psi),
                                  np.where(psi[:, -1] <= 0.0, 1.0, 0.0)),
            "isometry": np.abs(dpsiT_J @ dpsi - ev.g).max((-2, -1)),
            "normal": np.maximum.reduce([
                np.abs(model.inner(N, N) - 1.0),
                np.abs(geo.matvec(dpsiT_J, N)).max(-1),
                model.tangency_residual(psi, N)]),
            "product_relations": np.maximum(
                np.abs(model.fhat @ dpsi - dpsi @ ev.f
                       - N[:, :, None] * ev.u[:, None, :]).max((-2, -1)),
                np.abs(geo.matvec(model.fhat, N) - geo.matvec(dpsi, ev.U)
                       - ev.lam[:, None] * N).max(-1)),
            "shape_operator": _shape_fd_residuals(imm, model, s, ev.S),
        }

    samples.residuals.update(geo.chunk_arrays(checks, points))
    res = {key: float(samples.residuals[key].max(initial=0.0))
           for key in DEFAULT_VALIDATION_TOLERANCES}
    return TheoremReport(k=imm.k, residuals=res,
                         tolerances=dict(DEFAULT_VALIDATION_TOLERANCES),
                         samples=samples, admission=admission)


def _shape_fd_residuals(imm, model, s, S, h=1e-4):
    """sup_i |nabla_i N + psi_*(S e_i)| at the samples ``s``, the normal
    differentiated numerically at point +- h e_i, transported there from the
    sample's frame; the segments share field batches and one read-off."""
    n = imm.spec.n
    lo, hi = np.array(imm.spec.chart.box).T
    hp = np.minimum(h, 0.25 * np.minimum(hi - s.points, s.points - lo))
    j, i = np.nonzero(hp > 0.0)         # (sample, direction) pairs
    if not len(j):                      # every sample at a box corner
        return np.zeros(len(s))
    offset = np.eye(n)[i] * hp[j, i, None]
    ends = np.concatenate([s.points[j] + offset, s.points[j] - offset])
    segments = list(zip([tuple(p) for p in s.points[j]] * 2, ends))
    frames = [imm.conn.transport_segment(p0, p1, imm.frames[p0],
                                         step=imm.step, blocks=blocks)
              for (p0, p1), blocks in zip(
                  segments, imm.conn.block_steps(segments, imm.step))]
    plus, minus = np.split(imm._assemble(ends, frames).normal, 2)
    # psi_*(S e_d) in every direction d, S's columns kept as views
    turn = np.array([geo.matvec(s.dpsi, S[:, :, d]) for d in range(n)])
    defect = ((plus - minus) / (2.0 * hp[j, i, None])
              + model.connection_correction(s.psi[j], s.dpsi[j, :, i],
                                            s.normal[j]) + turn[i, j])
    worst = np.zeros(hp.shape)
    worst[j, i] = np.abs(defect).max(-1)
    return worst.max(-1)
