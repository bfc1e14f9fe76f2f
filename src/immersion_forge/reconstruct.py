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

from dataclasses import dataclass

import numpy as np

from . import bundle as bd
from . import geometry as geo
from . import structure as st
from .ambient import AmbientModel, Samples


class ReconstructionError(Exception):
    pass


def _gram_schmidt(vectors, G, scales):
    """G-orthonormalize (G positive definite on the span), dropping each
    vector whose part off the span has G-norm^2 <= 1e-18 times its scale."""
    out = []
    for w, scale in zip(vectors, scales):
        for b in out:
            w = w - float(b @ G @ w) * b
        norm2 = float(w @ G @ w)
        if norm2 / scale > 1e-18:
            out.append(w / np.sqrt(norm2))
    return out


def synthesize_frame(F, G, k):
    """Adapted G-orthonormal frame for the bundle map F and the fiber metric
    G at one point, columns ordered (+1 block, -1 block).

    xi1 and xi2 are exact eigenvectors of F (F xi1 = xi1, F xi2 = -xi2), so
    they seed the two blocks; xi2 is kept as the final, timelike section,
    which puts the reconstructed base point on the upper hyperboloid sheet.
    """
    N = len(F)
    eye = np.eye(N)
    xi2 = eye[-1]
    # candidate i projects e_i: its cutoff scales with |G_ii|, 1 for xi1
    scales = np.abs(np.diag(G))
    plus = _gram_schmidt([eye[-2], *(0.5 * (eye + F.T))], G, [1.0, *scales])
    # the timelike seed projected out of each -1 candidate
    minus = _gram_schmidt([v + float(v @ G @ xi2) * xi2
                           for v in 0.5 * (eye - F.T)], G, scales) + [xi2]
    for sign, block, size in (("+1", plus, k + 1), ("-1", minus, N - k - 1)):
        if len(block) != size:
            raise ReconstructionError(f"{sign} eigenspace of F has dimension "
                                      f"{len(block)}, expected {size}")
    return np.column_stack(plus + minus)


def read_off(M, k, g=None):
    """psi, N and, with the metric g (P, n, n), dpsi off frame components M
    (P, n+3, n+3), keyed as in ``Samples``: psi_a = eps_a G(w, eta_a), w =
    xi1 on the sphere slots a <= k and xi2 on the rest; N = eps G(xi, eta);
    dpsi[:, i] = eps G(d_i, eta), a row.  Rows n .. n+2 of G = blockdiag(g,
    1, 1, -1) are unit rows, so only dpsi reads g."""
    n = M.shape[-1] - 3
    eps = np.diag(geo.minkowski_metric(n + 3))
    sphere = np.arange(n + 3) <= k
    w, unit = np.where(sphere, n + 1, n + 2), np.where(sphere, 1.0, -1.0)
    # + 0.0 reads a zero as +0, as G's row sum does; psi keeps the index's
    # column-major layout, which the last bit of later products depends on
    out = {"psi": eps * (unit * M[:, w, np.arange(n + 3)] + 0.0),
           "normal": eps * (M[:, n] + 0.0)}
    if g is not None:
        out["dpsi"] = eps * (g @ M[:, :n])
    return out


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
        F = bd.assemble_bundle_map(ev.f, ev.U, ev.u, ev.lam)
        G = bd.assemble_gram(ev.g)
        E0 = np.array(synthesize_frame(F, G, self.k) if base_frame is None
                      else base_frame, dtype=float)
        if np.abs(E0.T @ G @ E0 - geo.minkowski_metric(len(G))).max() > 1e-8:
            raise ReconstructionError("base frame is not G-orthonormal")
        signs = np.where(np.arange(len(F)) <= self.k, 1.0, -1.0)
        if np.abs(F @ E0 - signs * E0).max() > 1e-8:
            raise ReconstructionError("base frame is not adapted to F")
        self.base_frame = E0
        self.frames = {tuple(map(float, self.base)): E0}

    def _transport(self, segments, table):
        """Transport ``table[p0]`` along each (p0, p1) of ``segments`` in
        order, from one ``block_steps`` run; each end enters ``table``
        unless a frame is there already.  The end frames, in order."""
        ends = []
        for (p0, p1), blocks in zip(segments,
                                    self.conn.block_steps(segments, self.step)):
            ends.append(self.conn.transport_segment(
                p0, p1, table[p0], step=self.step, blocks=blocks))
            table.setdefault(p1, ends[-1])
        return ends

    def sample(self, point):
        return self.samples([point])[0]

    # a transport that overflows gives inf or NaN samples, and no warning
    @np.errstate(over="ignore", invalid="ignore")
    def samples(self, points):
        """Samples at ``points`` (None: the chart grid), read off the frames
        with g evaluated once per ``geometry.GRID_CHUNK`` points.  The frame
        table is first filled at their missing staircase corners, parents
        first.  Raises PointSetError naming the first point outside the
        chart box."""
        chart = self.spec.chart
        points = chart.points(points)
        ends, todo = [], {}         # missing corner -> the corner before it
        for p in points:
            if not chart.contains(p):
                raise geo.PointSetError(
                    f"point {tuple(map(float, p))} lies outside the chart "
                    f"box {[list(iv) for iv in chart.box]}")
            path = bd.staircase_path(self.base, p)
            ends.append(path[-1])
            todo.update((b, a) for a, b in zip(path[:-1], path[1:])
                        if b not in self.frames)
        self._transport([(a, b) for b, a in todo.items()], self.frames)
        frames = [self.frames[e] for e in ends]

        def chunk_read_off(start, chunk):
            g = self.spec.connection_fields(chunk)["g"]
            geo.check_positive_definite(g, chunk)
            return read_off(np.reshape(frames[start:start + len(chunk)],
                                       (-1, *self.base_frame.shape)), self.k, g)

        vals = geo.chunk_arrays(chunk_read_off, points)
        # dpsi[j] stays the transpose of a row-major block: the last bit of
        # a matrix product depends on the memory layout of its operands
        return Samples(points, vals["psi"], vals["normal"],
                       np.swapaxes(vals["dpsi"], 1, 2))


def immerse(spec, points=None, base=None, step=bd.DEFAULT_STEP,
            base_frame=None, k=None):
    """Reconstruct the immersion at the given points (default: chart grid)."""
    imm = Immersion(spec, k=k, base=base, step=step, base_frame=base_frame)
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
# the shape check's finite-difference step, less near a face of the box
FD_STEP = 1e-4


# inf or NaN samples fail their residuals, with no warning
@np.errstate(over="ignore", invalid="ignore")
def validate_theorem(spec, points=None, base=None, step=bd.DEFAULT_STEP,
                     admission=None):
    """Reconstruct and check the immersion against the model geometry.

    Refuses structures that fail admission.  Checks, as sups over the
    sample points: quadric membership and sheet, isometry, unit normal,
    the shape operator (finite differences of the normal), and the
    product-structure relations Fhat psi_* v = psi_*(fv) + u(v) N and
    Fhat N = psi_* U + lam N, over ``points`` or, when None, the chart
    grid.  Admission runs over the same points unless given.
    """
    points = spec.chart.points(points)
    if admission is None:
        admission = st.admit(spec, grid=points)
    if not admission.admissible:
        raise st.InadmissibleStructureError(
            "structure fails admission: " + "; ".join(admission.reasons))
    imm, samples = immerse(spec, points, base=base, step=step, k=admission.k)
    model = AmbientModel(spec.n, imm.k)

    def checks(start, chunk):
        s = samples[start:start + len(chunk)]
        v = spec.connection_fields(chunk)
        u = geo.matvec(v["g"], v["U"])      # as StructureEval.u and transport
        psi, N, dpsi = s.psi, s.normal, s.dpsi
        dpsiT_J = np.swapaxes(dpsi, -1, -2) @ model.minkowski
        return {
            # the wrong hyperboloid sheet fails the quadric
            "quadric": np.maximum(model.on_model_residual(psi),
                                  np.where(psi[:, -1] <= 0.0, 1.0, 0.0)),
            "isometry": np.abs(dpsiT_J @ dpsi - v["g"]).max((-2, -1)),
            "normal": np.maximum.reduce([
                np.abs(model.inner(N, N) - 1.0),
                np.abs(geo.matvec(dpsiT_J, N)).max(-1),
                model.tangency_residual(psi, N)]),
            "product_relations": np.maximum(
                np.abs(model.fhat @ dpsi - dpsi @ v["f"]
                       - N[:, :, None] * u[:, None, :]).max((-2, -1)),
                np.abs(geo.matvec(model.fhat, N) - geo.matvec(dpsi, v["U"])
                       - v["lam"][:, None] * N).max(-1)),
            "shape_operator": _shape_fd_residuals(imm, model, s, v["S"]),
        }

    samples.residuals.update(geo.chunk_arrays(checks, points))
    res = {key: float(samples.residuals[key].max(initial=0.0))
           for key in DEFAULT_VALIDATION_TOLERANCES}
    return TheoremReport(k=imm.k, residuals=res,
                         tolerances=dict(DEFAULT_VALIDATION_TOLERANCES),
                         samples=samples, admission=admission)


def _shape_fd_residuals(imm, model, s, S):
    """sup_i |nabla_i N + psi_*(S e_i)| at the samples ``s``, the normal
    differentiated numerically at point +- FD_STEP e_i, transported there
    from the sample's frame; the segments share field batches."""
    n = imm.spec.n
    lo, hi = np.array(imm.spec.chart.box).T
    hp = np.minimum(FD_STEP, 0.25 * np.minimum(hi - s.points, s.points - lo))
    j, i = np.nonzero(hp > 0.0)         # (sample, direction) pairs
    if not len(j):                      # every sample at a box corner
        return np.zeros(len(s))
    offset = np.eye(n)[i] * hp[j, i, None]
    starts = [tuple(p) for p in s.points[j]] * 2
    ends = np.concatenate([s.points[j] + offset, s.points[j] - offset])
    frames = imm._transport(list(zip(starts, map(tuple, ends))),
                            {p: imm.frames[p] for p in starts})
    plus, minus = np.split(read_off(np.array(frames), imm.k)["normal"], 2)
    # psi_*(S e_d) in every direction d, S's columns kept as views
    turn = np.array([geo.matvec(s.dpsi, S[:, :, d]) for d in range(n)])
    defect = ((plus - minus) / (2.0 * hp[j, i, None])
              + model.connection_correction(s.psi[j], s.dpsi[j, :, i],
                                            s.normal[j]) + turn[i, j])
    worst = np.zeros(hp.shape)
    worst[j, i] = np.abs(defect).max(-1)
    return worst.max(-1)
