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
"""

import itertools
from dataclasses import dataclass, field

import numpy as np

from . import bundle as bd
from . import geometry as geo
from . import structure as st
from .ambient import AmbientModel


class ReconstructionError(Exception):
    pass


@dataclass
class ImmersionSample:
    point: tuple
    psi: np.ndarray       # position in L^(n+3)
    normal: np.ndarray    # unit normal, tangent to the model
    dpsi: np.ndarray      # (n+3) x n pushforward of the coordinate basis
    residuals: dict = field(default_factory=dict)


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


def randomize_frame(E0, k, rng):
    """Apply a random block isometry: O(k+1) on the +1 block and a
    rotation-plus-boost in O(n-k+1, 1) on the -1 block."""
    N = E0.shape[0]
    n = N - 3
    sphere = k + 1
    hyp = n - k + 2

    def rotation(m):
        M = rng.standard_normal((m, m))
        Q, R = np.linalg.qr(M)
        return Q * np.sign(np.diag(R))

    blk = np.zeros((N, N))
    blk[:sphere, :sphere] = rotation(sphere)
    # O(hyp-1, 1) factor: spacelike rotation followed by a boost in the
    # plane of the last spacelike axis and the timelike axis
    B = np.eye(hyp)
    B[:hyp - 1, :hyp - 1] = rotation(hyp - 1)
    t = rng.uniform(-0.5, 0.5)
    boost = np.eye(hyp)
    boost[hyp - 2, hyp - 2] = boost[hyp - 1, hyp - 1] = np.cosh(t)
    boost[hyp - 2, hyp - 1] = boost[hyp - 1, hyp - 2] = np.sinh(t)
    blk[sphere:, sphere:] = boost @ B
    return E0 @ blk


class Immersion:
    """Transport-based evaluation of the reconstructed immersion.

    ``frames`` maps each corner of the staircase paths from the base
    point, a sampled point being the last corner of its path, to the frame
    components transported there from the corner before it.
    """

    def __init__(self, spec, k=None, base=None, step=bd.DEFAULT_STEP,
                 base_frame=None):
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
        """Read off psi, dpsi and N at ``points`` from their frame
        components, evaluating g once per ``geometry.GRID_CHUNK`` points."""
        n = self.spec.n
        N = n + 3
        eps = np.ones(N)
        eps[-1] = -1.0
        rows = np.array([n + 1] * (self.k + 1) + [n + 2] * (n - self.k + 2))
        out = []
        for start, chunk in geo.grid_chunks(points):
            g = self.spec.connection_data_batch(chunk)[0]
            # P[j, b, a] = G(e_b, eta_a) at the j-th point of the chunk
            P = bd.assemble_gram(g) @ np.asarray(
                frames[start:start + len(chunk)])
            out += [ImmersionSample(point=tuple(map(float, point)),
                                    psi=eps * Pj[rows, np.arange(N)],
                                    normal=eps * Pj[n, :],
                                    dpsi=(eps[None, :] * Pj[:n, :]).T)
                    for point, Pj in zip(chunk, P)]
        return out

    def sample(self, point):
        return self.samples([point])[0]

    def samples(self, points):
        """Samples at ``points``.  The frame table is first filled at their
        missing staircase corners, parents first, from one ``block_steps``
        run over all of them."""
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
            grid_density=8, base_frame=None, k=None):
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
    samples: list
    admission: st.CompatibilityReport

    @property
    def valid(self):
        return all(self.residuals[key] < self.tolerances[key]
                   for key in self.residuals)

    def failing(self):
        return [key for key in self.residuals
                if self.residuals[key] >= self.tolerances[key]]

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
                     grid_density=8, admission=None):
    """Reconstruct and check the immersion against the model geometry.

    Refuses structures that fail admission.  Checks, as sups over the
    sample points: quadric membership and sheet, isometry, unit normal,
    the shape operator (finite differences of the normal), and the
    product-structure relations Fhat psi_* v = psi_*(fv) + u(v) N and
    Fhat N = psi_* U + lam N.  Admission runs over ``points`` unless given.
    """
    if points is None:
        points = spec.chart.grid(grid_density)
    if admission is None:
        admission = st.admit(spec, grid=points)
    if not admission.admissible:
        raise st.InadmissibleStructureError(
            "structure fails admission: " + "; ".join(admission.reasons))
    imm = Immersion(spec, k=admission.k, base=base, step=step)
    model = AmbientModel(spec.n, imm.k)
    J = model.minkowski
    res = {key: 0.0 for key in DEFAULT_VALIDATION_TOLERANCES}
    samples = imm.samples(points)
    for s, (ev, shape) in zip(samples, _shape_fd_residuals(
            imm, model, samples, spec.eval_points(points))):
        x = s.psi
        quad = model.on_model_residual(x)
        if x[-1] <= 0.0:
            quad = max(quad, 1.0)       # wrong hyperboloid sheet
        s.residuals["quadric"] = quad

        s.residuals["isometry"] = float(
            np.abs(s.dpsi.T @ J @ s.dpsi - ev.g).max())

        s.residuals["normal"] = max(
            abs(model.inner(s.normal, s.normal) - 1.0),
            float(np.abs(s.dpsi.T @ J @ s.normal).max()),
            model.tangency_residual(x, s.normal))

        Fhat = model.fhat
        prod = float(np.abs(Fhat @ s.dpsi
                            - s.dpsi @ ev.f - np.outer(s.normal, ev.u)).max())
        prod = max(prod, float(np.abs(
            Fhat @ s.normal - s.dpsi @ ev.U - ev.lam * s.normal).max()))
        s.residuals["product_relations"] = prod

        s.residuals["shape_operator"] = shape
        for key in res:
            res[key] = max(res[key], s.residuals[key])

    tols = dict(DEFAULT_VALIDATION_TOLERANCES)
    return TheoremReport(k=imm.k, residuals=res, tolerances=tols,
                         samples=samples, admission=admission)


def _shape_fd_residuals(imm, model, samples, evs, h=1e-4):
    """(ev, |nabla_v N + psi_*(S v)|) for each sample and its StructureEval
    from ``evs``, with the normal differentiated numerically at point
    +- h e_i, transported there from the sample's frame.  The segments of
    each ``geometry.GRID_CHUNK`` samples share their field batches and one
    read-off of the normals."""
    eye = np.eye(imm.spec.n)
    for start in range(0, len(samples), geo.GRID_CHUNK):
        part = samples[start:start + geo.GRID_CHUNK]
        axes = [[(i, hp) for i, (lo, hi) in enumerate(imm.spec.chart.box)
                 if (hp := min(h, 0.25 * (hi - s.point[i]),
                               0.25 * (s.point[i] - lo))) > 0.0]
                for s in part]
        segments = [(s.point, np.add(s.point, sign * hp * eye[i]))
                    for s, mine in zip(part, axes) for i, hp in mine
                    for sign in (1.0, -1.0)]
        frames = [imm.conn.transport_segment(p0, p1, imm.frames[p0],
                                             step=imm.step, blocks=blocks)
                  for (p0, p1), blocks in zip(
                      segments, imm.conn.block_steps(segments, imm.step))]
        normals = iter([t.normal for t in imm._assemble(
            [p1 for _, p1 in segments], frames)])
        for s, ev, mine in zip(part, itertools.islice(evs, len(part)), axes):
            worst = 0.0
            for i, hp in mine:
                dN = (next(normals) - next(normals)) / (2.0 * hp)
                X, FX = s.dpsi[:, i], model.fhat @ s.dpsi[:, i]
                corr = (0.5 * model.inner(X + FX, s.normal) * model.xi1(s.psi)
                        - 0.5 * model.inner(X - FX, s.normal) * model.xi2(s.psi))
                defect = dN + corr + s.dpsi @ ev.S[:, i]
                worst = max(worst, float(np.abs(defect).max()))
            yield ev, worst
