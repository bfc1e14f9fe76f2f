"""Flat connection on the extended bundle TM + R^3.

The bundle frame is e = (d_1, ..., d_n, xi, xi1, xi2) with fiber metric
G = blockdiag(g, 1, 1, -1).  The connection is encoded per coordinate
direction i as a matrix A_i with D_i e_b = A_i[a, b] e_a, so a section with
component vector c is parallel along a curve gamma iff

    dc/dt = -(sum_i gamma'_i A_i(gamma(t))) c.

A transport stage point forms that one matrix, ``stage_matrices``, not the
n matrices A_i.  Admissible structures make this connection flat and
metric; transport is a fixed-step RK4 integration of the matrix ODE along
polyline paths.  Each RK4 step of this linear ODE is a matrix that does not
depend on the frame, so a segment advances by one ordered product of step
propagators per block of steps, and the stage points of many segments share
field batches.
"""

import numpy as np

from . import geometry as geo

DEFAULT_STEP = 1e-3
# the transport steps accepted; a step that is not positive takes no RK4 step
MIN_STEP = 1e-6
MAX_STEP = 0.1
# most RK4 steps across the widest side of a chart box, that side / step.
# At the cap one segment's entry of ``block_steps`` holds 78 125 block
# propagators, about 94 MB at n = 3 (1.2 kB a block).  ``block_steps``
# yields a segment's blocks as soon as they are formed, so a caller that
# transports each segment as it comes holds about one segment's blocks at a
# time, and the cap bounds a run too.  The catalog's widest side at MIN_STEP
# takes 2e6 steps.
MAX_SIDE_STEPS = 10_000_000
# RK4 steps per block propagator
STAGE_BLOCK = 128


def step_error(box, step):
    """Why ``step`` cannot transport in a chart of box ``box``, or None: it
    lies outside [MIN_STEP, MAX_STEP] (NaN included), or takes more than
    MAX_SIDE_STEPS RK4 steps across the widest side of a nonempty box."""
    if not MIN_STEP <= step <= MAX_STEP:
        return f"step must lie in [{MIN_STEP!r}, {MAX_STEP!r}]"
    side_steps = max((hi - lo for lo, hi in box), default=0.0) / step
    if side_steps > MAX_SIDE_STEPS:
        return (f"step {step!r} takes {side_steps:.3g} RK4 steps across the "
                f"widest side of the chart box; the cap is {MAX_SIDE_STEPS}")
    return None


def stage_matrices(g, gamma, S, f, u, delta):
    """B = -sum_i delta_i A_i, with the leading point axes of the inputs;
    along an axis e_k every other term is a signed zero, so B is
    -delta_k A_k entry for entry."""
    n = g.shape[-1]
    gT = np.swapaxes(g, -1, -2)
    gf = g @ f
    eye = np.eye(n)
    ud = 0.5 * geo.dot(delta, u)
    B = np.zeros(g.shape[:-2] + (n + 3, n + 3))
    B[..., :n, :n] = -np.einsum("...i,...aib->...ab", delta, gamma)
    B[..., n, :n] = -geo.matvec(g @ S, delta)
    B[..., n + 1, :n] = 0.5 * geo.matvec(gT + gf, delta)
    B[..., n + 2, :n] = -0.5 * geo.matvec(gT - gf, delta)
    B[..., :n, n] = geo.matvec(S, delta)
    B[..., n + 1, n] = B[..., n + 2, n] = B[..., n, n + 2] = ud
    B[..., n, n + 1] = -ud
    B[..., :n, n + 1] = -0.5 * geo.matvec(eye + f, delta)
    B[..., :n, n + 2] = -0.5 * geo.matvec(eye - f, delta)
    return B


def assemble_gram(g):
    """Fiber metric G = blockdiag(g, 1, 1, -1); g may carry leading axes."""
    n = g.shape[-1]
    G = np.zeros(g.shape[:-2] + (n + 3, n + 3))
    G[..., :n, :n] = g
    G[..., n:, n:] = geo.minkowski_metric(3)
    return G


def assemble_bundle_map(f, U, u, lam):
    """Frame matrix of F: FX = fX + u(X) xi, F xi = U + lam xi, F xi_1,2 = +-xi_1,2."""
    n = f.shape[0]
    F = np.zeros((n + 3, n + 3))
    F[:n, :n] = f
    F[n, :n] = u
    F[:n, n] = U
    F[n, n] = lam
    F[n + 1:, n + 1:] = np.diag([1.0, -1.0])
    return F


class ConnectionField:
    """Connection, Gram and product-structure data derived from a structure."""

    def __init__(self, spec):
        self.spec = spec
        self.n = spec.n

    @property
    def fiber_dim(self):
        return self.n + 3

    def coefficients(self, point):
        """The matrices A_i at ``point``, (n, n + 3, n + 3): A_i = -B(e_i)."""
        data = self.spec.connection_data_at(point)
        return -np.array([stage_matrices(*data, e) for e in np.eye(self.n)])

    # -- transport ----------------------------------------------------------

    def block_steps(self, segments, step=DEFAULT_STEP):
        """Yield the block steps of each of ``segments``, (p0, p1) pairs, in
        order, a segment's list as soon as its last block is formed.

        A segment takes ceil(length / step) RK4 steps of h = 1 / steps, cut
        into blocks of at most STAGE_BLOCK steps from its own start; each
        block gives ``_block_step`` of its ``stage_matrices`` along delta
        at the points p0 + t delta.  The stage points of consecutive blocks
        are evaluated ``geometry.GRID_CHUNK`` per field call, each on its
        own: a segment's result does not depend on its batch.
        """
        blocks = [(j, first, steps, min(STAGE_BLOCK, steps - first))
                  for j, (p0, p1) in enumerate(segments)
                  for steps in [int(np.ceil(np.linalg.norm(
                      np.subtract(p1, p0, dtype=float)) / step))]
                  for first in range(0, steps, STAGE_BLOCK)]
        seg, first, steps, count = np.array(blocks, dtype=int).reshape(-1, 4).T
        p0 = np.array([start for start, _ in segments], dtype=float)[seg]
        delta = np.array([end for _, end in segments], dtype=float)[seg] - p0
        ends = np.cumsum(2 * count + 1)
        B = np.empty((0, self.fiber_dim, self.fiber_dim))
        yielded, out = 0, []            # segments yielded, blocks of seg[k]
        for k, size in enumerate(2 * count + 1):
            while len(B) < size:
                done = ends[k] - size + len(B)      # rows evaluated so far
                r = np.arange(done, min(done + geo.GRID_CHUNK, ends[-1]))
                i = np.searchsorted(ends, r, side="right")   # block of row r
                t = (2 * (first[i] + count[i]) + 1 + r - ends[i]) / (2.0 * steps[i])
                B = np.concatenate([B, stage_matrices(
                    *self.spec.connection_data_batch(
                        p0[i] + t[:, None] * delta[i]), delta[i])])
            out.append(_block_step(B[:size], 1.0 / steps[k]))
            B = B[size:]
            if k + 1 == len(seg) or seg[k + 1] != seg[k]:
                # the segments before seg[k] not yet yielded take no steps
                yield from ([] for _ in range(yielded, seg[k]))
                yield out
                yielded, out = seg[k] + 1, []
        yield from ([] for _ in range(yielded, len(segments)))

    def transport_segment(self, p0, p1, M, step=DEFAULT_STEP, blocks=None):
        """RK4 transport of component matrix M along the straight segment,
        M <- M + D M for each block step D in ``blocks`` (the segment's
        entry of ``block_steps``, computed here when not given)."""
        if blocks is None:
            (blocks,) = self.block_steps([(p0, p1)], step)
        M = np.array(M, dtype=float)
        for D in blocks:
            M = M + D @ M
        return M


def _block_step(B, h):
    """P - I for the product P of the RK4 steps P_s = I + h/6 (K1 + 2 K2 +
    2 K3 + K4) of M' = B M over a block; K1 = B0, K2 = Bm (I + h/2 K1),
    K3 = Bm (I + h/2 K2), K4 = B1 (I + h K3).  Multiplied as a binary tree
    of neighbour pairs, later steps on the left, as deviations from I,
    (I + a)(I + b) = I + a + b + ab: forming I + a rounds off a's low bits.
    """
    B0, Bm, B1 = B[0:-1:2], B[1::2], B[2::2]
    K2 = Bm + (0.5 * h) * (Bm @ B0)
    K3 = Bm + (0.5 * h) * (Bm @ K2)
    K4 = B1 + h * (B1 @ K3)
    D = (h / 6.0) * (B0 + 2.0 * K2 + 2.0 * K3 + K4)
    while len(D) > 1:
        a, b = D[1::2], D[0:len(D) - 1:2]
        pairs = a + b + a @ b
        D = np.concatenate([pairs, D[-1:]]) if len(D) % 2 else pairs
    return D[0]


def staircase_path(p0, p1):
    """Axis-ordered polyline from p0 to p1 (change coordinate 0 first)."""
    p0 = np.asarray(p0, dtype=float)
    p1 = np.asarray(p1, dtype=float)
    points = [p0.copy()]
    cur = p0.copy()
    for i in range(len(p0)):
        if cur[i] != p1[i]:
            cur = cur.copy()
            cur[i] = p1[i]
            points.append(cur)
    return [tuple(p) for p in points]
