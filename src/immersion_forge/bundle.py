"""Flat connection on the extended bundle TM + R^3.

The bundle frame is e = (d_1, ..., d_n, xi, xi1, xi2) with fiber metric
G = blockdiag(g, 1, 1, -1).  The connection is encoded per coordinate
direction i as a matrix A_i with D_i e_b = A_i[a, b] e_a, so a section with
component vector c is parallel along a curve gamma iff

    dc/dt = -(sum_i gamma'_i A_i(gamma(t))) c.

Admissible structures make this connection flat and metric; transport is a
fixed-step RK4 integration of the matrix ODE along polyline paths.
"""

from dataclasses import dataclass

import numpy as np

from . import geometry as geo

DEFAULT_STEP = 1e-3
# RK4 steps whose stage points are evaluated in one batched call; bounds
# the memory of a segment at any step size
STAGE_BLOCK = 256


class BundleError(Exception):
    pass


def assemble_coefficients(g, gamma, S, f, u):
    """Connection matrices A_i, one per coordinate direction.

    The inputs may carry a leading point axis; A then has shape
    (P, n, n + 3, n + 3).
    """
    return _coefficient_blocks(g, gamma, g @ S, g @ f, S, f, u,
                               np.eye(g.shape[-1]))


def _coefficient_blocks(g, gamma, gS, gf, S, f, u, eye):
    """A[..., i] from its ingredients; affine in them, with the constant
    part carried by ``eye`` (zero for derivatives of A)."""
    n = g.shape[-1]
    N = n + 3
    A = np.zeros(g.shape[:-2] + (n, N, N))
    gfT = np.swapaxes(gf, -1, -2)
    fT = np.swapaxes(f, -1, -2)
    A[..., :n, :n] = np.swapaxes(gamma, -3, -2)   # Gamma^a_ib
    A[..., n, :n] = np.swapaxes(gS, -1, -2)       # g(S d_i, d_b)
    A[..., n + 1, :n] = -0.5 * (g + gfT)
    A[..., n + 2, :n] = 0.5 * (g - gfT)
    A[..., :n, n] = -np.swapaxes(S, -1, -2)
    A[..., n + 1, n] = -0.5 * u
    A[..., n + 2, n] = -0.5 * u
    A[..., :n, n + 1] = 0.5 * (eye + fT)
    A[..., n, n + 1] = 0.5 * u
    A[..., :n, n + 2] = 0.5 * (eye - fT)
    A[..., n, n + 2] = -0.5 * u
    return A


def assemble_gram(g):
    n = g.shape[0]
    G = np.zeros((n + 3, n + 3))
    G[:n, :n] = g
    G[n, n] = 1.0
    G[n + 1, n + 1] = 1.0
    G[n + 2, n + 2] = -1.0
    return G


def assemble_bundle_map(f, U, u, lam, unit=1.0):
    """Frame matrix of F: FX = fX + u(X) xi, F xi = U + lam xi, F xi_1,2 = +-xi_1,2.

    Affine in (f, U, u, lam), with the constant part carried by ``unit``
    (zero for derivatives of F).
    """
    n = f.shape[0]
    F = np.zeros((n + 3, n + 3))
    F[:n, :n] = f
    F[n, :n] = u
    F[:n, n] = U
    F[n, n] = lam
    F[n + 1, n + 1] = unit
    F[n + 2, n + 2] = -unit
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
        g, gamma, S, f, u = self.spec.connection_data_at(point)
        return assemble_coefficients(g, gamma, S, f, u)

    def gram(self, point):
        g, *_ = self.spec.connection_data_at(point)
        return assemble_gram(g)

    def coefficient_derivatives(self, point, ev=None):
        """dA[p, i] = d_p A_i via the product rule on exact field derivatives."""
        ev = ev or self.spec.eval_at(point)
        n = self.n
        calc = ev.calc
        g, dg = calc.g, calc.dg
        S, dS, f, df, U, dU = ev.S, ev.dS, ev.f, ev.df, ev.U, ev.dU
        du = np.array([dg[p] @ U + g @ dU[p] for p in range(n)])
        dgS = np.array([dg[p] @ S + g @ dS[p] for p in range(n)])
        dgf = np.array([dg[p] @ f + g @ df[p] for p in range(n)])
        return _coefficient_blocks(dg, calc.dgamma, dgS, dgf, dS, df, du, 0.0)

    def flatness_residual(self, point, ev=None):
        """sup_{i<j} max-entry of d_i A_j - d_j A_i + [A_i, A_j]."""
        ev = ev or self.spec.eval_at(point)
        A = assemble_coefficients(ev.g, ev.calc.gamma, ev.S, ev.f, ev.u)
        dA = self.coefficient_derivatives(point, ev)
        worst = 0.0
        for i in range(self.n):
            for j in range(i + 1, self.n):
                R = dA[i, j] - dA[j, i] + A[i] @ A[j] - A[j] @ A[i]
                worst = max(worst, float(np.abs(R).max()))
        return worst

    def metric_residual(self, point, ev=None):
        """Compatibility of D with the fiber metric: d_i G = A_i^T G + G A_i."""
        ev = ev or self.spec.eval_at(point)
        A = assemble_coefficients(ev.g, ev.calc.gamma, ev.S, ev.f, ev.u)
        G = assemble_gram(ev.g)
        dG = np.zeros_like(A)
        dG[:, :self.n, :self.n] = ev.calc.dg
        worst = 0.0
        for i in range(self.n):
            worst = max(worst, float(np.abs(dG[i] - A[i].T @ G - G @ A[i]).max()))
        return worst

    def parallel_map_residual(self, point, ev=None):
        """Residual of D F = 0: d_i F + [A_i, F] per direction."""
        ev = ev or self.spec.eval_at(point)
        n = self.n
        calc = ev.calc
        A = assemble_coefficients(ev.g, calc.gamma, ev.S, ev.f, ev.u)
        F = assemble_bundle_map(ev.f, ev.U, ev.u, ev.lam)
        du = np.array([calc.dg[p] @ ev.U + ev.g @ ev.dU[p] for p in range(n)])
        worst = 0.0
        for i in range(n):
            dF = assemble_bundle_map(ev.df[i], ev.dU[i], du[i], ev.dlam[i], 0.0)
            worst = max(worst, float(np.abs(dF + A[i] @ F - F @ A[i]).max()))
        return worst

    # -- transport ----------------------------------------------------------

    def transport_segment(self, p0, p1, M, step=DEFAULT_STEP):
        """RK4 transport of component matrix M along the straight segment."""
        p0 = np.asarray(p0, dtype=float)
        p1 = np.asarray(p1, dtype=float)
        delta = p1 - p0
        length = float(np.linalg.norm(delta))
        if length == 0.0:
            return M.copy()
        steps = max(1, int(np.ceil(length / step)))
        h = 1.0 / steps
        M = np.array(M, dtype=float)
        for first in range(0, steps, STAGE_BLOCK):
            count = min(STAGE_BLOCK, steps - first)
            # stage times of steps first .. first + count - 1: starts at
            # even, midpoints at odd indices; the last entry ends the block
            t = np.empty(2 * count + 1)
            t[0::2] = np.arange(first, first + count + 1) * h
            t[1::2] = t[:-1:2] + 0.5 * h
            A = assemble_coefficients(
                *self.spec.connection_data_batch(p0 + t[:, None] * delta))
            B = -np.einsum("i,jiab->jab", delta, A)
            for s in range(count):
                B2 = B[2 * s + 1]   # shared by the two midpoint stages
                k1 = B[2 * s] @ M
                k2 = B2 @ (M + 0.5 * h * k1)
                k3 = B2 @ (M + 0.5 * h * k2)
                k4 = B[2 * s + 2] @ (M + h * k3)
                M = M + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        return M

    def transport(self, waypoints, M=None, step=DEFAULT_STEP):
        """Transport along a polyline of waypoints (chart points)."""
        waypoints = [np.asarray(p, dtype=float) for p in waypoints]
        if len(waypoints) < 1:
            raise BundleError("empty path")
        if M is None:
            M = np.eye(self.fiber_dim)
        for a, b in zip(waypoints[:-1], waypoints[1:]):
            M = self.transport_segment(a, b, M, step=step)
        return M

    def gram_drift(self, waypoints, step=DEFAULT_STEP):
        """Deviation of M^T G(end) M from G(start) after transport."""
        M = self.transport(waypoints, step=step)
        G0 = self.gram(waypoints[0])
        G1 = self.gram(waypoints[-1])
        return float(np.abs(M.T @ G1 @ M - G0).max())


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


def rectangle_loop(p0, p1):
    """Closed axis-aligned loop through opposite corners p0 and p1 (2D)."""
    p0 = np.asarray(p0, dtype=float)
    p1 = np.asarray(p1, dtype=float)
    if len(p0) != 2:
        raise BundleError("rectangle loops need a 2-dimensional chart")
    a = (p0[0], p0[1])
    b = (p1[0], p0[1])
    c = (p1[0], p1[1])
    d = (p0[0], p1[1])
    return [a, b, c, d, a]


def holonomy_defect(conn, loop, step=DEFAULT_STEP):
    """Distance of the loop transport from the identity."""
    M = conn.transport(loop, step=step)
    return float(np.abs(M - np.eye(conn.fiber_dim)).max())
