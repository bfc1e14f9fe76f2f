"""The Minkowski model of S^k x H^(n-k+1) and its forward oracles.

The model lives in R^(n+3) with inner product
<x, y> = x_1 y_1 + ... + x_(n+2) y_(n+2) - x_(n+3) y_(n+3),
cut out by c1(x) = |x_(1..k+1)|^2 - 1 = 0 and
c2(x) = |x_(k+2..n+2)|^2 - x_(n+3)^2 + 1 = 0 with x_(n+3) > 0.

``extract_structure`` is the ground-truth oracle: it differentiates an
explicit hypersurface parametrization symbolically and reads off the
induced structure quintuple, which must then pass every compatibility
check.  ``solve_congruence`` realizes the uniqueness clause, and
``audit_equations`` settles the two sign/form ambiguities of the Gauss and
Codazzi equations empirically against extracted ground truth.
"""

from dataclasses import dataclass
from functools import cached_property, partial

import numpy as np

from . import expr as ex
from . import geometry as geo
from . import structure as st


class AmbientError(Exception):
    pass


class NotOnModelError(AmbientError):
    pass


@dataclass(frozen=True)
class AmbientModel:
    """S^k x H^(n-k+1) in the (n+3)-dimensional Minkowski space; points and
    vectors may carry leading axes."""

    n: int
    k: int

    def __post_init__(self):
        if not 1 <= self.k <= self.n:
            raise AmbientError(f"k must lie in 1..{self.n}")

    @property
    def dim(self):
        return self.n + 3

    @property
    def minkowski(self):
        return geo.minkowski_metric(self.dim)

    def inner(self, x, y):
        x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
        return geo.dot(x[..., :-1], y[..., :-1]) - x[..., -1] * y[..., -1]

    def xi1(self, x):
        return np.where(np.arange(self.dim) <= self.k, x, 0.0)

    def xi2(self, x):
        return x - self.xi1(x)

    @property
    def fhat(self):
        return np.diag(np.where(np.arange(self.dim) <= self.k, 1.0, -1.0))

    def on_model_residual(self, x):
        """max(|c1|, |c2|)."""
        s = self.k + 1
        c1 = geo.dot(x[..., :s], x[..., :s]) - 1.0
        c2 = self.inner(x[..., s:], x[..., s:]) + 1.0
        return np.maximum(np.abs(c1), np.abs(c2))

    def tangency_residual(self, x, v):
        return np.maximum(np.abs(self.inner(v, self.xi1(x))),
                          np.abs(self.inner(v, self.xi2(x))))

    def connection_correction(self, x, X, Y):
        """(<X + Fhat X, Y> xi1(x) - <X - Fhat X, Y> xi2(x)) / 2, which the
        model's connection adds to the flat derivative D_X Y at x."""
        FX = geo.matvec(self.fhat, X)
        corr1 = 0.5 * self.inner(X + FX, Y)
        corr2 = 0.5 * self.inner(X - FX, Y)
        return (corr1[..., None] * self.xi1(x)
                - corr2[..., None] * self.xi2(x))


# ---------------------------------------------------------------------------
# symbolic linear algebra helpers (small matrices of expressions)


def sym_minor(m, rows, cols, memo):
    """Determinant of the expression matrix ``m`` restricted to the row tuple
    ``rows`` and the column tuple ``cols``: Laplace expansion along rows[0],
    the columns in order, where the empty minor is 1.  ``memo`` keeps each
    minor built, keyed by (rows, cols); pass a fresh dict for each matrix."""
    if not rows:
        return ex.ONE
    det = memo.get((rows, cols))
    if det is None:
        det = ex.ZERO
        for j, c in enumerate(cols):
            minor = sym_minor(m, rows[1:], cols[:j] + cols[j + 1:], memo)
            term = ex.mul(m[rows[0]][c], minor)
            det = ex.add(det, term) if j % 2 == 0 else ex.sub(det, term)
        memo[(rows, cols)] = det
    return det


def sym_inverse(rows):
    """Inverse of a square matrix of expressions via the adjugate; the
    determinant and the cofactors share one memo of minors."""
    idx, memo = tuple(range(len(rows))), {}
    det = sym_minor(rows, idx, idx, memo)
    inv = [[None] * len(idx) for _ in idx]
    for i in idx:
        for j in idx:
            cof = sym_minor(rows, idx[:j] + idx[j + 1:], idx[:i] + idx[i + 1:],
                            memo)
            inv[i][j] = ex.div(ex.neg(cof) if (i + j) % 2 else cof, det)
    return inv


def minkowski_dot(u, v):
    """<u, v> of two expression vectors, the last slot timelike."""
    total = ex.ZERO
    for a, (ua, va) in enumerate(zip(u, v)):
        eta = ex.const(-1.0 if a == len(u) - 1 else 1.0)
        total = ex.add(total, ex.mul(eta, ex.mul(ua, va)))
    return total


def _dot(row, vec):
    total = ex.ZERO
    for r, v in zip(row, vec):
        total = ex.add(total, ex.mul(r, v))
    return total


# ---------------------------------------------------------------------------
# parametrized hypersurfaces and the extraction oracle


class ParametrizedHypersurface:
    """Explicit chart -> L^(n+3) parametrization with image in the model."""

    def __init__(self, chart, x, k, name=None):
        self.chart = chart
        self.x = tuple(xe if isinstance(xe, ex.Expr) else ex.parse(xe, chart.coords)
                       for xe in x)
        self.k = int(k)
        self.name = name
        if len(self.x) != chart.n + 3:
            raise AmbientError("parametrization must have n + 3 components")
        self.model = AmbientModel(chart.n, self.k)

    @property
    def n(self):
        return self.chart.n

    @cached_property
    def tangents(self):
        """The jacobian as coordinate vectors: tangents[i][a] = d_i x_a."""
        return [[ex.diff(xa, c) for xa in self.x] for c in self.chart.coords]

    def _fields(self, *extra):
        """Position x[a] and jacobian dx[a, i] = d_i x_a, then ``extra``."""
        return geo.compile_fields(
            [("x", np.array(self.x, dtype=object)),
             ("dx", np.array(self.tangents, dtype=object).T), *extra],
            self.chart.coords)

    @cached_property
    def _sample_evaluator(self):
        return self._fields()

    def check_on_model(self, grid=None, tol=1e-10, grid_density=None):
        """Raise unless the image stays on the model with rank-n jacobian;
        return the largest on-model residual.

        The error names the first failing grid point; at that point the
        residual is tested first, then the sheet, then the rank.
        """
        grid = (self.chart.grid(grid_density) if grid is None
                else geo.as_points(grid, self.n))

        def residuals(_, chunk):
            vals = self._sample_evaluator(chunk)
            x = vals["x"]
            res = self.model.on_model_residual(x)
            checks = ((res > tol, "not on model at {}: residual {:.3e}"),
                      (x[:, -1] <= 0.0, "lower hyperboloid sheet at {}"),
                      (np.linalg.matrix_rank(vals["dx"], tol=1e-10) < self.n,
                       "jacobian rank defect at {}"))
            bad = np.flatnonzero(np.any([fails for fails, _ in checks], 0))
            if len(bad):
                j = bad[0]
                text = next(text for fails, text in checks if fails[j])
                raise NotOnModelError(
                    text.format(tuple(map(float, chunk[j])), res[j]))
            return {"on_model": res}

        res = geo.chunk_arrays(residuals, grid)["on_model"]
        return float(res.max(initial=0.0))

    @cached_property
    def normal_exprs(self):
        """Spacelike unit normal (symbolic), sign fixed by orientation."""
        n, d = self.n, self.n + 3
        s = self.k + 1                  # the slots of the sphere factor
        xi1 = self.x[:s] + (ex.ZERO,) * (d - s)
        xi2 = (ex.ZERO,) * s + self.x[s:]
        mat = list(zip(*self.tangents, xi1, xi2))   # mat[a][v]: slot a of v
        # Minkowski cross product: component a of the (unnormalized) normal
        # is eta^aa (-1)^a det(the vectors with slot a removed); the extra
        # (-1)^n puts the normal after the tangent frame in the positive
        # orientation det(dx_1 .. dx_n, nu, xi1, xi2) > 0.
        memo = {}
        nu = [ex.mul(ex.const((-1) ** (a + n) * (-1.0 if a == d - 1 else 1.0)),
                     sym_minor(mat, tuple(b for b in range(d) if b != a),
                               tuple(range(d - 1)), memo))
              for a in range(d)]
        inv_norm = ex.div(ex.ONE, ex.call("sqrt", minkowski_dot(nu, nu)))
        return [ex.mul(na, inv_norm) for na in nu]

    @cached_property
    def _psi_evaluator(self):
        return self._fields(("nu", np.array(self.normal_exprs, dtype=object)))


def extract_structure(h):
    """Induced structure quintuple of a parametrized hypersurface.

    All fields are exact expressions, so the result feeds the same
    pipeline (checks, connection, flatness) as a hand-written structure.
    """
    tangents = h.tangents
    nu = h.normal_exprs
    fh = [ex.const(1.0 if a < h.k + 1 else -1.0) for a in range(h.n + 3)]
    g = [[minkowski_dot(ti, tj) for tj in tangents] for ti in tangents]
    ginv = sym_inverse(g)

    # the Minkowski-flat second derivative suffices for the shape operator:
    # <d2x, nu> kills the model's xi1/xi2 correction terms since nu is
    # orthogonal to xi1 and xi2 by construction.
    hform = [[minkowski_dot([ex.diff(ta, c) for ta in ti], nu)
              for c in h.chart.coords] for ti in tangents]
    fnu = [ex.mul(fa, na) for fa, na in zip(fh, nu)]
    ftangents = [[ex.mul(fa, ta) for fa, ta in zip(fh, tj)] for tj in tangents]
    t = [[minkowski_dot(ti, ftj) for ftj in ftangents] for ti in tangents]
    w = [minkowski_dot(ti, fnu) for ti in tangents]
    # an index raised with g^-1: S^i_j = g^(im) hform_mj, and so f and U
    S = [[_dot(gi, col) for col in zip(*hform)] for gi in ginv]
    f = [[_dot(gi, col) for col in zip(*t)] for gi in ginv]
    U = [_dot(gi, w) for gi in ginv]
    return st.StructureSpec(
        h.chart, *(np.array(a, dtype=object) for a in (g, S, f, U)),
        minkowski_dot(fnu, nu), declared_k=h.k)


def hypersurface_samples(h, points):
    """Ground-truth immersion samples straight from the parametrization."""
    from .reconstruct import Samples

    points = geo.as_points(points, h.n)
    vals = geo.chunk_arrays(lambda _, chunk: h._psi_evaluator(chunk), points)
    return Samples(points=points, psi=vals["x"], normal=vals["nu"],
                   dpsi=vals["dx"])


# ---------------------------------------------------------------------------
# congruence solver (uniqueness clause)


@dataclass
class Congruence:
    matrix: np.ndarray
    k: int
    sup_residual: float          # sup_p |Phi psi1(p) - psi2(p)|
    block_residual: float        # off-diagonal block mass
    orthogonality_residual: float
    preserves_sheet: bool
    residuals: np.ndarray        # |Phi psi1(p) - psi2(p)| at each point
    tolerance: float             # bound on sup_residual

    @property
    def congruent(self):
        return (self.sup_residual < self.tolerance
                and self.block_residual < 1e-8
                and self.orthogonality_residual < 1e-8 and self.preserves_sheet)


def solve_congruence(samples1, samples2, k, tol=1e-6):
    """Block isometry Phi in O(k+1) x O(n-k+1, 1) mapping samples1 to samples2.

    Built from the adapted frames (pushforward columns, normal, factor
    position vectors) at the first sample, then verified on all samples
    against ``tol``.
    """
    if len(samples1) != len(samples2) or not len(samples1):
        raise AmbientError("sample records must be matched and nonempty")
    model = AmbientModel(samples1.dpsi.shape[-1], k)

    def frame(s):
        x = s.psi[0]
        return np.column_stack([s.dpsi[0], s.normal[0], model.xi1(x),
                                model.xi2(x)])

    try:
        phi = frame(samples2) @ np.linalg.inv(frame(samples1))
    except np.linalg.LinAlgError:
        raise AmbientError("degenerate frame at the base sample") from None

    A = phi[:k + 1, :k + 1]
    B = phi[k + 1:, k + 1:]
    block_res = max(float(np.abs(phi[:k + 1, k + 1:]).max()),
                    float(np.abs(phi[k + 1:, :k + 1]).max()))
    J = geo.minkowski_metric(model.dim - k - 1)
    orth_res = max(float(np.abs(A.T @ A - np.eye(k + 1)).max()),
                   float(np.abs(B.T @ J @ B - J).max()))
    img = geo.matvec(phi, samples1.psi)
    residuals = np.abs(img - samples2.psi).max(-1)
    return Congruence(matrix=phi, k=k, sup_residual=float(residuals.max()),
                      block_residual=block_res,
                      orthogonality_residual=orth_res,
                      preserves_sheet=not (img[:, -1] <= 0.0).any(),
                      residuals=residuals, tolerance=tol)


# ---------------------------------------------------------------------------
# equation audit: which Gauss form / Codazzi sign matches the ambient model


# name -> check of a StructureEval, for each equation whose form or sign the
# audit settles; the first variant of each equation is the one admission runs
AUDIT_VARIANTS = {
    "gauss": {
        # R = (S^S) + (f((X^Y)Z) + (X^Y)fZ)/2
        "f_outside": st.check_gauss,
        # R = (S^S) + ((fX^fY)Z + (X^Y)fZ)/2
        "f_paired": partial(st.check_gauss, paired=True)},
    "codazzi": {
        # (nabla_X S)Y - (nabla_Y S)X = +(uX Y - uY X)/2
        "plus": st.check_codazzi,
        # the same with the opposite sign
        "minus": partial(st.check_codazzi, sign=-1.0)}}


@dataclass
class AuditReport:
    residuals: dict              # "<equation>_<variant>" -> sup residual
    tolerance: float

    def surviving(self, equation):
        """The variants of ``equation`` below the tolerance, in table order."""
        return [variant for variant in AUDIT_VARIANTS[equation]
                if self.residuals[f"{equation}_{variant}"] < self.tolerance]

    def to_dict(self):
        surviving = {eq: self.surviving(eq) for eq in AUDIT_VARIANTS}
        # with U = 0 both Codazzi signs give the same equation
        return {**self.residuals,
                **{f"surviving_{eq}": v for eq, v in surviving.items()},
                "codazzi_indistinguishable": len(surviving["codazzi"]) == 2,
                "tolerance": self.tolerance}


def audit_equations(h, grid=None, tol=1e-8, grid_density=None):
    """Evaluate every AUDIT_VARIANTS check on extracted data."""
    spec = extract_structure(h)
    grid = (spec.chart.grid(grid_density) if grid is None
            else geo.as_points(grid, h.n))
    checks = {f"{equation}_{variant}": check
              for equation, variants in AUDIT_VARIANTS.items()
              for variant, check in variants.items()}

    def residuals(_, chunk):
        ev = spec.eval_batch(chunk)
        return {key: check(ev) for key, check in checks.items()}

    return AuditReport({key: float(col.max(initial=0.0)) for key, col in
                        geo.chunk_arrays(residuals, grid).items()}, tol)


# ---------------------------------------------------------------------------
# catalog of expression-defined hypersurfaces

# name -> (k, coords, box, base point, parametrization x)
CATALOG = {
    # totally geodesic S^1 x H^1 slice inside S^1 x H^2 (n=2, k=1)
    "geodesic_slice": (
        1, ("u1", "u2"), ((-0.9, 0.9), (-0.9, 0.9)), (0.1, -0.2),
        ("cos(u1)", "sin(u1)", "0", "sinh(u2)", "cosh(u2)")),
    # S^1 x H^1 slice inside S^2 x H^1 with sphere-side normal (lambda = +1)
    "sphere_slice": (
        2, ("u1", "u2"), ((-0.9, 0.9), (-0.9, 0.9)), (-0.15, 0.25),
        ("cos(u1)", "sin(u1)", "0", "sinh(u2)", "cosh(u2)")),
    # unit-speed geodesic of S^1 x H^1, equal speed in both factors
    "diagonal_geodesic": (
        1, ("u1",), ((-1.0, 1.0),), (0.1,),
        (f"cos({2.0 ** -0.5!r}*u1)", f"sin({2.0 ** -0.5!r}*u1)",
         f"sinh({2.0 ** -0.5!r}*u1)", f"cosh({2.0 ** -0.5!r}*u1)")),
    # diagonal geodesic swept along the extra hyperbolic direction; the
    # tangent plane mixes the factors so U != 0 (a tilted product slice)
    "diagonal_cylinder": (
        1, ("u1", "u2"), ((-0.8, 0.8), (-0.8, 0.8)), (0.05, -0.1),
        ("cos(0.6*u1)", "sin(0.6*u1)", "sinh(u2)",
         "cosh(u2)*sinh(0.8*u1)", "cosh(u2)*cosh(0.8*u1)")),
    # non-geodesic curve in S^1 x H^1: nonzero shape operator coverage
    "perturbed_geodesic": (
        1, ("u1",), ((-1.0, 1.0),), (0.2,),
        ("cos(u1 + 0.2*sin(u1))", "sin(u1 + 0.2*sin(u1))",
         "sinh(u1 - 0.1*u1^2)", "cosh(u1 - 0.1*u1^2)")),
    # totally geodesic S^1 x H^2 slice inside S^1 x H^3 (n=3, k=1)
    "geodesic_slice_n3": (
        1, ("u1", "u2", "u3"),
        ((-0.4, 0.4), (-0.4, 0.4), (-0.4, 0.4)), (0.05, -0.1, 0.1),
        ("cos(u1)", "sin(u1)", "0", "u2", "u3", "sqrt(1 + u2^2 + u3^2)")),
}

CATALOG_ALIASES = {"tilted_slice": "diagonal_cylinder"}


def catalog_names():
    return sorted(CATALOG)


def catalog_entry(name):
    key = CATALOG_ALIASES.get(name, name)
    try:
        k, coords, box, base, x = CATALOG[key]
    except KeyError:
        raise AmbientError(
            f"unknown catalog entry {name!r}; known: "
            f"{sorted([*CATALOG, *CATALOG_ALIASES])}") from None
    return ParametrizedHypersurface(geo.Chart(coords, box, base), x, k,
                                    name=key)
