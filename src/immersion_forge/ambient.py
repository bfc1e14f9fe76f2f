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
from functools import cached_property

import numpy as np

from . import expr as ex
from . import geometry as geo
from . import structure as st


class AmbientError(Exception):
    pass


class NotOnModelError(AmbientError):
    pass


class NotTangentError(AmbientError):
    pass


@dataclass(frozen=True)
class AmbientModel:
    """S^k x H^(n-k+1) inside the (n+3)-dimensional Minkowski space."""

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
        return geo.minkowski_inner(x, y)

    def c1(self, x):
        s = self.k + 1
        return float(np.dot(x[:s], x[:s]) - 1.0)

    def c2(self, x):
        s = self.k + 1
        return float(np.dot(x[s:-1], x[s:-1]) - x[-1] * x[-1] + 1.0)

    def xi1(self, x):
        out = np.zeros(self.dim)
        out[:self.k + 1] = x[:self.k + 1]
        return out

    def xi2(self, x):
        out = np.zeros(self.dim)
        out[self.k + 1:] = x[self.k + 1:]
        return out

    @property
    def fhat(self):
        d = np.ones(self.dim)
        d[self.k + 1:] = -1.0
        return np.diag(d)

    def on_model_residual(self, x):
        return max(abs(self.c1(x)), abs(self.c2(x)))

    def tangency_residual(self, x, v):
        return max(abs(self.inner(v, self.xi1(x))),
                   abs(self.inner(v, self.xi2(x))))

    def require_tangent(self, x, *vectors, tol=1e-10):
        if self.on_model_residual(x) > tol:
            raise NotOnModelError(f"point off the model: {x}")
        for v in vectors:
            if self.tangency_residual(x, v) > tol:
                raise NotTangentError(f"vector not tangent at {x}: {v}")

    def wedge(self, X, Y, Z):
        """(X ^ Y) Z with respect to the induced (Minkowski) metric."""
        return self.inner(Y, Z) * np.asarray(X) - self.inner(X, Z) * np.asarray(Y)


def ambient_connection(model, x, X, Y, dY, tol=1e-10):
    """Levi-Civita connection of the model applied to tangent data.

    ``dY`` is the flat (componentwise) directional derivative D_X Y of the
    tangential extension of Y; the returned vector adds the second
    fundamental form of the model inside Minkowski space.
    """
    x = np.asarray(x, dtype=float)
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    model.require_tangent(x, X, Y, tol=tol)
    corr1 = 0.5 * model.inner(X + model.fhat @ X, Y)
    corr2 = 0.5 * model.inner(X - model.fhat @ X, Y)
    return np.asarray(dY, dtype=float) + corr1 * model.xi1(x) - corr2 * model.xi2(x)


def ambient_curvature(model, x, X, Y, Z, tol=1e-10):
    """Curvature R(X,Y)Z = (Fhat((X^Y)Z) + (X^Y)(Fhat Z)) / 2 of the model."""
    x = np.asarray(x, dtype=float)
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    Z = np.asarray(Z, dtype=float)
    model.require_tangent(x, X, Y, Z, tol=tol)
    F = model.fhat
    return 0.5 * (F @ model.wedge(X, Y, Z) + model.wedge(X, Y, F @ Z))


# ---------------------------------------------------------------------------
# symbolic linear algebra helpers (small matrices of expressions)


def sym_det(rows):
    """Determinant of a square matrix of expressions (Laplace expansion)."""
    m = len(rows)
    if m == 1:
        return rows[0][0]
    if m == 2:
        return ex.sub(ex.mul(rows[0][0], rows[1][1]),
                      ex.mul(rows[0][1], rows[1][0]))
    total = ex.ZERO
    for j in range(m):
        minor = [[row[c] for c in range(m) if c != j] for row in rows[1:]]
        term = ex.mul(rows[0][j], sym_det(minor))
        total = ex.add(total, term) if j % 2 == 0 else ex.sub(total, term)
    return total


def sym_inverse(rows):
    """Inverse of a square matrix of expressions via the adjugate."""
    m = len(rows)
    det = sym_det(rows)
    inv = [[None] * m for _ in range(m)]
    for i in range(m):
        for j in range(m):
            minor = [[rows[r][c] for c in range(m) if c != i]
                     for r in range(m) if r != j]
            cof = sym_det(minor) if m > 1 else ex.ONE
            if (i + j) % 2 == 1:
                cof = ex.neg(cof)
            inv[i][j] = ex.div(cof, det)
    return inv


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

    def _fields(self, *extra):
        """Position x[a] and jacobian dx[a, i] = d_i x_a, then ``extra``."""
        x = np.array(self.x, dtype=object)
        dx = geo.derivatives(x, self.chart.coords).T
        return geo.compile_fields([("x", x), ("dx", dx), *extra],
                                  self.chart.coords)

    @cached_property
    def _sample_evaluator(self):
        return self._fields()

    def check_on_model(self, grid=None, tol=1e-10, grid_density=8):
        """Raise unless the image stays on the model with rank-n jacobian."""
        if grid is None:
            grid = self.chart.grid(grid_density)
        worst = 0.0
        for point in grid:
            vals = self._sample_evaluator([point])
            x = vals["x"][0]
            res = self.model.on_model_residual(x)
            worst = max(worst, res)
            if res > tol:
                raise NotOnModelError(
                    f"not on model at {point}: residual {res:.3e}")
            if x[-1] <= 0.0:
                raise NotOnModelError(f"lower hyperboloid sheet at {point}")
            if np.linalg.matrix_rank(vals["dx"][0], tol=1e-10) < self.n:
                raise NotOnModelError(f"jacobian rank defect at {point}")
        return worst

    @cached_property
    def normal_exprs(self):
        """Spacelike unit normal (symbolic), sign fixed by orientation."""
        coords = self.chart.coords
        n, d = self.n, self.n + 3
        dx = [[ex.diff(xa, c) for c in coords] for xa in self.x]
        xi1 = [self.x[a] if a < self.k + 1 else ex.ZERO for a in range(d)]
        xi2 = [ex.ZERO if a < self.k + 1 else self.x[a] for a in range(d)]
        columns = [[dx[a][j] for a in range(d)] for j in range(n)] + [xi1, xi2]
        # Minkowski cross product: component a of the (unnormalized) normal
        # is eta^aa (-1)^a det(columns with slot a removed); the extra
        # (-1)^n puts the normal after the tangent frame in the positive
        # orientation det(dx_1 .. dx_n, nu, xi1, xi2) > 0.
        nu = []
        for a in range(d):
            rows = [[col[b] for b in range(d) if b != a] for col in columns]
            # rows currently lists each vector; determinant wants a matrix
            mat = [[rows[v][b] for v in range(d - 1)] for b in range(d - 1)]
            term = sym_det(mat)
            sign = (-1) ** (a + n)
            eta = -1.0 if a == d - 1 else 1.0
            coeff = sign * eta
            nu.append(ex.mul(ex.const(coeff), term))
        norm2 = ex.ZERO
        for a in range(d):
            eta = ex.const(-1.0 if a == d - 1 else 1.0)
            norm2 = ex.add(norm2, ex.mul(eta, ex.mul(nu[a], nu[a])))
        inv_norm = ex.div(ex.ONE, ex.call("sqrt", norm2))
        return [ex.mul(na, inv_norm) for na in nu]

    @cached_property
    def _psi_evaluator(self):
        return self._fields(("nu", np.array(self.normal_exprs, dtype=object)))

    def sample(self, point):
        """Position, jacobian and unit normal at a point (numeric)."""
        vals = self._psi_evaluator([point])
        return vals["x"][0], vals["dx"][0], vals["nu"][0]


def extract_structure(h):
    """Induced structure quintuple of a parametrized hypersurface.

    All fields are exact expressions, so the result feeds the same
    pipeline (checks, connection, flatness) as a hand-written structure.
    """
    chart = h.chart
    coords = chart.coords
    n, d = h.n, h.n + 3
    eta = [ex.const(-1.0 if a == d - 1 else 1.0) for a in range(d)]
    fh = [ex.const(1.0 if a < h.k + 1 else -1.0) for a in range(d)]

    dx = [[ex.diff(xa, c) for c in coords] for xa in h.x]
    ddx = [[[ex.diff(dx[a][i], coords[j]) for j in range(n)]
            for i in range(n)] for a in range(d)]
    nu = h.normal_exprs

    def minkowski_dot(u, v):
        total = ex.ZERO
        for a in range(d):
            total = ex.add(total, ex.mul(eta[a], ex.mul(u[a], v[a])))
        return total

    g = [[minkowski_dot([dx[a][i] for a in range(d)],
                        [dx[a][j] for a in range(d)])
          for j in range(n)] for i in range(n)]
    ginv = sym_inverse(g)

    # the Minkowski-flat second derivative suffices for the shape operator:
    # <d2x, nu> kills the model's xi1/xi2 correction terms since nu is
    # tangent to the model (asserted at runtime by require_tangent).
    hform = [[minkowski_dot([ddx[a][i][j] for a in range(d)], nu)
              for j in range(n)] for i in range(n)]
    S = [[_dot_row(ginv[i], [hform[m][j] for m in range(n)])
          for j in range(n)] for i in range(n)]

    fnu = [ex.mul(fh[a], nu[a]) for a in range(d)]
    lam = minkowski_dot(fnu, nu)
    w = [minkowski_dot([dx[a][m] for a in range(d)], fnu) for m in range(n)]
    U = [_dot_row(ginv[i], w) for i in range(n)]
    t = [[minkowski_dot([dx[a][m] for a in range(d)],
                        [ex.mul(fh[a], dx[a][j]) for a in range(d)])
          for j in range(n)] for m in range(n)]
    f = [[_dot_row(ginv[i], [t[m][j] for m in range(n)])
          for j in range(n)] for i in range(n)]

    return st.StructureSpec(
        chart,
        np.array(g, dtype=object),
        np.array(S, dtype=object),
        np.array(f, dtype=object),
        np.array(U, dtype=object),
        lam,
        declared_k=h.k,
    )


def _dot_row(row, vec):
    total = ex.ZERO
    for r, v in zip(row, vec):
        total = ex.add(total, ex.mul(r, v))
    return total


def hypersurface_samples(h, points):
    """Ground-truth immersion samples straight from the parametrization."""
    from .reconstruct import ImmersionSample

    out = []
    for point in points:
        x, dx, nu = h.sample(point)
        out.append(ImmersionSample(point=tuple(point), psi=x, normal=nu,
                                   dpsi=dx, residuals={}))
    return out


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

    @property
    def congruent(self):
        return (self.sup_residual < 1e-6 and self.block_residual < 1e-8
                and self.orthogonality_residual < 1e-8 and self.preserves_sheet)


def solve_congruence(samples1, samples2, k, base_index=0):
    """Block isometry Phi in O(k+1) x O(n-k+1, 1) mapping samples1 to samples2.

    Built from the adapted frames (pushforward columns, normal, factor
    position vectors) at the base sample, then verified on all samples.
    """
    if len(samples1) != len(samples2) or not samples1:
        raise AmbientError("sample lists must be matched and nonempty")
    s1 = samples1[base_index]
    s2 = samples2[base_index]
    d = len(s1.psi)
    n = d - 3

    def frame(s):
        M = np.zeros((d, d))
        M[:, :n] = s.dpsi
        M[:, n] = s.normal
        M[:k + 1, n + 1] = s.psi[:k + 1]       # sphere-factor position
        M[k + 1:, n + 2] = s.psi[k + 1:]       # hyperbolic-factor position
        return M

    M1 = frame(s1)
    M2 = frame(s2)
    try:
        phi = M2 @ np.linalg.inv(M1)
    except np.linalg.LinAlgError:
        raise AmbientError("degenerate frame at the base sample") from None

    A = phi[:k + 1, :k + 1]
    B = phi[k + 1:, k + 1:]
    block_res = max(float(np.abs(phi[:k + 1, k + 1:]).max()),
                    float(np.abs(phi[k + 1:, :k + 1]).max()))
    J = geo.minkowski_metric(d - k - 1)
    orth_res = max(float(np.abs(A.T @ A - np.eye(k + 1)).max()),
                   float(np.abs(B.T @ J @ B - J).max()))
    sup = 0.0
    sheet_ok = True
    for a, b in zip(samples1, samples2):
        img = phi @ a.psi
        sup = max(sup, float(np.abs(img - b.psi).max()))
        if img[-1] <= 0.0:
            sheet_ok = False
    return Congruence(matrix=phi, k=k, sup_residual=sup,
                      block_residual=block_res,
                      orthogonality_residual=orth_res,
                      preserves_sheet=sheet_ok)


# ---------------------------------------------------------------------------
# equation audit: which Gauss form / Codazzi sign matches the ambient model


@dataclass
class AuditReport:
    gauss_f_outside: float       # R = (S^S) + (f((X^Y)Z) + (X^Y)fZ)/2
    gauss_f_paired: float        # R = (S^S) + ((fX^fY)Z + (X^Y)fZ)/2
    codazzi_plus: float          # (nabla_X S)Y - (nabla_Y S)X = +(uX Y - uY X)/2
    codazzi_minus: float         # same with opposite sign
    tolerance: float

    @property
    def surviving_gauss(self):
        out = []
        if self.gauss_f_outside < self.tolerance:
            out.append("f_outside")
        if self.gauss_f_paired < self.tolerance:
            out.append("f_paired")
        return out

    @property
    def surviving_codazzi(self):
        out = []
        if self.codazzi_plus < self.tolerance:
            out.append("plus")
        if self.codazzi_minus < self.tolerance:
            out.append("minus")
        return out

    @property
    def codazzi_indistinguishable(self):
        return (self.codazzi_plus < self.tolerance
                and self.codazzi_minus < self.tolerance)

    def to_dict(self):
        return {
            "gauss_f_outside": self.gauss_f_outside,
            "gauss_f_paired": self.gauss_f_paired,
            "codazzi_plus": self.codazzi_plus,
            "codazzi_minus": self.codazzi_minus,
            "surviving_gauss": self.surviving_gauss,
            "surviving_codazzi": self.surviving_codazzi,
            "codazzi_indistinguishable": self.codazzi_indistinguishable,
            "tolerance": self.tolerance,
        }


def audit_equations(h, grid=None, tol=1e-8, grid_density=8):
    """Evaluate both Gauss forms and both Codazzi signs on extracted data."""
    spec = extract_structure(h)
    if grid is None:
        grid = spec.chart.grid(grid_density)
    sup = dict.fromkeys(("gauss_f_outside", "gauss_f_paired",
                         "codazzi_plus", "codazzi_minus"), 0.0)
    for point in grid:
        ev = spec.eval_at(point)
        values = (st.check_gauss(spec, point, ev),
                  st.check_gauss(spec, point, ev, paired=True),
                  st.check_codazzi(spec, point, ev),
                  st.check_codazzi(spec, point, ev, sign=-1.0))
        for key, val in zip(sup, values):
            sup[key] = max(sup[key], val)
    return AuditReport(**sup, tolerance=tol)


# ---------------------------------------------------------------------------
# catalog of expression-defined hypersurfaces


def _chart(coords, box, base):
    return geo.Chart(tuple(coords), tuple(tuple(b) for b in box), tuple(base))


def _entry_geodesic_slice():
    # totally geodesic S^1 x H^1 slice inside S^1 x H^2 (n=2, k=1)
    chart = _chart(("u1", "u2"), ((-0.9, 0.9), (-0.9, 0.9)), (0.1, -0.2))
    x = ("cos(u1)", "sin(u1)", "0", "sinh(u2)", "cosh(u2)")
    return ParametrizedHypersurface(chart, x, k=1, name="geodesic_slice")


def _entry_sphere_slice():
    # S^1 x H^1 slice inside S^2 x H^1 with sphere-side normal (lambda = +1)
    chart = _chart(("u1", "u2"), ((-0.9, 0.9), (-0.9, 0.9)), (-0.15, 0.25))
    x = ("cos(u1)", "sin(u1)", "0", "sinh(u2)", "cosh(u2)")
    return ParametrizedHypersurface(chart, x, k=2, name="sphere_slice")


DIAGONAL_A = 2.0 ** -0.5
DIAGONAL_B = 2.0 ** -0.5


def _entry_diagonal_geodesic(a=DIAGONAL_A, b=DIAGONAL_B):
    chart = _chart(("u1",), ((-1.0, 1.0),), (0.1,))
    x = (f"cos({a!r}*u1)", f"sin({a!r}*u1)",
         f"sinh({b!r}*u1)", f"cosh({b!r}*u1)")
    return ParametrizedHypersurface(chart, x, k=1, name="diagonal_geodesic")


def _entry_diagonal_cylinder(a=0.6, b=0.8):
    # diagonal geodesic swept along the extra hyperbolic direction; the
    # tangent plane mixes the factors so U != 0 (a tilted product slice)
    chart = _chart(("u1", "u2"), ((-0.8, 0.8), (-0.8, 0.8)), (0.05, -0.1))
    x = (f"cos({a!r}*u1)", f"sin({a!r}*u1)", "sinh(u2)",
         f"cosh(u2)*sinh({b!r}*u1)", f"cosh(u2)*cosh({b!r}*u1)")
    return ParametrizedHypersurface(chart, x, k=1, name="diagonal_cylinder")


def _entry_perturbed_geodesic():
    # non-geodesic curve in S^1 x H^1: nonzero shape operator coverage
    chart = _chart(("u1",), ((-1.0, 1.0),), (0.2,))
    x = ("cos(u1 + 0.2*sin(u1))", "sin(u1 + 0.2*sin(u1))",
         "sinh(u1 - 0.1*u1^2)", "cosh(u1 - 0.1*u1^2)")
    return ParametrizedHypersurface(chart, x, k=1, name="perturbed_geodesic")


def _entry_geodesic_slice_n3():
    # totally geodesic S^1 x H^2 slice inside S^1 x H^3 (n=3, k=1)
    chart = _chart(("u1", "u2", "u3"),
                   ((-0.4, 0.4), (-0.4, 0.4), (-0.4, 0.4)), (0.05, -0.1, 0.1))
    x = ("cos(u1)", "sin(u1)", "0", "u2", "u3", "sqrt(1 + u2^2 + u3^2)")
    return ParametrizedHypersurface(chart, x, k=1, name="geodesic_slice_n3")


CATALOG_BUILDERS = {
    "geodesic_slice": _entry_geodesic_slice,
    "sphere_slice": _entry_sphere_slice,
    "diagonal_geodesic": _entry_diagonal_geodesic,
    "diagonal_cylinder": _entry_diagonal_cylinder,
    "perturbed_geodesic": _entry_perturbed_geodesic,
    "geodesic_slice_n3": _entry_geodesic_slice_n3,
}

CATALOG_ALIASES = {"tilted_slice": "diagonal_cylinder"}


def catalog_names():
    return sorted(CATALOG_BUILDERS)


def catalog_entry(name):
    key = CATALOG_ALIASES.get(name, name)
    try:
        return CATALOG_BUILDERS[key]()
    except KeyError:
        raise AmbientError(
            f"unknown catalog entry {name!r}; known: {catalog_names()}"
        ) from None
