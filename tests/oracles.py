"""Per-point reference versions of the chart grid, of the admission
checks, of the reconstruction's sample read-off, of the theorem checks
and of the congruence solver, per-point residuals of the bundle
connection, and the helpers that only the tests run.

The admission checks are the triple loops the batched checks in
``structure`` replaced: one point at a time, one basis vector, pair or
triple per iteration.  The theorem checks and the congruence solver are the
per-sample loops the array expressions over a ``reconstruct.Samples``
record replaced, with the model's inner product and factor positions
written out for one point.  The tests compare the batched code against
them, and compare each batched evaluation against itself on SUB_BATCHES.

The test-only helpers are references that no command runs:

* ``reference_parse``: the grammar reference, the recursive-descent
  parser with one method per precedence level that ``expr.parse``'s one
  precedence loop replaced, without the guard ``expr.parse`` builds each
  node through;
* ``evaluate``: an expression at one point, a node at a time in Python
  floats, against which the compiled tapes are checked; its functions and
  powers are ``_apply_unary`` and ``_apply_pow``, the ``math`` reference
  for the numpy op table that the tapes run and constants fold through;
* ``expr_matrix`` and ``structure_from_strings``: fields from expression
  strings; ``MetricField.calculus_at``: the metric calculus at one point;
* ``eigen_multiplicity_k``: k from the +1 eigenspace of F, independent of
  the trace identity;
* ``transport``, ``gram_drift``, ``rectangle_loop`` and
  ``holonomy_defect``: transport along polylines and closed loops;
* ``randomize_frame``: a random block isometry of an adapted base frame,
  for the uniqueness clause;
* ``require_tangent``, ``model_wedge``, ``ambient_connection`` and
  ``ambient_curvature``: the connection and curvature of the model
  S^k x H^(n-k+1) applied to tangent vectors at one point;
* ``reference_sym_det``, ``reference_sym_inverse``,
  ``reference_normal_exprs`` and ``reference_extract_structure``: the
  extraction reference, one Laplace expansion with no memo per
  determinant, which ``ambient.sym_minor``'s memoized minors replaced;
  the tests check that ``ambient`` builds the very same nodes;
* ``slice_hypersurface``, ``mixed_s2h2`` and ``mixed_s2h3``: ground truth
  beyond the catalog, in n = 4 ... 7 and with k = 2, and
  ``hypersurface_document``, the CLI input document of one of them;
* ``scaled_shape_operator``: a structure with S scaled by a constant, an
  inadmissible mutant of an admissible one.
"""

import math
import re
from functools import cached_property

import numpy as np

from immersion_forge import ambient as am
from immersion_forge import bundle as bd
from immersion_forge import expr as ex
from immersion_forge import geometry as geo
from immersion_forge import structure as st
from immersion_forge.ambient import AmbientModel, NotOnModelError
from immersion_forge.expr import (
    FUNCTIONS, NAMED_CONSTANTS, DomainError, ExprError, ParseError, add, call,
    const, div, mul, neg, powc, sub, var)
from immersion_forge.geometry import GRID_MARGIN, SingularMetricError

# sub-batches at unaligned offsets and of odd lengths, up to row 1 032: a
# batch row must not depend on where in a batch, or in what batch, it is
SUB_BATCHES = [slice(start, start + length) for start in (1, 3, 7)
               for length in (1, 3, 5, 17, 257, 1025)]


def chart_grid(chart, density):
    """The chart grid as a list of point tuples, one meshgrid entry at a
    time, row-major: the construction ``Chart.grid``'s array replaced."""
    axes = []
    for lo, hi in chart.box:
        pad = GRID_MARGIN * (hi - lo)
        axes.append(np.linspace(lo + pad, hi - pad, density))
    mesh = np.meshgrid(*axes, indexing="ij")
    return [tuple(float(m[idx]) for m in mesh)
            for idx in np.ndindex(*mesh[0].shape)]


def wedge(v, w, z, g):
    """(v ^ w) z = g(w, z) v - g(v, z) w."""
    v = np.asarray(v, dtype=float)
    w = np.asarray(w, dtype=float)
    z = np.asarray(z, dtype=float)
    return float(w @ g @ z) * v - float(v @ g @ z) * w


def gnorm(g, v):
    return float(np.sqrt(max(0.0, float(v @ g @ v))))


def nabla(T, dT, gamma, i):
    """(nabla_i T)^a_b of a (1,1)-tensor from its values and d_i T."""
    return dT[i] + gamma[:, i, :] @ T - T @ gamma[:, i, :]


def _operator_defect(M, ginv):
    # M carries lowered output index; measure columns in the dual metric
    return max(float(np.sqrt(max(0.0, M[:, j] @ ginv @ M[:, j])))
               for j in range(M.shape[1]))


def check_algebraic(spec, ev):
    g, f, S, U, lam = ev.g, ev.f, ev.S, ev.U, float(ev.lam)
    u = g @ U
    n = spec.n
    res = {}
    res["f_symmetric"] = _operator_defect(f.T @ g - g @ f, ev.calc.ginv)
    res["S_symmetric"] = _operator_defect(S.T @ g - g @ S, ev.calc.ginv)
    ff_defect = f @ f - np.eye(n) + np.outer(U, u)
    res["f_squared"] = max(gnorm(g, ff_defect[:, j]) for j in range(n))
    res["fU"] = gnorm(g, f @ U + lam * U)
    res["unit"] = abs(float(u @ U) + lam * lam - 1.0)
    return res


def check_gauss(spec, ev, paired=False):
    n = spec.n
    if n == 1:
        return 0.0
    g, S, f, riem = ev.g, ev.S, ev.f, ev.calc.riem
    eye = np.eye(n)
    worst = 0.0
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(n):
                lhs = riem[:, i, j, k]
                wSS = wedge(S[:, i], S[:, j], eye[:, k], g)
                wIJf = wedge(eye[:, i], eye[:, j], f[:, k], g)
                if paired:
                    wf = wedge(f[:, i], f[:, j], eye[:, k], g)
                else:
                    wf = f @ wedge(eye[:, i], eye[:, j], eye[:, k], g)
                rhs = wSS + 0.5 * (wf + wIJf)
                worst = max(worst, gnorm(g, lhs - rhs))
    return worst


def check_codazzi(spec, ev, sign=1.0):
    n = spec.n
    if n == 1:
        return 0.0
    g = ev.g
    u = g @ ev.U
    eye = np.eye(n)
    worst = 0.0
    nab = [nabla(ev.S, ev.dS, ev.calc.gamma, i) for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            lhs = nab[i][:, j] - nab[j][:, i]
            rhs = 0.5 * (u[i] * eye[:, j] - u[j] * eye[:, i])
            worst = max(worst, gnorm(g, lhs - sign * rhs))
    return worst


def check_gradients(spec, ev):
    n = spec.n
    g, S, f, U, lam = ev.g, ev.S, ev.f, ev.U, float(ev.lam)
    gamma = ev.calc.gamma
    u = g @ U
    res_f = 0.0
    res_U = 0.0
    res_lam = 0.0
    for i in range(n):
        Si = S[:, i]
        gSi = g @ Si
        nf = nabla(f, ev.df, gamma, i)
        for j in range(n):
            rhs = u[j] * Si + gSi[j] * U
            res_f = max(res_f, gnorm(g, nf[:, j] - rhs))
        nU = ev.dU[i] + gamma[:, i, :] @ U
        res_U = max(res_U, gnorm(g, nU - (lam * Si - f @ Si)))
        res_lam = max(res_lam, abs(float(ev.dlam[i]) + 2.0 * float(gSi @ U)))
    return {"grad_f": res_f, "grad_U": res_U, "grad_lambda": res_lam}


def point_residuals(spec, ev):
    alg = check_algebraic(spec, ev)
    grads = check_gradients(spec, ev)
    return {
        "C1_algebraic": max(alg.values()),
        "C2_gauss": check_gauss(spec, ev),
        "C3_codazzi": check_codazzi(spec, ev),
        "C4_grad_f": grads["grad_f"],
        "C5_grad_U": grads["grad_U"],
        "C6_grad_lambda": grads["grad_lambda"],
    }


def admit(spec, grid, tol=st.DEFAULT_TOLERANCE):
    """The per-point admission loop.  Returns the fields of
    ``structure.CompatibilityReport`` that admission computes, plus
    ``values``: key -> [(point, residual)] over the usable points, each
    point a tuple as the report gives it."""
    grid = [tuple(map(float, p)) for p in grid]
    n = spec.n
    sup = {key: 0.0 for key in st.RESIDUAL_KEYS}
    worst = {key: None for key in st.RESIDUAL_KEYS}
    values = {key: [] for key in st.RESIDUAL_KEYS}
    reasons, skipped, per_point, traces = [], [], [], []
    f_identity_everywhere = True

    def record(key, val, point):
        values[key].append((point, val))
        if worst[key] is None or val > sup[key]:
            sup[key] = val
            worst[key] = point

    for point in grid:
        try:
            ev = spec.eval_at(point)
        except SingularMetricError:
            skipped.append(point)
            per_point.append(None)
            continue
        per = point_residuals(spec, ev)
        per_point.append(per)
        traces.append((point, float(np.trace(ev.f)) + float(ev.lam)))
        if min(float(np.abs(ev.f - np.eye(n)).max()),
               float(np.abs(ev.f + np.eye(n)).max())) > tol:
            f_identity_everywhere = False
        for key, val in per.items():
            record(key, val, point)
    k = None
    if not traces:
        reasons.append("no usable grid points")
    else:
        try:
            k = st.determine_k(spec, grid[0], tol=max(tol, 1e-8))
        except (st.StructureError, SingularMetricError) as exc:
            reasons.append(str(exc))
        target = ((2 * k - n - 1) if k is not None
                  else float(np.mean([t for _, t in traces])))
        for point, t in traces:
            record("k_consistency", abs(t - target), point)
        if f_identity_everywhere:
            reasons.append("excluded case f = +/-Id")
        for key in st.RESIDUAL_KEYS:
            if sup[key] > tol:
                reasons.append(
                    f"{key} residual {sup[key]:.3e} exceeds {tol:.1e}")
        if skipped:
            reasons.append(
                f"{len(skipped)} grid points skipped (singular metric)")
    return {"residuals": sup, "worst_points": worst, "k": k,
            "reasons": reasons, "skipped_points": skipped,
            "per_point": per_point, "values": values}


def audit(spec, grid):
    """Sups of both Gauss forms and both Codazzi signs, point by point."""
    sup = dict.fromkeys(("gauss_f_outside", "gauss_f_paired",
                         "codazzi_plus", "codazzi_minus"), 0.0)
    for point in grid:
        ev = spec.eval_at(point)
        values = (check_gauss(spec, ev), check_gauss(spec, ev, paired=True),
                  check_codazzi(spec, ev), check_codazzi(spec, ev, sign=-1.0))
        for key, val in zip(sup, values):
            sup[key] = max(sup[key], val)
    return sup


def check_on_model(h, grid, tol=1e-10):
    """The per-point on-model check: residual, then sheet, then rank; the
    error names the point as a tuple."""
    grid = [tuple(map(float, p)) for p in grid]
    worst = 0.0
    for point in grid:
        vals = h._sample_evaluator([point])
        x = vals["x"][0]
        res = h.model.on_model_residual(x)
        worst = max(worst, res)
        if res > tol:
            raise NotOnModelError(
                f"not on model at {point}: residual {res:.3e}")
        if x[-1] <= 0.0:
            raise NotOnModelError(f"lower hyperboloid sheet at {point}")
        if np.linalg.matrix_rank(vals["dx"][0], tol=1e-10) < h.n:
            raise NotOnModelError(f"jacobian rank defect at {point}")
    return worst


# ---------------------------------------------------------------------------
# flatness, metricity and D F = 0 of the bundle connection at one point


def coefficient_derivatives(spec, point, ev=None):
    """dA[p, i] = d_p A_i via the product rule on exact field derivatives."""
    ev = ev or spec.eval_at(point)
    n = spec.n
    calc = ev.calc
    g, dg = calc.g, calc.dg
    S, dS, f, df, U, dU = ev.S, ev.dS, ev.f, ev.df, ev.U, ev.dU
    du = np.array([dg[p] @ U + g @ dU[p] for p in range(n)])
    dgS = np.array([dg[p] @ S + g @ dS[p] for p in range(n)])
    dgf = np.array([dg[p] @ f + g @ df[p] for p in range(n)])
    return bd._coefficient_blocks(dg, calc.dgamma, dgS, dgf, dS, df, du, 0.0)


def flatness_residual(spec, point, ev=None):
    """sup_{i<j} max-entry of d_i A_j - d_j A_i + [A_i, A_j]."""
    ev = ev or spec.eval_at(point)
    A = bd.assemble_coefficients(ev.g, ev.calc.gamma, ev.S, ev.f, ev.u)
    dA = coefficient_derivatives(spec, point, ev)
    worst = 0.0
    for i in range(spec.n):
        for j in range(i + 1, spec.n):
            R = dA[i, j] - dA[j, i] + A[i] @ A[j] - A[j] @ A[i]
            worst = max(worst, float(np.abs(R).max()))
    return worst


def metric_residual(spec, point, ev=None):
    """Compatibility of D with the fiber metric: d_i G = A_i^T G + G A_i."""
    ev = ev or spec.eval_at(point)
    A = bd.assemble_coefficients(ev.g, ev.calc.gamma, ev.S, ev.f, ev.u)
    G = bd.assemble_gram(ev.g)
    dG = np.zeros_like(A)
    dG[:, :spec.n, :spec.n] = ev.calc.dg
    worst = 0.0
    for i in range(spec.n):
        worst = max(worst, float(np.abs(dG[i] - A[i].T @ G - G @ A[i]).max()))
    return worst


def parallel_map_residual(spec, point, ev=None):
    """Residual of D F = 0: d_i F + [A_i, F] per direction."""
    ev = ev or spec.eval_at(point)
    calc = ev.calc
    A = bd.assemble_coefficients(ev.g, calc.gamma, ev.S, ev.f, ev.u)
    F = bd.assemble_bundle_map(ev.f, ev.U, ev.u, ev.lam)
    du = np.array([calc.dg[p] @ ev.U + ev.g @ ev.dU[p] for p in range(spec.n)])
    worst = 0.0
    for i in range(spec.n):
        dF = bd.assemble_bundle_map(ev.df[i], ev.dU[i], du[i], ev.dlam[i], 0.0)
        worst = max(worst, float(np.abs(dF + A[i] @ F - F @ A[i]).max()))
    return worst


def sample_from_frame(spec, point, M, k):
    """psi, N and dpsi at one point from its frame components M."""
    n = spec.n
    N = n + 3
    g, *_ = spec.connection_data_at(point)
    P = bd.assemble_gram(g) @ M                 # P[b, a] = G(e_b, eta_a)
    eps = np.ones(N)
    eps[-1] = -1.0
    rows = np.array([n + 1] * (k + 1) + [n + 2] * (n - k + 2))
    return (eps * P[rows, np.arange(N)], eps * P[n, :],
            (eps[None, :] * P[:n, :]).T)


# ---------------------------------------------------------------------------
# theorem checks and congruence, one sample at a time


def minkowski_inner(x, y):
    return float(np.dot(x[:-1], y[:-1]) - x[-1] * y[-1])


def factor_positions(model, x):
    """(xi1, xi2): x on the sphere slots and on the hyperbolic slots."""
    xi1 = np.zeros(model.dim)
    xi1[:model.k + 1] = x[:model.k + 1]
    xi2 = np.zeros(model.dim)
    xi2[model.k + 1:] = x[model.k + 1:]
    return xi1, xi2


def shape_fd_residual(imm, model, s, ev, h=1e-4):
    """|nabla_v N + psi_*(S v)| at one sample, sup over the coordinate
    directions, each +-h segment transported and read off on its own."""
    point = tuple(s.points)
    eye = np.eye(imm.spec.n)
    xi1, xi2 = factor_positions(model, s.psi)
    worst = 0.0
    for i, (lo, hi) in enumerate(imm.spec.chart.box):
        hp = min(h, 0.25 * (hi - point[i]), 0.25 * (point[i] - lo))
        if hp <= 0.0:
            continue
        normals = []
        for sign in (1.0, -1.0):
            p1 = np.add(point, sign * hp * eye[i])
            M = imm.conn.transport_segment(point, p1, imm.frames[point],
                                           step=imm.step)
            normals.append(sample_from_frame(imm.spec, p1, M, imm.k)[1])
        dN = (normals[0] - normals[1]) / (2.0 * hp)
        X, FX = s.dpsi[:, i], model.fhat @ s.dpsi[:, i]
        corr = (0.5 * minkowski_inner(X + FX, s.normal) * xi1
                - 0.5 * minkowski_inner(X - FX, s.normal) * xi2)
        defect = dN + corr + s.dpsi @ ev.S[:, i]
        worst = max(worst, float(np.abs(defect).max()))
    return worst


def theorem_residuals(imm, samples):
    """The per-sample checks of ``validate_theorem`` on the samples of
    ``imm``: name -> array of values, in the record's order."""
    spec = imm.spec
    model = AmbientModel(spec.n, imm.k)
    J = model.minkowski
    Fhat = model.fhat
    out = {key: [] for key in ("quadric", "isometry", "normal",
                               "product_relations", "shape_operator")}
    for j in range(len(samples)):
        s = samples[j]
        ev = spec.eval_at(tuple(s.points))
        x = s.psi
        quad = model.on_model_residual(x)
        if x[-1] <= 0.0:
            quad = max(quad, 1.0)       # wrong hyperboloid sheet
        out["quadric"].append(quad)
        out["isometry"].append(float(
            np.abs(s.dpsi.T @ J @ s.dpsi - ev.g).max()))
        xi1, xi2 = factor_positions(model, x)
        out["normal"].append(max(
            abs(minkowski_inner(s.normal, s.normal) - 1.0),
            float(np.abs(s.dpsi.T @ J @ s.normal).max()),
            max(abs(minkowski_inner(s.normal, xi1)),
                abs(minkowski_inner(s.normal, xi2)))))
        prod = float(np.abs(Fhat @ s.dpsi
                            - s.dpsi @ ev.f - np.outer(s.normal, ev.u)).max())
        prod = max(prod, float(np.abs(
            Fhat @ s.normal - s.dpsi @ ev.U - ev.lam * s.normal).max()))
        out["product_relations"].append(prod)
        out["shape_operator"].append(shape_fd_residual(imm, model, s, ev))
    return {key: np.array(vals) for key, vals in out.items()}


def congruence(samples1, samples2, k):
    """The per-sample congruence solver: Phi from the frames at the first
    sample, then |Phi psi1 - psi2| at each sample, its sup and whether Phi
    keeps every image on the upper sheet."""
    s1 = samples1[0]
    s2 = samples2[0]
    d = len(s1.psi)
    n = d - 3

    def frame(s):
        M = np.zeros((d, d))
        M[:, :n] = s.dpsi
        M[:, n] = s.normal
        M[:k + 1, n + 1] = s.psi[:k + 1]
        M[k + 1:, n + 2] = s.psi[k + 1:]
        return M

    phi = frame(s2) @ np.linalg.inv(frame(s1))
    residuals = []
    sup = 0.0
    sheet_ok = True
    for j in range(len(samples1)):
        img = phi @ samples1.psi[j]
        residuals.append(float(np.abs(img - samples2.psi[j]).max()))
        sup = max(sup, residuals[-1])
        if img[-1] <= 0.0:
            sheet_ok = False
    return {"matrix": phi, "residuals": np.array(residuals), "sup": sup,
            "preserves_sheet": sheet_ok}


# ---------------------------------------------------------------------------
# scalar expression evaluation, one point at a time


def evaluate(e, env):
    """Evaluate at a point given as a mapping of coordinate name -> float."""
    val = {}
    for node in ex.postorder([e]):
        if node.kind == "const":
            v = node.value
        elif node.kind == "var":
            try:
                v = float(env[node.value])
            except KeyError:
                raise ex.ExprError(
                    f"unbound coordinate {node.value!r}") from None
        elif node.kind == "call":
            v = _apply_unary(node.op, val[id(node.args[0])])
        else:
            a = val[id(node.args[0])]
            b = val[id(node.args[1])]
            if node.op == "+":
                v = a + b
            elif node.op == "-":
                v = a - b
            elif node.op == "*":
                v = a * b
            elif node.op == "/":
                v = _apply_div(a, b)
            else:
                v = _apply_pow(a, b)
        if v != v or v in (float("inf"), float("-inf")):
            raise ex.DomainError(f"non-finite value in {node.op or node.kind}")
        val[id(node)] = v
    return val[id(e)]


def _apply_div(a, b):
    if b == 0.0:
        raise ex.DomainError("division by zero")
    return a / b


def _apply_unary(op, x):
    try:
        if op == "neg":
            return -x
        if op == "log":
            if x <= 0.0:
                raise DomainError(f"log of nonpositive value {x}")
            return math.log(x)
        if op == "sqrt":
            if x < 0.0:
                raise DomainError(f"sqrt of negative value {x}")
            return math.sqrt(x)
        return getattr(math, op)(x)
    except OverflowError as exc:
        raise DomainError(str(exc)) from exc


def _apply_pow(b, c):
    if float(c).is_integer():
        if b == 0.0 and c < 0:
            raise DomainError("zero raised to a negative power")
        try:
            return b ** c
        except OverflowError as exc:
            raise DomainError(str(exc)) from exc
    if b <= 0.0:
        raise DomainError(f"non-integer power of nonpositive base {b}")
    try:
        return math.exp(c * math.log(b))
    except OverflowError as exc:
        raise DomainError(str(exc)) from exc


# ---------------------------------------------------------------------------
# the grammar reference: the recursive-descent parser that ``expr.parse``'s
# precedence loop replaced, one method per precedence level

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+\.?\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[a-zA-Z][a-zA-Z0-9_]*)"
    r"|(?P<op>[-+*/^()]))"
)


def _tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            raise ParseError(f"unexpected character {stripped[0]!r}",
                             len(text) - len(stripped))
        off = m.start("num") if m.group("num") else (
            m.start("ident") if m.group("ident") else m.start("op"))
        if m.group("num"):
            tokens.append(("num", m.group("num"), off))
        elif m.group("ident"):
            tokens.append(("ident", m.group("ident"), off))
        else:
            tokens.append(("op", m.group("op"), off))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, tokens, coords):
        self.tokens = tokens
        self.i = 0
        self.coords = set(coords)

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, symbol):
        kind, val, off = self.next()
        if kind != "op" or val != symbol:
            raise ParseError(f"expected {symbol!r}", off)

    def parse_expr(self):
        node = self.parse_term()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "+-":
                self.next()
                rhs = self.parse_term()
                node = add(node, rhs) if val == "+" else sub(node, rhs)
            else:
                return node

    def parse_term(self):
        node = self.parse_factor()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "*/":
                self.next()
                rhs = self.parse_factor()
                node = mul(node, rhs) if val == "*" else div(node, rhs)
            else:
                return node

    def parse_factor(self):
        kind, val, off = self.peek()
        if kind == "op" and val == "-":
            self.next()
            return neg(self.parse_factor())
        base = self.parse_atom()
        kind, val, off = self.peek()
        if kind == "op" and val == "^":
            self.next()
            expo = self.parse_factor()
            try:
                return powc(base, expo)
            except ExprError as exc:
                raise ParseError(str(exc), off) from exc
        return base

    def parse_atom(self):
        kind, val, off = self.next()
        if kind == "num":
            return const(float(val))
        if kind == "op" and val == "(":
            node = self.parse_expr()
            self.expect_op(")")
            return node
        if kind == "ident":
            nkind, nval, _ = self.peek()
            if nkind == "op" and nval == "(":
                if val not in FUNCTIONS:
                    raise ParseError(f"unknown function {val!r}", off)
                self.next()
                arg = self.parse_expr()
                self.expect_op(")")
                try:
                    return call(val, arg)
                except ExprError as exc:
                    raise ParseError(str(exc), off) from exc
            if val in self.coords:
                return var(val)
            if val in NAMED_CONSTANTS:
                return const(NAMED_CONSTANTS[val])
            if val in FUNCTIONS:
                raise ParseError(f"function {val!r} needs one argument", off)
            raise ParseError(f"unknown identifier {val!r}", off)
        raise ParseError("expected number, identifier or '('", off)


def reference_parse(text, coords=()):
    """``text`` parsed as ``expr.parse`` did with one method per precedence
    level, and without its check of each node: a constant that is not
    finite passes, and a division by a constant zero raises a bare
    ExprError."""
    if not isinstance(text, str):
        raise ParseError("expression source must be a string", 0)
    parser = _Parser(_tokenize(text), coords)
    node = parser.parse_expr()
    kind, _, off = parser.peek()
    if kind != "end":
        raise ParseError("trailing input", off)
    return node


# ---------------------------------------------------------------------------
# fields from expression strings, and the metric calculus at one point


def expr_matrix(rows, coords):
    """Parse a nested list of expression strings into an object array."""
    arr = np.empty((len(rows), len(rows[0])), dtype=object)
    for i, row in enumerate(rows):
        for j, text in enumerate(row):
            arr[i, j] = (text if isinstance(text, ex.Expr)
                         else ex.parse(text, coords))
    return arr


def structure_from_strings(chart, g, S, f, U, lam, declared_k=None):
    """StructureSpec from expression strings (or Exprs) over the chart."""
    coords = chart.coords
    return st.StructureSpec(
        chart,
        expr_matrix(g, coords),
        expr_matrix(S, coords),
        expr_matrix(f, coords),
        np.array([ex.parse(t, coords) if not isinstance(t, ex.Expr) else t
                  for t in U], dtype=object),
        ex.parse(lam, coords) if not isinstance(lam, ex.Expr) else lam,
        declared_k,
    )


class MetricField:
    """Symmetric positive-definite matrix of expressions over a chart."""

    def __init__(self, chart, g):
        self.chart = chart
        self.g = np.asarray(g, dtype=object)
        n = chart.n
        if self.g.shape != (n, n):
            raise geo.GeometryError("metric must be n x n")

    @cached_property
    def _evaluator(self):
        coords = self.chart.coords
        dg = geo.derivatives(self.g, coords)
        return geo.compile_fields(
            [("g", self.g), ("dg", dg), ("ddg", geo.derivatives(dg, coords))],
            coords)

    def calculus_at(self, point):
        v = self._evaluator([point])
        geo.check_positive_definite(v["g"], [tuple(point)])
        return geo.point_of(geo.calculus_from_values(
            v["g"], v["dg"], v["ddg"]), 0)


def eigen_multiplicity_k(ev, tol=1e-6):
    """Independent route to k: +1 eigenvalue count of F on span(TM, xi),
    whose eigenvalues must lie within ``tol`` of +/-1."""
    m = ev.S.shape[0] + 1
    V = bd.assemble_bundle_map(ev.f, ev.U, ev.u, ev.lam)[:m, :m]
    gram = bd.assemble_gram(ev.g)[:m, :m]
    L = np.linalg.cholesky(gram)
    M = L.T @ V @ np.linalg.inv(L.T)
    w = np.linalg.eigvalsh(0.5 * (M + M.T))
    plus = int(np.sum(w > 0.0))
    if np.any(np.abs(np.abs(w) - 1.0) > tol):
        raise st.StructureError(f"F eigenvalues not +/-1: {w}")
    return plus


# ---------------------------------------------------------------------------
# transport along polylines, loops and holonomy


class BundleError(Exception):
    pass


def gram(conn, point):
    g, *_ = conn.spec.connection_data_at(point)
    return bd.assemble_gram(g)


def transport(conn, waypoints, M=None, step=bd.DEFAULT_STEP):
    """Transport along a polyline of waypoints (chart points)."""
    waypoints = [np.asarray(p, dtype=float) for p in waypoints]
    if len(waypoints) < 1:
        raise BundleError("empty path")
    if M is None:
        M = np.eye(conn.fiber_dim)
    segments = list(zip(waypoints[:-1], waypoints[1:]))
    for (a, b), blocks in zip(segments, conn.block_steps(segments, step)):
        M = conn.transport_segment(a, b, M, step=step, blocks=blocks)
    return M


def gram_drift(conn, waypoints, step=bd.DEFAULT_STEP):
    """Deviation of M^T G(end) M from G(start) after transport."""
    M = transport(conn, waypoints, step=step)
    G0 = gram(conn, waypoints[0])
    G1 = gram(conn, waypoints[-1])
    return float(np.abs(M.T @ G1 @ M - G0).max())


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


def holonomy_defect(conn, loop, step=bd.DEFAULT_STEP):
    """Distance of the loop transport from the identity."""
    M = transport(conn, loop, step=step)
    return float(np.abs(M - np.eye(conn.fiber_dim)).max())


# ---------------------------------------------------------------------------
# base frames


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


# ---------------------------------------------------------------------------
# connection and curvature of the ambient model at one point


class NotTangentError(am.AmbientError):
    pass


def require_tangent(model, x, *vectors, tol=1e-10):
    if model.on_model_residual(x) > tol:
        raise am.NotOnModelError(f"point off the model: {x}")
    for v in vectors:
        if model.tangency_residual(x, v) > tol:
            raise NotTangentError(f"vector not tangent at {x}: {v}")


def model_wedge(model, X, Y, Z):
    """(X ^ Y) Z with respect to the induced (Minkowski) metric."""
    return (model.inner(Y, Z) * np.asarray(X)
            - model.inner(X, Z) * np.asarray(Y))


def ambient_connection(model, x, X, Y, dY, tol=1e-10):
    """Levi-Civita connection of the model applied to tangent data.

    ``dY`` is the flat (componentwise) directional derivative D_X Y of the
    tangential extension of Y; the returned vector adds the second
    fundamental form of the model inside Minkowski space.
    """
    x = np.asarray(x, dtype=float)
    X = np.asarray(X, dtype=float)
    require_tangent(model, x, X, Y, tol=tol)
    return np.asarray(dY, dtype=float) + model.connection_correction(x, X, Y)


def ambient_curvature(model, x, X, Y, Z, tol=1e-10):
    """Curvature R(X,Y)Z = (Fhat((X^Y)Z) + (X^Y)(Fhat Z)) / 2 of the model."""
    x = np.asarray(x, dtype=float)
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    Z = np.asarray(Z, dtype=float)
    require_tangent(model, x, X, Y, Z, tol=tol)
    F = model.fhat
    return 0.5 * (F @ model_wedge(model, X, Y, Z)
                  + model_wedge(model, X, Y, F @ Z))


# ---------------------------------------------------------------------------
# the extraction reference: one Laplace expansion per determinant


def reference_sym_det(rows):
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
        term = ex.mul(rows[0][j], reference_sym_det(minor))
        total = ex.add(total, term) if j % 2 == 0 else ex.sub(total, term)
    return total


def reference_sym_inverse(rows):
    """Inverse of a square matrix of expressions via the adjugate."""
    m = len(rows)
    det = reference_sym_det(rows)
    inv = [[None] * m for _ in range(m)]
    for i in range(m):
        for j in range(m):
            minor = [[rows[r][c] for c in range(m) if c != i]
                     for r in range(m) if r != j]
            cof = reference_sym_det(minor) if m > 1 else ex.ONE
            if (i + j) % 2 == 1:
                cof = ex.neg(cof)
            inv[i][j] = ex.div(cof, det)
    return inv


def reference_normal_exprs(h):
    """Spacelike unit normal (symbolic), sign fixed by orientation."""
    coords = h.chart.coords
    n, d = h.n, h.n + 3
    dx = [[ex.diff(xa, c) for c in coords] for xa in h.x]
    xi1 = [h.x[a] if a < h.k + 1 else ex.ZERO for a in range(d)]
    xi2 = [ex.ZERO if a < h.k + 1 else h.x[a] for a in range(d)]
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
        term = reference_sym_det(mat)
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


def reference_extract_structure(h):
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
    nu = reference_normal_exprs(h)

    def minkowski_dot(u, v):
        total = ex.ZERO
        for a in range(d):
            total = ex.add(total, ex.mul(eta[a], ex.mul(u[a], v[a])))
        return total

    g = [[minkowski_dot([dx[a][i] for a in range(d)],
                        [dx[a][j] for a in range(d)])
          for j in range(n)] for i in range(n)]
    ginv = reference_sym_inverse(g)

    # the Minkowski-flat second derivative suffices for the shape operator:
    # <d2x, nu> kills the model's xi1/xi2 correction terms since nu is
    # orthogonal to xi1 and xi2 by construction.
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


# ---------------------------------------------------------------------------
# hypersurfaces beyond the catalog: n = 4 ... 7 and k = 2


def slice_hypersurface(n):
    """The totally geodesic S^1 x H^(n-1) slice of S^1 x H^n,
    x = (cos u1, sin u1, 0, u2, ..., un, sqrt(1 + u2^2 + ... + un^2)), on
    [-0.4, 0.4]^n; n = 3 is the catalog's ``geodesic_slice_n3``."""
    coords = tuple(f"u{i}" for i in range(1, n + 1))
    chart = geo.Chart(coords, ((-0.4, 0.4),) * n,
                      tuple(0.05 * (-1) ** i * (1 + i % 2) for i in range(n)))
    x = (("cos(u1)", "sin(u1)", "0") + coords[1:]
         + ("sqrt(1 + " + " + ".join(f"{c}^2" for c in coords[1:]) + ")",))
    return am.ParametrizedHypersurface(chart, x, k=1, name=f"slice_n{n}")


def mixed_s2h2():
    """A hypersurface of S^2 x H^2 (n = 3, k = 2) whose tangent spaces mix
    the factors, so S, U and lambda all vary."""
    chart = geo.Chart(("u1", "u2", "u3"), ((-0.4, 0.4),) * 3,
                      (0.05, -0.1, 0.1))
    x = ("cos(u3)*cos(0.6*u1)", "cos(u3)*sin(0.6*u1)", "sin(u3)", "sinh(u2)",
         "cosh(u2)*sinh(0.8*u1)", "cosh(u2)*cosh(0.8*u1)")
    return am.ParametrizedHypersurface(chart, x, k=2, name="mixed_s2h2")


def mixed_s2h3():
    """A hypersurface of S^2 x H^3 (n = 4, k = 2): ``mixed_s2h2`` swept
    along a fourth, hyperbolic direction."""
    chart = geo.Chart(("u1", "u2", "u3", "u4"), ((-0.4, 0.4),) * 4,
                      (0.05, -0.1, 0.1, 0.02))
    x = ("cos(u3)*cos(0.6*u1)", "cos(u3)*sin(0.6*u1)", "sin(u3)", "sinh(u2)",
         "cosh(u2)*sinh(u4)", "cosh(u2)*cosh(u4)*sinh(0.8*u1)",
         "cosh(u2)*cosh(u4)*cosh(0.8*u1)")
    return am.ParametrizedHypersurface(chart, x, k=2, name="mixed_s2h3")


def scaled_shape_operator(spec, c):
    """``spec`` with S replaced by c S."""
    S = np.array([[ex.mul(ex.const(c), e) for e in row] for row in spec.S],
                 dtype=object)
    return st.StructureSpec(spec.chart, spec.g, S, spec.f, spec.U, spec.lam,
                            declared_k=spec.declared_k)


def hypersurface_document(h):
    """The CLI input document of ``h``; its expressions are the inputs' own
    strings, so ``h`` must be built from strings."""
    return {"kind": "hypersurface", "n": h.n, "k": h.k,
            "coords": list(h.chart.coords),
            "domain": [list(iv) for iv in h.chart.box],
            "base_point": list(h.chart.base_point),
            "fields": {"x": [ex.to_str(xa) for xa in h.x]}}
