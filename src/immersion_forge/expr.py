"""Immutable scalar expression trees over chart coordinates.

Every field component in this package (metric entries, shape operator,
hypersurface parametrizations, ...) is an :class:`Expr`.  Expressions are
hash-consed: identical subtrees are shared, which keeps rule-based
differentiation compact and lets evaluation memoize over the DAG.

Differentiation is exact (rule-based), which is what keeps the curvature
and flatness residual floors near 1e-12; finite differences are only used
as cross-checks in the test suite.
"""

import math
import re
import types

import numpy as np

__all__ = [
    "Expr", "ExprError", "ParseError", "DomainError",
    "const", "var", "call", "neg", "add", "sub", "mul", "div", "powc",
    "parse", "evaluate", "diff", "to_str", "compile_exprs",
    "FUNCTIONS", "NAMED_CONSTANTS",
]

FUNCTIONS = ("sin", "cos", "tan", "sinh", "cosh", "tanh", "exp", "log", "sqrt")
NAMED_CONSTANTS = {"pi": math.pi, "e": math.e}


class ExprError(Exception):
    pass


class ParseError(ExprError):
    def __init__(self, message, offset):
        super().__init__(f"{message} (at byte offset {offset})")
        self.offset = offset


class DomainError(ExprError):
    pass


class Expr:
    """A node of an expression DAG.  Construct via the module functions."""

    __slots__ = ("kind", "op", "args", "value")

    def __init__(self, kind, op, args, value):
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "op", op)
        object.__setattr__(self, "args", args)
        object.__setattr__(self, "value", value)

    def __setattr__(self, name, val):
        raise AttributeError("Expr is immutable")

    def __repr__(self):
        return f"Expr({to_str(self)})"

    # arithmetic sugar so library code can assemble fields readably
    def __add__(self, other):
        return add(self, _coerce(other))

    def __radd__(self, other):
        return add(_coerce(other), self)

    def __sub__(self, other):
        return sub(self, _coerce(other))

    def __rsub__(self, other):
        return sub(_coerce(other), self)

    def __mul__(self, other):
        return mul(self, _coerce(other))

    def __rmul__(self, other):
        return mul(_coerce(other), self)

    def __truediv__(self, other):
        return div(self, _coerce(other))

    def __rtruediv__(self, other):
        return div(_coerce(other), self)

    def __neg__(self):
        return neg(self)

    def __pow__(self, other):
        return powc(self, _coerce(other))


def _coerce(x):
    if isinstance(x, Expr):
        return x
    return const(x)


_interned = {}


def _mk(kind, op, args, value):
    key = (kind, op, tuple(id(a) for a in args), value)
    node = _interned.get(key)
    if node is None:
        node = Expr(kind, op, args, value)
        _interned[key] = node
    return node


def const(v):
    return _mk("const", None, (), float(v))


ZERO = const(0.0)
ONE = const(1.0)


def var(name):
    return _mk("var", None, (), name)


def call(op, a):
    if op not in FUNCTIONS:
        raise ExprError(f"unknown function {op!r}")
    if a.kind == "const":
        return const(_apply_unary(op, a.value))
    return _mk("call", op, (a,), None)


def neg(a):
    if a.kind == "const":
        return const(-a.value)
    if a.kind == "call" and a.op == "neg":
        return a.args[0]
    return _mk("call", "neg", (a,), None)


def add(a, b):
    if a.kind == "const" and b.kind == "const":
        return const(a.value + b.value)
    if a.kind == "const" and a.value == 0.0:
        return b
    if b.kind == "const" and b.value == 0.0:
        return a
    return _mk("bin", "+", (a, b), None)


def sub(a, b):
    if a.kind == "const" and b.kind == "const":
        return const(a.value - b.value)
    if b.kind == "const" and b.value == 0.0:
        return a
    if a.kind == "const" and a.value == 0.0:
        return neg(b)
    if a is b:
        return ZERO
    return _mk("bin", "-", (a, b), None)


def mul(a, b):
    if a.kind == "const" and b.kind == "const":
        return const(a.value * b.value)
    if a.kind == "const":
        if a.value == 0.0:
            return ZERO
        if a.value == 1.0:
            return b
        if a.value == -1.0:
            return neg(b)
    if b.kind == "const":
        if b.value == 0.0:
            return ZERO
        if b.value == 1.0:
            return a
        if b.value == -1.0:
            return neg(a)
    return _mk("bin", "*", (a, b), None)


def div(a, b):
    if b.kind == "const":
        if b.value == 0.0:
            raise ExprError("division by constant zero")
        if a.kind == "const":
            return const(a.value / b.value)
        if b.value == 1.0:
            return a
    if a.kind == "const" and a.value == 0.0:
        return ZERO
    if a is b:
        return ONE
    return _mk("bin", "/", (a, b), None)


def powc(a, expo):
    """Power with constant exponent.  Non-integer exponents require a > 0
    at evaluation time (defined via exp(c*log(a)))."""
    expo = _coerce(expo)
    if expo.kind != "const":
        raise ExprError("exponent must fold to a constant")
    c = expo.value
    if c == 0.0:
        return ONE
    if c == 1.0:
        return a
    if a.kind == "const":
        return const(_apply_pow(a.value, c))
    return _mk("bin", "^", (a, expo), None)


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


def _apply_div(a, b):
    if b == 0.0:
        raise DomainError("division by zero")
    return a / b


def postorder(roots):
    """Unique nodes of the DAG under ``roots``, children before parents."""
    order = []
    seen = set()
    stack = [(r, False) for r in reversed(list(roots))]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for child in node.args:
            if id(child) not in seen:
                stack.append((child, False))
    return order


def evaluate(e, env):
    """Evaluate at a point given as a mapping of coordinate name -> float."""
    val = {}
    for node in postorder([e]):
        if node.kind == "const":
            v = node.value
        elif node.kind == "var":
            try:
                v = float(env[node.value])
            except KeyError:
                raise ExprError(f"unbound coordinate {node.value!r}") from None
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
            raise DomainError(f"non-finite value in {node.op or node.kind}")
        val[id(node)] = v
    return val[id(e)]


_diff_cache = {}


def diff(e, name):
    """Exact derivative of ``e`` with respect to coordinate ``name``."""
    cached = _diff_cache.get((id(e), name))
    if cached is not None:
        return cached
    d = {}
    for node in postorder([e]):
        key = (id(node), name)
        if key in _diff_cache:
            d[id(node)] = _diff_cache[key]
            continue
        if node.kind == "const":
            res = ZERO
        elif node.kind == "var":
            res = ONE if node.value == name else ZERO
        elif node.kind == "call":
            a = node.args[0]
            da = d[id(a)]
            op = node.op
            if op == "neg":
                res = neg(da)
            elif op == "sin":
                res = mul(call("cos", a), da)
            elif op == "cos":
                res = neg(mul(call("sin", a), da))
            elif op == "tan":
                res = div(da, powc(call("cos", a), const(2)))
            elif op == "sinh":
                res = mul(call("cosh", a), da)
            elif op == "cosh":
                res = mul(call("sinh", a), da)
            elif op == "tanh":
                res = div(da, powc(call("cosh", a), const(2)))
            elif op == "exp":
                res = mul(node, da)
            elif op == "log":
                res = div(da, a)
            else:  # sqrt
                res = div(da, mul(const(2), node))
        else:
            a, b = node.args
            da = d[id(a)]
            op = node.op
            if op == "+":
                res = add(da, d[id(b)])
            elif op == "-":
                res = sub(da, d[id(b)])
            elif op == "*":
                res = add(mul(da, b), mul(a, d[id(b)]))
            elif op == "/":
                res = div(sub(mul(da, b), mul(a, d[id(b)])), mul(b, b))
            else:  # ^ with constant exponent
                c = b.value
                res = mul(mul(b, powc(a, const(c - 1.0))), da)
        d[id(node)] = res
        _diff_cache[key] = res
    return d[id(e)]


# precedence levels for printing
_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3, "^": 4}


def to_str(e):
    """Render to the input grammar; parse(to_str(e)) evaluates like e."""
    txt = {}
    prec = {}
    for node in postorder([e]):
        if node.kind == "const":
            v = node.value
            if v < 0:
                txt[id(node)], prec[id(node)] = f"-{_fmt(-v)}", _PREC["neg"]
            else:
                txt[id(node)], prec[id(node)] = _fmt(v), 5
        elif node.kind == "var":
            txt[id(node)], prec[id(node)] = node.value, 5
        elif node.kind == "call":
            a = node.args[0]
            if node.op == "neg":
                inner = txt[id(a)]
                if prec[id(a)] < _PREC["neg"]:
                    inner = f"({inner})"
                txt[id(node)], prec[id(node)] = f"-{inner}", _PREC["neg"]
            else:
                txt[id(node)], prec[id(node)] = f"{node.op}({txt[id(a)]})", 5
        else:
            a, b = node.args
            p = _PREC[node.op]
            left, right = txt[id(a)], txt[id(b)]
            if node.op == "^":
                if prec[id(a)] <= p:
                    left = f"({left})"
                if prec[id(b)] < p:
                    right = f"({right})"
            else:
                if prec[id(a)] < p:
                    left = f"({left})"
                if prec[id(b)] <= p:
                    right = f"({right})"
            txt[id(node)], prec[id(node)] = f"{left} {node.op} {right}", p
    return txt[id(e)]


def _fmt(v):
    if v == int(v) and abs(v) < 1e16:
        return repr(int(v))
    return repr(v)


# ---------------------------------------------------------------------------
# parser

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
                return call(val, arg)
            if val in self.coords:
                return var(val)
            if val in NAMED_CONSTANTS:
                return const(NAMED_CONSTANTS[val])
            if val in FUNCTIONS:
                raise ParseError(f"function {val!r} needs one argument", off)
            raise ParseError(f"unknown identifier {val!r}", off)
        raise ParseError("expected number, identifier or '('", off)


def parse(text, coords=()):
    """Parse ``text`` into an Expr over the declared coordinate names."""
    if not isinstance(text, str):
        raise ParseError("expression source must be a string", 0)
    parser = _Parser(_tokenize(text), coords)
    node = parser.parse_expr()
    kind, _, off = parser.peek()
    if kind != "end":
        raise ParseError("trailing input", off)
    return node


# ---------------------------------------------------------------------------
# compiled evaluation of expression batches (one straight-line function
# over the shared DAG; used for grid sweeps and ODE right-hand sides)

_COMPILE_GLOBALS = {
    "sin": math.sin, "cos": math.cos, "tan": math.tan,
    "sinh": math.sinh, "cosh": math.cosh, "tanh": math.tanh,
    "exp": math.exp, "_log": lambda x: _apply_unary("log", x),
    "_sqrt": lambda x: _apply_unary("sqrt", x),
    "_div": _apply_div, "_pow": _apply_pow,
}


# numpy counterparts: the same checks as the scalar helpers, over a whole
# array of points at once

def _np_log(x):
    if np.any(x <= 0.0):
        raise DomainError("log of nonpositive value")
    return np.log(x)


def _np_sqrt(x):
    if np.any(x < 0.0):
        raise DomainError("sqrt of negative value")
    return np.sqrt(x)


def _np_div(a, b):
    if np.any(b == 0.0):
        raise DomainError("division by zero")
    return a / b


def _np_pow(b, c):
    if float(c).is_integer():
        if c < 0 and np.any(b == 0.0):
            raise DomainError("zero raised to a negative power")
        return b ** c
    if np.any(b <= 0.0):
        raise DomainError("non-integer power of nonpositive base")
    return np.exp(c * np.log(b))


_NP_GLOBALS = {
    "sin": np.sin, "cos": np.cos, "tan": np.tan,
    "sinh": np.sinh, "cosh": np.cosh, "tanh": np.tanh,
    "exp": np.exp, "_log": _np_log, "_sqrt": _np_sqrt,
    "_div": _np_div, "_pow": _np_pow,
}


def compile_exprs(exprs, coords):
    """Compile a batch of expressions into one function point -> list[float].

    The generated function evaluates each unique DAG node exactly once.  Its
    ``batch`` attribute runs the same code over numpy arrays: points of
    shape (P, len(coords)) -> values of shape (P, len(exprs)), row j equal
    to the function at points[j].  Both raise DomainError naming the point
    where a value leaves the domain, overflows or is not finite.
    """
    exprs = list(exprs)
    order = postorder(exprs)
    # a temporary is free for reuse after its last reader, so a batch keeps
    # only the live values in memory; results stay live until the return
    last_read = {}
    for pos, node in enumerate(order):
        for child in node.args:
            last_read[id(child)] = pos
    for e in exprs:
        last_read[id(e)] = len(order)
    name = {}
    free = []
    lines = []
    counter = 0
    for pos, node in enumerate(order):
        if node.kind == "const":
            name[id(node)] = _fmt_literal(node.value)
            continue
        if node.kind == "var":
            if node.value not in coords:
                raise ExprError(f"unbound coordinate {node.value!r}")
            name[id(node)] = f"_c{coords.index(node.value)}"
            continue
        operands = [name[id(a)] for a in node.args]
        for child in dict.fromkeys(node.args):
            if last_read[id(child)] == pos and name[id(child)].startswith("_t"):
                free.append(name[id(child)])
        if free:
            nm = free.pop()
        else:
            nm = f"_t{counter}"
            counter += 1
        if node.kind == "call":
            a, = operands
            if node.op == "neg":
                lines.append(f"{nm} = -{a}")
            elif node.op in ("log", "sqrt"):
                lines.append(f"{nm} = _{node.op}({a})")
            else:
                lines.append(f"{nm} = {node.op}({a})")
        else:
            a, b = operands
            if node.op == "/":
                lines.append(f"{nm} = _div({a}, {b})")
            elif node.op == "^":
                c = node.args[1].value
                if c == 2.0:
                    lines.append(f"{nm} = {a} * {a}")
                elif float(c).is_integer() and 0 <= c <= 64:
                    lines.append(f"{nm} = {a} ** {int(c)}")
                else:
                    lines.append(f"{nm} = _pow({a}, {b})")
            else:
                lines.append(f"{nm} = {a} {node.op} {b}")
        name[id(node)] = nm

    unpack = ", ".join(f"_c{i}" for i in range(len(coords))) or "_unused"
    body = ["def _compiled(_point):"]
    if coords:
        body.append(f"    {unpack}, = _point" if len(coords) == 1
                    else f"    {unpack} = _point")
    body.extend("    " + ln for ln in lines)
    result = ", ".join(name[id(e)] for e in exprs)
    body.append(f"    return [{result}]" if exprs else "    return []")
    namespace = dict(_COMPILE_GLOBALS)
    exec("\n".join(body), namespace)  # noqa: S102 - generated from our own AST
    scalar = namespace["_compiled"]
    vector = types.FunctionType(scalar.__code__, _NP_GLOBALS)

    def compiled(point):
        try:
            vals = scalar(point)
        except OverflowError as exc:
            raise DomainError(
                f"overflow ({exc}) at {_point_text(point)}") from None
        except DomainError as exc:
            raise DomainError(f"{exc} at {_point_text(point)}") from None
        if not all(map(math.isfinite, vals)):
            raise DomainError(f"non-finite value at {_point_text(point)}")
        return vals

    def batch(points):
        points = np.asarray(points, dtype=float)
        if points.ndim != 2 or points.shape[1] != len(coords):
            raise ValueError(f"points must have shape (P, {len(coords)}), "
                             f"not {points.shape}")
        if len(points) == 1:
            # numpy's per-operation overhead exceeds the work of one point
            return np.array([compiled(points[0].tolist())])
        out = np.empty((len(points), len(exprs)))
        try:
            with np.errstate(over="raise", invalid="raise", divide="raise"):
                for i, v in enumerate(vector(points.T)):
                    out[:, i] = v
        except (DomainError, FloatingPointError):
            pass
        else:
            if np.isfinite(out).all():
                return out
        # name the first failing point the way the scalar function does
        for point in points:
            compiled(point)
        raise DomainError("floating-point overflow in batched evaluation")

    compiled.batch = batch
    return compiled


def _point_text(point):
    return str(tuple(float(x) for x in point))


def _fmt_literal(v):
    if v == int(v) and abs(v) < 1e16:
        return f"{repr(int(v))}.0"
    return repr(v)
