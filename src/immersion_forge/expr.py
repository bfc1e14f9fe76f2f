"""Immutable scalar expression trees over chart coordinates.

Every field component in this package (metric entries, shape operator,
hypersurface parametrizations, ...) is an :class:`Expr`.  Expressions are
hash-consed: identical subtrees are shared, which keeps rule-based
differentiation compact and lets evaluation memoize over the DAG.

Differentiation is exact (rule-based), which is what keeps the curvature
and flatness residual floors near 1e-12; finite differences are only used
as cross-checks in the test suite.

Per-operator decisions are tables keyed by the DAG's op names: ``_PREC``,
the precedence and grouping that the parser and the printer share; the
derivative rules, ``_DERIVATIVES``; and ``_OPS``, the compiled tape's op
table, which constants fold through too, so a folded constant equals the
tape's value (``+ - * /`` and negation fold in IEEE-identical Python).

The parser builds every node through one guard: a node that cannot be
built, or a constant that is not finite, is a ParseError at the byte offset
of its token.
"""

import math
import re

import numpy as np

__all__ = [
    "Expr", "ExprError", "ParseError", "DomainError",
    "const", "var", "call", "neg", "add", "sub", "mul", "div", "powc",
    "parse", "diff", "to_str", "compile_exprs",
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


def _coerce(x):
    if isinstance(x, Expr):
        return x
    return const(x)


_interned = {}


def _mk(kind, op, args, value):
    # nodes hash and compare by identity, so args stands for its children
    key = (kind, op, args, value)
    node = _interned.get(key)
    if node is None:
        node = Expr(kind, op, args, value)
        _interned[key] = node
    return node


# NaN != NaN, and a NaN hashes by identity: every NaN constant is keyed by
# this one object so that it interns to one node
_NAN = float("nan")


def const(v):
    v = float(v)
    return _mk("const", None, (), _NAN if math.isnan(v) else v)


ZERO = const(0.0)
ONE = const(1.0)


def var(name):
    return _mk("var", None, (), name)


def call(op, a):
    if op not in FUNCTIONS:
        raise ExprError(f"unknown function {op!r}")
    if a.kind == "const":
        return const(_fold(op, a.value))
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
    at evaluation time."""
    expo = _coerce(expo)
    if expo.kind != "const":
        raise ExprError("exponent must fold to a constant")
    c = expo.value
    if c == 0.0:
        return ONE
    if c == 1.0:
        return a
    if a.kind == "const":
        return const(_fold(*_power(c, a.value, c)))
    return _mk("bin", "^", (a, expo), None)


def postorder(roots, known=()):
    """Unique nodes of the DAG under ``roots``, children before parents,
    leaving out the nodes in ``known`` and those reachable only through
    them."""
    order = []
    seen = set()
    stack = [(r, False) for r in reversed(list(roots))]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
        elif node not in seen and node not in known:
            seen.add(node)
            stack.append((node, True))
            for child in node.args:
                if child not in seen and child not in known:
                    stack.append((child, False))
    return order


# op -> its derivative: (node, operands..., operand derivatives...) -> Expr;
# the exponent b of a power is a constant
_DERIVATIVES = {
    "neg": lambda e, a, da: neg(da),
    "sin": lambda e, a, da: mul(call("cos", a), da),
    "cos": lambda e, a, da: neg(mul(call("sin", a), da)),
    "tan": lambda e, a, da: div(da, powc(call("cos", a), const(2))),
    "sinh": lambda e, a, da: mul(call("cosh", a), da),
    "cosh": lambda e, a, da: mul(call("sinh", a), da),
    "tanh": lambda e, a, da: div(da, powc(call("cosh", a), const(2))),
    "exp": lambda e, a, da: mul(e, da),
    "log": lambda e, a, da: div(da, a),
    "sqrt": lambda e, a, da: div(da, mul(const(2), e)),
    "+": lambda e, a, b, da, db: add(da, db),
    "-": lambda e, a, b, da, db: sub(da, db),
    "*": lambda e, a, b, da, db: add(mul(da, b), mul(a, db)),
    "/": lambda e, a, b, da, db: div(sub(mul(da, b), mul(a, db)), mul(b, b)),
    "^": lambda e, a, b, da, db: mul(mul(b, powc(a, b.value - 1.0)), da),
}

# coordinate name -> {node: its derivative}
_diff_cache = {}


def diff(e, name):
    """Exact derivative of ``e`` with respect to coordinate ``name``."""
    memo = _diff_cache.setdefault(name, {})
    x = var(name)
    for node in postorder([e], memo):
        if node.args:
            d = [memo[child] for child in node.args]
            memo[node] = _DERIVATIVES[node.op](node, *node.args, *d)
        else:
            memo[node] = ONE if node is x else ZERO
    return memo[e]


# op -> (least precedence of its left operand, its own, least precedence of
# its right operand), for parsing and printing alike: an operand below its
# least is parenthesized.  + - * / group to the left and ^ to the right; a
# unary minus has a right operand only.  A number, name or call has
# precedence _ATOM.
_PREC = {"+": (1, 1, 2), "-": (1, 1, 2), "*": (2, 2, 3), "/": (2, 2, 3),
         "neg": (None, 3, 4), "^": (5, 4, 4)}
_ATOM = 5


def to_str(e):
    """Render to the input grammar; parse(to_str(e)) evaluates like e."""
    txt = {}
    prec = {}

    def operand(node, least):
        return f"({txt[node]})" if prec[node] < least else txt[node]

    for node in postorder([e]):
        if node.kind == "const" and node.value < 0:
            txt[node], prec[node] = f"-{_fmt(-node.value)}", _PREC["neg"][1]
        elif node.kind == "const":
            txt[node], prec[node] = _fmt(node.value), _ATOM
        elif node.kind == "var":
            txt[node], prec[node] = node.value, _ATOM
        elif node.op in FUNCTIONS:
            txt[node], prec[node] = f"{node.op}({txt[node.args[0]]})", _ATOM
        else:
            left, p, right = _PREC[node.op]
            if node.op == "neg":
                text = "-" + operand(node.args[0], right)
            else:
                a, b = node.args
                text = f"{operand(a, left)} {node.op} {operand(b, right)}"
            txt[node], prec[node] = text, p
    return txt[e]


def _fmt(v):
    if abs(v) < 1e16 and v == int(v):
        return repr(int(v))
    return repr(v)


# ---------------------------------------------------------------------------
# parser

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+\.?\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[a-zA-Z][a-zA-Z0-9_]*)"
    r"|(?P<op>[-+*/^()])|(?P<bad>\S))"
)

# binary operator -> the constructor of its node
_BINARY = {"+": add, "-": sub, "*": mul, "/": div, "^": powc}


def _tokenize(text):
    """(kind, text, UTF-8 byte offset) of each token, then an end token."""
    tokens, pos, off = [], 0, 0     # pos is off as an index of text
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        off += len(text[pos:m.start(kind)].encode())
        pos = m.start(kind)
        if kind == "bad":
            raise ParseError(f"unexpected character {m.group(kind)!r}", off)
        tokens.append((kind, m.group(kind), off))
    tokens.append(("end", "", len(text.encode())))
    return tokens


def _guard(off, make, *args):
    """The node make(*args) that the parser builds at the token at byte
    offset ``off``, or a ParseError there when make fails or gives a
    constant that is not finite."""
    try:
        node = make(*args)
    except ExprError as exc:
        raise ParseError(str(exc), off) from exc
    if node.kind == "const" and not math.isfinite(node.value):
        raise ParseError("non-finite value", off)
    return node


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

    def parse_expr(self, least=0):
        """The expression from the current token on, up to the first binary
        operator of precedence below ``least``."""
        kind, val, off = self.peek()
        if kind == "op" and val == "-":
            self.next()
            node = _guard(off, neg, self.parse_expr(_PREC["neg"][2]))
        else:
            node = self.parse_atom()
        while True:
            _, val, off = self.peek()
            if val not in _BINARY or _PREC[val][1] < least:
                return node
            self.next()
            node = _guard(off, _BINARY[val], node,
                          self.parse_expr(_PREC[val][2]))

    def parse_atom(self):
        kind, val, off = self.next()
        if kind == "num":
            return _guard(off, const, float(val))
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
                return _guard(off, call, val, arg)
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
    try:
        node = parser.parse_expr()
    except RecursionError:
        raise ParseError("expression nested too deeply",
                         parser.peek()[2]) from None
    kind, _, off = parser.peek()
    if kind != "end":
        raise ParseError("trailing input", off)
    return node


# ---------------------------------------------------------------------------
# compiled evaluation: one instruction tape over the shared DAG, each
# instruction one numpy ufunc on a column of P points; a single point is a
# batch of one.  An op that can leave its domain or overflow is preceded on
# the tape by a check of its operands, which stores the rows that fail in a
# register of its own, and the batch raises for the first such row after
# the tape has run.


def _fault(test):
    """Check instruction: None, or the rows where test(*operands) holds
    with the first operand of each row."""
    def check(*args):
        rows = test(*args)
        if rows.any():
            return rows, np.broadcast_to(args[0], rows.shape)
        return None
    return check


def _overflow(fn):
    """Test for the rows where fn takes a finite operand to infinity."""
    return lambda x, *c: np.isinf(fn(x, *c)) & np.isfinite(x)


# op -> its ufunc, then the (test, message) of each check.  The messages
# are those of math and of Python's float power; a {} shows the first
# operand of the failing row.
_RANGE = "(34, 'Numerical result out of range')"
_OVERFLOW = "overflow (math range error)"
_OPS = {
    "+": (np.add,), "-": (np.subtract,), "*": (np.multiply,),
    "neg": (np.negative,), "sin": (np.sin,), "cos": (np.cos,),
    "tan": (np.tan,), "tanh": (np.tanh,),
    "sinh": (np.sinh, (_overflow(np.sinh), _OVERFLOW)),
    "cosh": (np.cosh, (_overflow(np.cosh), _OVERFLOW)),
    "exp": (np.exp, (_overflow(np.exp), _OVERFLOW)),
    "log": (np.log, (lambda x: x <= 0.0, "log of nonpositive value {}")),
    "sqrt": (np.sqrt, (lambda x: x < 0.0, "sqrt of negative value {}")),
    "/": (np.divide, (lambda a, b: np.equal(b, 0.0), "division by zero")),
    # constant exponents: integral in [0, 64], other integral, non-integral
    "ipow": (np.power, (_overflow(np.power), f"overflow ({_RANGE})")),
    "^int": (np.power, (lambda b, c: (b == 0.0) & (c < 0.0),
                        "zero raised to a negative power"),
             (_overflow(np.power), _RANGE)),
    "^": (np.power, (lambda b, c: b <= 0.0,
                     "non-integer power of nonpositive base {}"),
          (_overflow(np.power), "math range error")),
}


def _power(c, base, expo):
    """The tape op of base ^ expo, expo the constant c, and its operands."""
    if c == 2.0:
        return "*", base, base
    if float(c).is_integer():
        return ("ipow" if 0 <= c <= 64 else "^int"), base, expo
    return "^", base, expo


def _fold(op, *values):
    """``op`` on constant operands by the tape's entry: checks, ufunc."""
    fn, *op_checks = _OPS[op]
    rows = [np.array([v]) for v in values]
    with np.errstate(all="ignore"):
        for test, message in op_checks:
            if test(*rows)[0]:
                raise DomainError(message.format(float(values[0])))
        value = float(fn(*rows)[0])
    if not math.isfinite(value):
        raise DomainError("non-finite value")
    return value


def compile_exprs(exprs, coords):
    """Compile a batch of expressions into one function over many points:
    points of shape (P, len(coords)) -> values of shape (P, len(exprs)).

    The function runs an instruction tape that evaluates each unique DAG
    node exactly once, every instruction a numpy ufunc on a column of the
    P points; a single point is a batch of one.  Row j depends only on
    points[j], not on the batch around it, and each value is within 4 ulp
    of the exact value of its op on its operands (checked against mpmath).
    It raises DomainError naming the first point where a value leaves the
    domain, overflows or is not finite.
    """
    exprs = list(exprs)
    n = len(coords)
    order = postorder(exprs)
    # register slots: the coordinates, then the constants, then the
    # temporaries and the checks' results
    pool = {node: node.value for node in order if node.kind == "const"}
    slot = {key: n + i for i, key in enumerate(pool)}
    # a temporary is free for reuse after its last reader, so a batch keeps
    # only the live values in memory; results stay live until the return
    last_read = {child: pos for pos, node in enumerate(order)
                 for child in node.args}
    last_read.update((e, len(order)) for e in exprs)
    first_temp = size = n + len(pool)
    free = []
    steps = []      # (op function, out, a, b); b is -1 for a unary op
    checks = []     # (register, message) of each check, in tape order
    for pos, node in enumerate(order):
        args = node.args
        if not args:
            if node.kind == "var":
                if node.value not in coords:
                    raise ExprError(f"unbound coordinate {node.value!r}")
                slot[node] = coords.index(node.value)
            continue
        a = slot[args[0]]
        b = slot[args[1]] if len(args) == 2 else -1
        for child in args:
            if last_read[child] == pos:
                last_read[child] = -1       # a child read twice frees once
                if slot[child] >= first_temp:
                    free.append(slot[child])
        out = free.pop() if free else size
        size = max(size, out + 1)
        op = node.op
        if op == "^":
            op, a, b = _power(args[1].value, a, b)
        fn, *op_checks = _OPS[op]
        for test, message in op_checks:
            steps.append((_fault(test), size, a, b))
            checks.append((size, message))
            size += 1
        steps.append((fn, out, a, b))
        slot[node] = out
    results = [slot[e] for e in exprs]
    template = [None] * n + list(pool.values()) + [None] * (size - first_temp)

    def batch(points):
        points = np.asarray(points, dtype=float)
        if points.ndim != 2 or points.shape[1] != n:
            raise ValueError(f"points must have shape (P, {n}), "
                             f"not {points.shape}")
        regs = template.copy()
        regs[:n] = points.T
        with np.errstate(all="ignore"):
            for fn, out, a, b in steps:
                if b < 0:
                    regs[out] = fn(regs[a])
                else:
                    regs[out] = fn(regs[a], regs[b])
        vals = np.empty((len(points), len(exprs)))
        for i, r in enumerate(results):
            vals[:, i] = regs[r]
        faults = [(*regs[r], message) for r, message in checks
                  if regs[r] is not None]
        if faults or not np.isfinite(vals).all():
            _raise_first_fault(points, vals, faults)
        return vals

    return batch


def _raise_first_fault(points, vals, faults):
    """DomainError for the first row that fails a check or is not finite,
    with the message of the first check it fails."""
    bad = ~np.isfinite(vals).all(axis=1)
    for rows, _, _ in faults:
        bad |= rows
    j = int(bad.argmax())
    where = f"at {tuple(float(x) for x in points[j])}"
    for rows, operand, message in faults:
        if rows[j]:
            raise DomainError(f"{message.format(float(operand[j]))} {where}")
    raise DomainError(f"non-finite value {where}")
