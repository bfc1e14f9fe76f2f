"""Expression engine: parsing, exact derivatives, compilation."""

import math
import operator
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

import oracles
from immersion_forge import ambient as am
from immersion_forge import expr as ex
from oracles import SUB_BATCHES

COORDS = ("u1", "u2")

# corpus of 20 expressions, all smooth on [-1.4, 1.4]^2
CORPUS = [
    "u1^2 + 3*u1 - 5",
    "sin(u1)*cos(u2)",
    "sinh(u1) + cosh(u2)",
    "exp(u1*u2)",
    "log(2 + u1^2)",
    "sqrt(1 + u1^2 + u2^2)",
    "tan(u1)",
    "tanh(u1*u2)",
    "1/(2 + sin(u1))",
    "u1^3*u2 - u2^2/(1 + u1^2)",
    "cos(u1)^2 - sin(u1)^2",
    "exp(-u1^2/2)",
    "(u1 + u2)^4",
    "sin(cos(u1 + u2^2))",
    "log(cosh(u1))",
    "sqrt(2 + cos(u1))*sinh(u2)",
    "u1/(u2^2 + 1) + u2/(u1^2 + 1)",
    "-u1^2 + pi*u2",
    "cosh(u1)*cosh(u2) - sinh(u1)*sinh(u2)",
    "exp(sin(u1))/(3 + cos(u2))",
]


def _random_points(count, rng, lo=-1.4, hi=1.4):
    return [(rng.uniform(lo, hi), rng.uniform(lo, hi)) for _ in range(count)]


@pytest.mark.parametrize("text", CORPUS)
def test_derivative_matches_finite_differences(text, rng):
    e = ex.parse(text, COORDS)
    grads = [ex.diff(e, c) for c in COORDS]
    h = 1e-5
    for point in _random_points(100, rng):
        env = dict(zip(COORDS, point))
        for axis, c in enumerate(COORDS):
            exact = oracles.evaluate(grads[axis], env)
            env_p = dict(env)
            env_m = dict(env)
            env_p[c] = point[axis] + h
            env_m[c] = point[axis] - h
            fd = (oracles.evaluate(e, env_p)
                  - oracles.evaluate(e, env_m)) / (2 * h)
            assert abs(fd - exact) / max(1.0, abs(exact)) < 1e-6


@pytest.mark.parametrize("text", CORPUS)
def test_compiled_matches_tree_evaluation(text, rng):
    e = ex.parse(text, COORDS)
    d1 = ex.diff(e, "u1")
    fn = ex.compile_exprs([e, d1], COORDS)
    for point in _random_points(25, rng):
        env = dict(zip(COORDS, point))
        vals = fn([point])[0]
        assert vals[0] == pytest.approx(oracles.evaluate(e, env), rel=1e-14)
        assert vals[1] == pytest.approx(oracles.evaluate(d1, env), rel=1e-14)


@pytest.mark.parametrize("text", CORPUS)
def test_print_parse_roundtrip_is_identity(text):
    e = ex.parse(text, COORDS)
    assert ex.parse(ex.to_str(e), COORDS) is e


@pytest.mark.parametrize("text", CORPUS)
def test_second_derivatives_commute(text, rng):
    e = ex.parse(text, COORDS)
    d12 = ex.diff(ex.diff(e, "u1"), "u2")
    d21 = ex.diff(ex.diff(e, "u2"), "u1")
    for point in _random_points(20, rng):
        env = dict(zip(COORDS, point))
        a = oracles.evaluate(d12, env)
        b = oracles.evaluate(d21, env)
        assert a == pytest.approx(b, rel=1e-12, abs=1e-12)


def test_unary_minus_binds_looser_than_power():
    e = ex.parse("-u1^2", ("u1",))
    assert oracles.evaluate(e, {"u1": 2.0}) == -4.0


def test_hash_consing_interns_equal_trees():
    a = ex.parse("sin(u1) + u1*u2", COORDS)
    b = ex.parse("sin(u1) + u1*u2", COORDS)
    assert a is b


def test_constant_folding():
    e = ex.parse("2*3 + u1*0 + 0*sin(u1)", ("u1",))
    assert e.kind == "const" and e.value == 6.0


@pytest.mark.parametrize("text,value", [
    ("log(u1)", -1.0),
    ("sqrt(u1)", -1.0),
    ("1/u1", 0.0),
    ("u1^-1", 0.0),
    ("u1^0.5", 0.0),
    ("cosh(1000*u1)", 0.9),
    ("1/cosh(1000*u1)", 0.9),
    ("exp(500*u1)^2", 0.9),
])
def test_domain_errors(text, value):
    e = ex.parse(text, ("u1",))
    with pytest.raises(ex.DomainError):
        oracles.evaluate(e, {"u1": value})
    fn = ex.compile_exprs([e], ("u1",))
    with pytest.raises(ex.DomainError, match=f"at \\({value},\\)"):
        fn([(value,)])[0]
    # the batch names the first bad point, not its neighbours
    with pytest.raises(ex.DomainError, match=f"at \\({value},\\)"):
        fn([(0.5,), (value,), (0.25,), (value,)])


@pytest.mark.parametrize("text", CORPUS)
def test_batch_matches_scalar_pointwise(text, rng):
    e = ex.parse(text, COORDS)
    exprs = [e, ex.diff(e, "u1"), ex.diff(ex.diff(e, "u1"), "u2"),
             ex.const(2.5), ex.var("u2")]
    fn = ex.compile_exprs(exprs, COORDS)
    points = _random_points(100, rng)
    got = fn(points)
    assert got.shape == (len(points), len(exprs))
    want = np.array([[oracles.evaluate(x, dict(zip(COORDS, p))) for x in exprs]
                     for p in points])
    np.testing.assert_allclose(got, want, rtol=1e-13, atol=1e-13)


@pytest.mark.parametrize("text,offset", [
    ("1+", 2),
    ("sin(", 4),
    ("foo(u1)", 0),
    ("u1 + u9", 5),
    ("(u1", 3),
    ("\u3000\u3000u9", 6),         # each ideographic space is 3 bytes
    ("\u3000u1 \ud800", 6),         # a lone surrogate, as JSON can spell
])
def test_parse_errors_carry_byte_offsets(text, offset):
    with pytest.raises(ex.ParseError) as err:
        ex.parse(text, ("u1", "u2"))
    assert err.value.offset == offset


@pytest.mark.parametrize("value,text", [(math.inf, "inf"),
                                        (-math.inf, "-inf"),
                                        (math.nan, "nan")])
def test_non_finite_constants_print(value, text):
    assert repr(ex.const(value)) == f"Expr({text})"
    assert ex.to_str(ex.mul(ex.var("u1"), ex.const(value))) == f"u1 * {text}"


def test_every_nan_constant_is_one_node():
    node = ex.const(float("nan"))
    before = len(ex._interned)
    nodes = {ex.const(float("nan")) for _ in range(1000)}
    assert nodes == {node}
    assert ex.const(-math.nan) is node
    assert len(ex._interned) - before <= 1


@pytest.mark.parametrize("text", ["(" * 5000 + "u1" + ")" * 5000,
                                  "-" * 5000 + "u1"],
                         ids=["5000-parentheses", "5000-unary-minuses"])
def test_too_deep_nesting_is_a_parse_error(text):
    with pytest.raises(ex.ParseError, match="expression nested too deeply"):
        ex.parse(text, COORDS)


# tokens of the differential test: the operators, numbers that are zero,
# small, huge or infinite, names of every kind, stray characters and spaces;
# tokens run together too ("1e2001" is infinite)
FUZZ_TOKENS = ["+", "-", "*", "/", "^", "(", ")", "0", "1", "2", "0.5",
               "1e999", "1e200", "u1", "u2", "sin", "exp", "log", "sqrt",
               "pi", "x", "$", ".", ",", " ", "  "]


class _NonFinite(Exception):
    """A node of the reference parse that is a constant not finite."""


def _check_finite(make):
    def checked(*args):
        node = make(*args)
        if node.kind == "const" and not math.isfinite(node.value):
            raise _NonFinite
        return node
    return checked


def _outcome(parse, text):
    try:
        return parse(text, COORDS)
    except (ex.ExprError, _NonFinite) as exc:
        return exc


def test_parser_matches_the_reference_grammar(monkeypatch):
    # the reference with the guard's finiteness test on each node it builds
    for name in ("const", "neg", "add", "sub", "mul", "div", "powc", "call"):
        monkeypatch.setattr(oracles, name, _check_finite(getattr(ex, name)))
    rng = random.Random(20151)
    valid = 0
    for _ in range(30_000):
        text = "".join(rng.choice(FUZZ_TOKENS)
                       for _ in range(rng.randint(1, 12)))
        got = _outcome(ex.parse, text)
        want = _outcome(oracles.reference_parse, text)
        if isinstance(want, ex.Expr):
            valid += 1
            assert got is want, text
            continue
        assert type(got) is ex.ParseError, text
        if isinstance(want, _NonFinite):
            # the first constant that is not finite, at the token building it
            assert str(got).startswith("non-finite value ("), text
            assert got.offset in [off for kind, _, off
                                  in oracles._tokenize(text)
                                  if kind != "op" or text[off] not in "()"]
        elif type(want) is ex.ExprError:
            # a division by a constant zero, at its operator
            assert str(got).startswith(f"{want} ("), text
            assert text[got.offset] == "/", text
        else:
            assert (str(got), got.offset) == (str(want), want.offset), text
    assert valid > 600


def test_parser_matches_the_reference_on_the_corpus_and_catalog():
    texts = [(text, COORDS) for text in CORPUS + OP_CASES
             + BIT_IDENTICAL_CASES]
    for name in am.catalog_names():
        h = am.catalog_entry(name)
        texts += [(ex.to_str(x), h.chart.coords) for x in h.x]
    for text, coords in texts:
        assert ex.parse(text, coords) is oracles.reference_parse(text, coords)


def _dags(rng, depth):
    """A random DAG over u1, u2 and constants of either sign, built through
    the constructors the parser uses."""
    if depth == 0 or rng.random() < 0.2:
        return rng.choice([ex.var("u1"), ex.var("u2"), ex.const(2.0),
                           ex.const(-3.0), ex.const(0.5), ex.const(-1.25)])
    kind = rng.randrange(4)
    a, b = _dags(rng, depth - 1), _dags(rng, depth - 1)
    try:
        if kind == 0:
            return ex.neg(a)
        if kind == 1:
            return ex.call(rng.choice(ex.FUNCTIONS), a)
        if kind == 2:
            return ex.powc(a, rng.choice([3.0, -2.0, 0.5, -1.5]))
        return rng.choice([ex.add, ex.sub, ex.mul, ex.div])(a, b)
    except ex.ExprError:            # a constant folded out of its domain
        return a


# the binary constructors; the exponent of a power is a constant
_BINARY_OPS = [ex.add, ex.sub, ex.mul, ex.div,
               lambda a, b: ex.powc(a, -3.0)]


def test_print_parse_roundtrip_over_generated_dags():
    u1, u2 = ex.var("u1"), ex.var("u2")
    # every binary op nested on either side of every other, under and over
    # a unary minus, with negative constants and a function
    cases = []
    for inner in _BINARY_OPS:
        for outer in _BINARY_OPS:
            nested = inner(u1, ex.call("sin", u2))
            cases += [outer(nested, u2), outer(u2, nested),
                      outer(ex.neg(nested), ex.const(-2.0)),
                      ex.neg(outer(ex.const(-2.0), nested))]
    rng = random.Random(7)
    cases += [_dags(rng, 6) for _ in range(400)]
    for e in cases:
        assert ex.parse(ex.to_str(e), COORDS) is e, ex.to_str(e)


def test_nonconstant_exponent_rejected():
    with pytest.raises(ex.ParseError):
        ex.parse("u1^u2", COORDS)


def test_named_constants():
    assert oracles.evaluate(ex.parse("pi", ()), {}) == pytest.approx(math.pi)
    assert oracles.evaluate(ex.parse("e^2", ()), {}) == pytest.approx(
        math.e ** 2)


def test_derivative_of_constant_is_zero():
    e = ex.parse("pi*e + 4", ())
    assert ex.diff(e, "u1") is ex.ZERO


@settings(max_examples=60, deadline=None)
@given(hst.floats(-1.3, 1.3), hst.floats(-1.3, 1.3),
       hst.integers(0, len(CORPUS) - 1))
def test_evaluation_deterministic_and_finite(x, y, idx):
    e = ex.parse(CORPUS[idx], COORDS)
    env = {"u1": x, "u2": y}
    v1 = oracles.evaluate(e, env)
    v2 = oracles.evaluate(e, env)
    assert v1 == v2
    assert math.isfinite(v1)


@settings(max_examples=40, deadline=None)
@given(hst.floats(-1.0, 1.0), hst.floats(-1.0, 1.0))
def test_sum_rule(x, y):
    a = ex.parse("sin(u1)*u2", COORDS)
    b = ex.parse("cosh(u1) - u2^3", COORDS)
    lhs = ex.diff(ex.add(a, b), "u1")
    rhs = ex.add(ex.diff(a, "u1"), ex.diff(b, "u1"))
    env = {"u1": x, "u2": y}
    assert oracles.evaluate(lhs, env) == pytest.approx(
        oracles.evaluate(rhs, env), rel=1e-12, abs=1e-12)


def _agree_everywhere(exprs, points):
    """fn over a batch, fn over one point and oracles.evaluate give the
    same values."""
    fn = ex.compile_exprs(exprs, COORDS)
    got = fn(points)
    assert got.shape == (len(points), len(exprs))
    for row, point in zip(got, points):
        env = dict(zip(COORDS, point))
        want = [oracles.evaluate(e, env) for e in exprs]
        assert fn([point])[0] == pytest.approx(want, rel=1e-14, abs=1e-300)
        assert list(row) == pytest.approx(want, rel=1e-14, abs=1e-300)


def test_aliased_outputs_keep_their_values(rng):
    # registers are reused after a value's last read; an output must never
    # be overwritten, whether repeated, read by a later output, or a leaf
    u1, u2 = ex.var("u1"), ex.var("u2")
    inner = ex.call("sin", u1)
    prod = ex.mul(inner, u2)
    later = ex.add(ex.mul(prod, prod), ex.call("cos", prod))
    exprs = [prod, later, prod, u2, ex.const(-1.5), inner, later, u1]
    _agree_everywhere(exprs, _random_points(9, rng))


@pytest.mark.parametrize("expo", [2, 3, 64, 65, -1, -2, 0.5])
def test_constant_exponents(expo, rng):
    base = ex.parse("1.5 + sin(u1)*u2", COORDS)
    e = ex.powc(base, expo)
    exprs = [e, ex.diff(e, "u1"), ex.add(e, ex.var("u2"))]
    _agree_everywhere(exprs, _random_points(7, rng, -1.0, 1.0))


def test_deep_chain_builds_evaluates_and_differentiates(rng):
    u1, u2 = ex.var("u1"), ex.var("u2")
    x = u1
    for i in range(5000):
        x = ex.call("sin", x) if i % 2 == 0 else ex.add(ex.mul(x, u2), u1)
    e = ex.add(x, ex.mul(u1, x))
    exprs = [e, ex.diff(e, "u1"), ex.diff(ex.diff(e, "u1"), "u2")]
    _agree_everywhere(exprs, _random_points(3, rng, -0.5, 0.5))


def test_postorder_leaves_out_known_nodes_and_what_only_they_reach():
    u1, u2, u3 = (ex.var(c) for c in ("u1", "u2", "u3"))
    known = ex.call("sin", ex.mul(u1, u2))
    r1, r2 = ex.add(known, u3), ex.call("cos", u2)
    # u1 and u1*u2 lie under the known node only; r2 reaches u2 too
    assert ex.postorder([r1, r2], {known: ex.ZERO}) == [u3, r1, u2, r2]
    assert ex.postorder([r1, r2]) == [u3, u2, u1, ex.mul(u1, u2), known,
                                      r1, r2]
    assert ex.postorder([known], {known}) == []


def test_derivative_nodes_do_not_depend_on_memo_order(monkeypatch):
    e = ex.parse("exp(sin(u1)*u2)/(2 + cos(u1*u2)) + sqrt(2 + u1^2)^3",
                 COORDS)
    sub = e.args[0]
    monkeypatch.setattr(ex, "_diff_cache", {})
    fresh = [ex.diff(e, c) for c in COORDS]
    monkeypatch.setattr(ex, "_diff_cache", {})
    ex.diff(sub, "u1")
    ex.diff(ex.diff(sub, "u2"), "u1")
    assert all(ex.diff(e, c) is d for c, d in zip(COORDS, fresh))


# every op kind of the tape that is not correctly rounded, and every
# rewrite of a constant exponent
BIT_IDENTICAL_CASES = [
    "sin(u1*u2)", "cos(u1 - u2)", "tan(u1/2)", "sinh(u1 + u2)",
    "cosh(u1*u2)", "tanh(u1)", "exp(u1 - u2)", "log(2 + u1*u2)",
    "sqrt(3 + u1 - u2)",
    "(2 + u1*u2)^0.5", "(2 + u1*u2)^1.5", "(2 + u1*u2)^-0.5",
    "(2 + u1*u2)^-2",                           # ^ with an integral exponent
    "(2 + u1*u2)^3", "(1 + u1*u2/4)^64",        # ipow
]


def _with_derivatives(text):
    e = ex.parse(text, COORDS)
    return [e, ex.diff(e, "u1"), ex.diff(ex.diff(e, "u1"), "u2")]


@pytest.mark.parametrize("text", BIT_IDENTICAL_CASES)
def test_batch_rows_are_bit_identical_to_points(text, rng):
    # a row is the same in the whole batch, in every sub-batch and as a
    # batch of one, whatever the ufuncs' vector loops do with the rest
    fn = ex.compile_exprs(_with_derivatives(text), COORDS)
    points = np.array(_random_points(SUB_BATCHES[-1].stop, rng))
    whole = fn(points)
    for part in SUB_BATCHES:
        assert np.array_equal(fn(points[part]), whole[part])
    for point, row in zip(points, whole):
        assert np.array_equal(fn([point])[0], row)


_MP_OPS = {"neg": operator.neg, "+": operator.add, "-": operator.sub,
           "*": operator.mul, "/": operator.truediv, "^": operator.pow}


@pytest.mark.parametrize("text", BIT_IDENTICAL_CASES)
def test_every_instruction_is_within_4_ulp_of_mpmath(text, rng):
    # each compiled node against its op evaluated to 50 digits on the
    # node's own float operands, so roundoff carried in from the operands
    # (cos(u1 - u2) is 31 ulp off near u1 = u2) is not counted
    mpmath = pytest.importorskip("mpmath")
    nodes = [node for node in ex.postorder(_with_derivatives(text))
             if node.args]
    points = _random_points(16, rng)
    values = ex.compile_exprs(nodes, COORDS)(points)
    with mpmath.workdps(50):
        for point, row in zip(points, values):
            env = dict(zip(COORDS, point))
            got = dict(zip(nodes, row))
            for node, value in got.items():
                args = [mpmath.mpf(got[a] if a.args
                                   else oracles.evaluate(a, env))
                        for a in node.args]
                op = getattr(mpmath, node.op, None) or _MP_OPS[node.op]
                exact = op(*args)
                assert (abs(mpmath.mpf(value) - exact)
                        <= 4 * np.spacing(abs(float(exact))))


@pytest.mark.parametrize("text,bad", [
    ("log(u1)", -0.5),
    ("u1^1.5", -0.5),
    ("exp(1000*u1)", 0.9),
    ("cosh(1000*u1)", 0.9),
    ("(1e103*u1)^3", 0.9),                      # ipow overflow
])
def test_mapped_op_failure_names_its_point(text, bad):
    fn = ex.compile_exprs([ex.parse(text, ("u1",))], ("u1",))
    points = [(0.1,), (0.2,), (bad,), (0.3,), (0.4,)]
    fn(points[:2] + points[3:])         # the other points are fine
    with pytest.raises(ex.DomainError) as want:
        fn([(bad,)])[0]
    with pytest.raises(ex.DomainError, match=f"at \\({bad},\\)") as got:
        fn(points)
    assert str(got.value) == str(want.value)


def test_first_failing_row_is_named_whatever_op_fails_first():
    # row 3 fails in log, earlier on the tape; row 1 overflows in cosh, and
    # 1/inf = 0 leaves no trace in the value
    fn = ex.compile_exprs([ex.parse("log(u1) + 1/cosh(1000*u1)", ("u1",))],
                          ("u1",))
    points = [(0.5,), (0.9,), (0.25,), (-0.5,), (0.75,)]
    with pytest.raises(ex.DomainError) as err:
        fn(points)
    assert str(err.value) == "overflow (math range error) at (0.9,)"
    with pytest.raises(ex.DomainError) as err:
        fn(points[2:])
    assert str(err.value) == "log of nonpositive value -0.5 at (-0.5,)"


# the constants include ones whose math and numpy values differ in the last
# bit (exp(1.963), tanh(1.187), ...): a folded constant is the tape's value
FOLD_CASES = [(f"{name}(u1)", c) for name, c in [
    ("sin", 0.7), ("cos", 0.7), ("tan", 1.062), ("sinh", 1.75),
    ("cosh", 1.411), ("tanh", 1.187), ("exp", 1.963), ("log", 0.917),
    ("sqrt", 2.0)]] + [
    ("u1^0.99", 0.73),                          # ^
    ("u1^-3", 0.73), ("u1^65", 1.01),           # ^int
    ("u1^7", 0.73),                             # ipow
    ("u1^2", 0.73),                             # *
]


@pytest.mark.parametrize("text,c", FOLD_CASES)
def test_folded_constant_equals_the_tape(text, c):
    folded = ex.parse(text.replace("u1", repr(c)), ())
    assert folded.kind == "const"
    fn = ex.compile_exprs([ex.sub(folded, ex.parse(text, ("u1",)))], ("u1",))
    assert fn([(c,)])[0, 0] == 0.0


@pytest.mark.parametrize("build,value", [
    (lambda x: ex.call("log", x), -0.5),
    (lambda x: ex.call("sqrt", x), -1.0),
    (lambda x: ex.call("exp", x), 1000.0),
    (lambda x: ex.call("sinh", x), -1000.0),
    (lambda x: ex.call("cosh", x), 1000.0),
    (lambda x: ex.call("sin", x), math.inf),    # non-finite result
    (lambda x: ex.powc(x, 1.5), -0.5),
    (lambda x: ex.powc(x, 1.5), 1e300),
    (lambda x: ex.powc(x, -1), 0.0),
    (lambda x: ex.powc(x, 65), 1e10),
    (lambda x: ex.powc(x, 3), 1e103),
    (lambda x: ex.powc(x, 2), 1e200),
], ids=["log", "sqrt", "exp", "sinh", "cosh", "sin-inf", "^-base", "^-range",
        "^int-zero", "^int-range", "ipow", "squared"])
def test_failing_fold_raises_the_tape_message(build, value):
    fn = ex.compile_exprs([build(ex.var("u1"))], ("u1",))
    with pytest.raises(ex.DomainError) as tape:
        fn([(value,)])
    with pytest.raises(ex.DomainError) as fold:
        build(ex.const(value))
    assert str(tape.value) == f"{fold.value} at ({value},)"


def test_every_dag_op_has_a_derivative_rule_and_a_tape_entry():
    dag_ops = {"neg", *ex.FUNCTIONS, "+", "-", "*", "/", "^"}
    assert set(ex._DERIVATIVES) == dag_ops
    # the tape's extra entries are its forms of a constant power
    assert set(ex._OPS) == dag_ops | {"ipow", "^int"}


# one expression per DAG op, smooth on [-1.4, 1.4]^2
OP_CASES = ["-(u1*u2)", "u1 + u2^3", "u1 - sin(u2)", "u1*u2", "u1/(2 + u2)",
            "(2 + u1*u2)^1.5", "(2 + u1)^-3", "(u1 + u2)^4"] + [
    f"{name}(0.6 + u1*u2/4)" for name in ex.FUNCTIONS]


def _sympy_oracle_cases():
    cases = [pytest.param(text, COORDS, [(-1.4, 1.4)] * 2, id=text)
             for text in OP_CASES + CORPUS]
    for name in am.catalog_names():
        h = am.catalog_entry(name)
        cases += [pytest.param(ex.to_str(x), h.chart.coords, h.chart.box,
                               id=f"{name}:x{a}") for a, x in enumerate(h.x)]
    return cases


@pytest.mark.parametrize("text,coords,box", _sympy_oracle_cases())
def test_derivative_matches_sympy(text, coords, box, rng):
    sympy = pytest.importorskip("sympy")
    from sympy.parsing.sympy_parser import (convert_xor, parse_expr,
                                            standard_transformations)
    symbols = [sympy.Symbol(c) for c in coords]
    exact = parse_expr(text, local_dict={"e": sympy.E,
                                         **dict(zip(coords, symbols))},
                       transformations=standard_transformations
                       + (convert_xor,))
    e = ex.parse(text, coords)
    fn = ex.compile_exprs([ex.diff(e, c) for c in coords], coords)
    points = [tuple(rng.uniform(lo, hi) for lo, hi in box) for _ in range(5)]
    for point, got in zip(points, fn(points)):
        at = dict(zip(symbols, point))
        want = [float(sympy.diff(exact, s).evalf(30, subs=at))
                for s in symbols]
        assert list(got) == pytest.approx(want, rel=1e-12, abs=1e-12)
