import math
import random
import struct
import sys
from dataclasses import dataclass
from typing import Union

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from subgrid.errors import ExprError, ExprEvalError
from subgrid.exprparse import FUNCTIONS, evaluate, parse
from subgrid.functions import get_objective

_DIGITS = frozenset("0123456789")


# The syntax tree that the reference parser builds, ``to_string`` prints and
# the reference walker reads; ``parse`` compiles its own tree and keeps none.
@dataclass(frozen=True)
class Constant:
    value: float


@dataclass(frozen=True)
class Variable:
    index: int  # 1-based


@dataclass(frozen=True)
class Unary:
    op: str
    child: "Expr"


@dataclass(frozen=True)
class Binary:
    op: str
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Call:
    fn: str
    args: tuple["Expr", ...]


Expr = Union[Constant, Variable, Unary, Binary, Call]


def to_string(ast: Expr) -> str:
    """Fully parenthesized form; reparses to a structurally identical AST."""
    if isinstance(ast, Constant):
        v = ast.value
        if v < 0:
            # negative literals only arise from programmatic ASTs
            return "(0-%r)" % (-v,)
        return repr(v)
    if isinstance(ast, Variable):
        return "x%d" % ast.index
    if isinstance(ast, Unary):
        return "(-%s)" % to_string(ast.child)
    if isinstance(ast, Binary):
        return "(%s%s%s)" % (to_string(ast.left), ast.op, to_string(ast.right))
    return "%s(%s)" % (ast.fn, ",".join(to_string(a) for a in ast.args))


class ReferenceParser:
    """The character-by-character parser that the token pattern replaced,
    kept as the reference for ``parse``: it builds the syntax tree that
    ``reference_evaluate`` walks."""

    def __init__(self, src: str, n: int):
        self.src = src
        self.n = n
        self.pos = 0

    def error(self, msg):
        raise ExprError(msg, self.pos)

    def skip_ws(self):
        while self.pos < len(self.src) and self.src[self.pos].isspace():
            self.pos += 1

    def peek(self):
        self.skip_ws()
        return self.src[self.pos] if self.pos < len(self.src) else ""

    def accept(self, ch):
        if self.peek() == ch:
            self.pos += 1
            return True
        return False

    def expect(self, ch):
        if not self.accept(ch):
            self.error("expected %r" % ch)

    def parse(self) -> Expr:
        self.skip_ws()
        if self.pos >= len(self.src):
            self.error("empty expression")
        e = self.expr()
        self.skip_ws()
        if self.pos != len(self.src):
            self.error("trailing input")
        return e

    def expr(self) -> Expr:
        e = self.term()
        while True:
            c = self.peek()
            if c and c in "+-":
                self.pos += 1
                e = Binary(c, e, self.term())
            else:
                return e

    def term(self) -> Expr:
        e = self.factor()
        while True:
            c = self.peek()
            if c and c in "*/":
                self.pos += 1
                e = Binary(c, e, self.factor())
            else:
                return e

    def factor(self) -> Expr:
        e = self.unary()
        if self.accept("^"):
            return Binary("^", e, self.factor())  # right-associative
        return e

    def unary(self) -> Expr:
        if self.accept("-"):
            # '^' binds tighter: -x1^2 parses as -(x1^2)
            child = self.unary()
            if self.accept("^"):
                child = Binary("^", child, self.factor())
            return Unary("-", child)
        return self.atom()

    def atom(self) -> Expr:
        c = self.peek()
        if c == "(":
            self.pos += 1
            e = self.expr()
            self.expect(")")
            return e
        if c in _DIGITS or c == ".":
            return self.number()
        if c.isalpha():
            return self.name()
        self.error("unexpected character %r" % c)

    def number(self) -> Constant:
        start = self.pos
        src = self.src
        while self.pos < len(src) and (src[self.pos] in _DIGITS or src[self.pos] == "."):
            self.pos += 1
        if self.pos < len(src) and src[self.pos] in "eE":
            mark = self.pos
            self.pos += 1
            if self.pos < len(src) and src[self.pos] in "+-":
                self.pos += 1
            if self.pos < len(src) and src[self.pos] in _DIGITS:
                while self.pos < len(src) and src[self.pos] in _DIGITS:
                    self.pos += 1
            else:
                self.pos = mark  # not an exponent after all
        try:
            return Constant(float(src[start:self.pos]))
        except ValueError:
            self.pos = start
            self.error("bad number literal")

    def name(self) -> Expr:
        start = self.pos
        src = self.src
        while self.pos < len(src) and (src[self.pos].isalnum() or src[self.pos] == "_"):
            self.pos += 1
        word = src[start:self.pos]
        if word[0] in "xX" and word[1:] and _DIGITS.issuperset(word[1:]):
            idx = int(word[1:])
            if not 1 <= idx <= self.n:
                self.pos = start
                self.error("variable %s out of range 1..%d" % (_clip(word), self.n))
            return Variable(idx)
        if word in FUNCTIONS:
            self.expect("(")
            arg = self.expr()
            self.expect(")")
            return Call(word, (arg,))
        self.pos = start
        self.error("unknown function or variable %r" % _clip(word))


def _clip(word):
    """An error message quotes a word's first 20 characters only."""
    return word if len(word) <= 20 else word[:20] + "..."


def reference_parse(src: str, n: int) -> Expr:
    """``parse`` over the reference parser."""
    if not src or not src.strip():
        raise ExprError("empty expression", 0)
    parser = ReferenceParser(src, n)
    try:
        return parser.parse()
    except RecursionError:
        raise ExprError("expression nested too deeply", parser.pos) from None


def reference_evaluate(ast: Expr, x) -> float:
    """The tree walker, kept as the reference for ``parse``'s compiled
    function: the value of ``ast`` at ``x``."""
    if isinstance(ast, Constant):
        return ast.value
    if isinstance(ast, Variable):
        return float(x[ast.index - 1])
    if isinstance(ast, Unary):
        return -reference_evaluate(ast.child, x)
    if isinstance(ast, Binary):
        a = reference_evaluate(ast.left, x)
        b = reference_evaluate(ast.right, x)
        if ast.op == "+":
            return a + b
        if ast.op == "-":
            return a - b
        if ast.op == "*":
            return a * b
        if ast.op == "/":
            if b == 0.0:
                raise ExprEvalError("division by zero")
            return a / b
        if ast.op == "^":
            try:
                r = a**b
            except (OverflowError, ValueError, ZeroDivisionError) as exc:
                raise ExprEvalError("power failed: %s" % exc) from None
            if isinstance(r, complex):
                raise ExprEvalError("power of negative base with fractional exponent")
            return float(r)
        raise ExprEvalError("unknown operator %r" % ast.op)
    if isinstance(ast, Call):
        args = [reference_evaluate(a, x) for a in ast.args]
        try:
            return float(FUNCTIONS[ast.fn](*args))
        except (OverflowError, ValueError) as exc:
            raise ExprEvalError("%s: %s" % (ast.fn, exc)) from None
    raise ExprEvalError("unknown node %r" % (ast,))


def value_of(src: str, n: int, x) -> float:
    """``src`` parsed and evaluated at ``x``."""
    return evaluate(parse(src, n), x)


def result(fn):
    """The value ``fn()`` gives, as its bits, or the class and message of
    what it raises.  Every NaN is one value: CPython's adaptive interpreter,
    not the expression, picks the sign of a NaN that ``inf - inf`` makes,
    and no output prints it."""
    try:
        value = fn()
        return b"nan" if math.isnan(value) else struct.pack("<d", value)
    except Exception as exc:
        return type(exc), str(exc)


# coordinates where a change of operation or of how operands associate
# shows: signed zeros and infinities, NaN, and magnitudes near 1e16, where
# (1e16 + 1) + 1 and 1e16 + (1 + 1) differ
SPECIAL = (1e16, 1.0, 1.0, -1e16, 0.0, -0.0, math.inf, -math.inf, math.nan, 3.0, -0.5,
           1e-16)


def points(n: int) -> list:
    """One point of ``n`` coordinates per start in ``SPECIAL``, each axis one
    step further along it."""
    return [tuple(SPECIAL[(k + i) % len(SPECIAL)] for i in range(n))
            for k in range(len(SPECIAL))]


def outcome(src: str, n: int, parse_fn=parse, evaluate_fn=evaluate):
    """The message and offset of the ``ExprError`` that parsing ``src``
    raises, or the ``result`` of evaluating it at each of ``points(n)``;
    by default through ``parse`` and ``evaluate``."""
    try:
        parsed = parse_fn(src, n)
    except ExprError as exc:
        return str(exc), exc.offset
    return [result(lambda: evaluate_fn(parsed, x)) for x in points(n)]


# the grammar's characters, Unicode whitespace (no-break, em and ideographic
# spaces, a file separator, next-line), and Unicode digits, numerals and
# letters that str.isalnum or str.isalpha accept
ALPHABET = ("0123456789.eE+-*/^()xX_, \t\n" + "".join(sorted(set("".join(FUNCTIONS))))
            + "\u00a0\u2003\u3000\x1c\x85" + "\u00b2\u0661\u0663\u2155\u2167"
            + "\u00e9\u00df\u03a9\u00aa\u4e00")
TOKENS = sorted(FUNCTIONS) + ["x1", "x2", "x01", "x10", "X3", "x0", "x", "1e5", "2.5E-1",
                              "1e", ".5", "1..2", "(", ")", "+", "-", "*", "/", "^", " "]


class TestParsing:
    def test_sum_of_squares(self):
        assert value_of("x1^2 + x2^2", 2, (3.0, 4.0)) == 25.0

    def test_power_right_associative(self):
        assert value_of("2^3^2", 1, (0.0,)) == 512.0

    def test_unary_minus_binds_looser_than_power(self):
        assert value_of("-x1^2", 1, (3.0,)) == -9.0
        assert value_of("(-x1)^2", 1, (3.0,)) == 9.0

    def test_precedence(self):
        assert value_of("2+3*4", 1, (0.0,)) == 14.0
        assert value_of("2*3^2", 1, (0.0,)) == 18.0
        assert value_of("10-4-3", 1, (0.0,)) == 3.0

    def test_floor(self):
        assert value_of("floor(-5.12)", 1, (0.0,)) == -6.0

    def test_scientific_notation(self):
        assert value_of("1.5e2 + 2e-1", 1, (0.0,)) == 150.2

    def test_variable_out_of_range(self):
        with pytest.raises(ExprError):
            parse("x3", 2)

    def test_unknown_function(self):
        with pytest.raises(ExprError):
            parse("tan(x1)", 1)

    @pytest.mark.parametrize("src", ["cos(x1, x2)", "abs()", "sqrt(x1,)"])
    def test_a_call_takes_exactly_one_argument(self, src):
        with pytest.raises(ExprError):
            parse(src, 2)
        assert outcome("cos(x1)", 1) == [
            result(lambda: reference_evaluate(Call("cos", (Variable(1),)), x))
            for x in points(1)]

    def test_syntax_error_carries_offset(self):
        with pytest.raises(ExprError) as err:
            parse("x1 + + x2", 2)
        assert err.value.offset == 5

    def test_empty_expression(self):
        with pytest.raises(ExprError):
            parse("", 1)
        with pytest.raises(ExprError):
            parse("   ", 1)

    def test_trailing_garbage(self):
        with pytest.raises(ExprError):
            parse("x1 x2", 2)

    def test_no_implicit_multiplication(self):
        with pytest.raises(ExprError):
            parse("2x1", 1)

    @pytest.mark.parametrize("src", ["x1\u00b2", "x\u0661", "\u0663*x1"])
    def test_digits_are_ascii_only(self, src):
        # a superscript two and Arabic-Indic one and three: str.isdigit
        # accepts all three
        with pytest.raises(ExprError):
            parse(src, 1)

    @pytest.mark.parametrize("nest", [lambda d: "(" * d + "x1" + ")" * d,
                                      lambda d: "^".join(["1"] * (d + 1)),
                                      lambda d: "+".join(["x1"] * (d + 1))],
                             ids=["parentheses", "powers", "sum"])
    def test_nesting_past_the_recursion_limit_is_expr_error(self, nest):
        # as many levels or operators as the recursion limit: the parser
        # spends at least one frame on each
        src = nest(sys.getrecursionlimit())
        with pytest.raises(ExprError) as err:
            parse(src, 1)
        assert "nested too deeply" in str(err.value)
        assert 0 < err.value.offset < len(src)

    def test_a_long_chain_is_refused_as_it_is_read(self):
        # a frame per operator: the parser gives up within the recursion
        # limit's reach of the start, not after reading all 100,000 terms
        src = "+".join(["x1"] * 100_000)
        with pytest.raises(ExprError, match="nested too deeply") as err:
            parse(src, 1)
        assert err.value.offset < 3 * sys.getrecursionlimit()

    @pytest.mark.parametrize("digits", ["1" * 5000, "0" * 5000],
                             ids=["ones", "zeros"])
    def test_an_index_of_any_length_is_out_of_range_at_its_offset(self, digits):
        # more digits than int() converts (4,300)
        with pytest.raises(ExprError, match=r"out of range 1\.\.2 \(at offset 2\)$"):
            parse("1+x" + digits, 2)


    @pytest.mark.parametrize("src, n, message", [
        ("1+x" + "1" * 5000, 2, "variable x1111111111111111111... out of range 1..2 (at offset 2)"),
        ("1+x" + "1" * 19, 2, "variable x1111111111111111111 out of range 1..2 (at offset 2)"),
        ("x1 * " + "q" * 5000, 1, "unknown function or variable 'qqqqqqqqqqqqqqqqqqqq...' "
                                  "(at offset 5)"),
        ("x1 * " + "q" * 20, 1, "unknown function or variable 'qqqqqqqqqqqqqqqqqqqq' "
                                "(at offset 5)"),
    ], ids=["long-index", "20-character-index", "long-name", "20-character-name"])
    def test_a_message_quotes_a_word_up_to_20_characters(self, src, n, message):
        with pytest.raises(ExprError) as err:
            parse(src, n)
        assert str(err.value) == message


class TestTokenPattern:
    @settings(max_examples=2000, deadline=None)
    @given(src=st.one_of(st.text(ALPHABET, max_size=16),
                         st.lists(st.sampled_from(TOKENS), max_size=8).map("".join)),
           n=st.integers(0, 12))
    @example(src="x1 + + x2", n=2).via("an operator where an operand belongs")
    @example(src="1.5e2x", n=1).via("a word right after an exponent")
    @example(src="1e+x1", n=1).via("an exponent sign without digits")
    @example(src="x1.5", n=2).via("a number right after a variable")
    @example(src="_x", n=1).via("a word that starts with '_'")
    @example(src="cos x1", n=1).via("a call without '('")
    @example(src="\u3000x01\u00a0", n=1).via("Unicode spaces around a zero-led index")
    @example(src="x1\u00b2", n=1).via("a superscript digit in a word")
    @example(src="((x1)", n=1).via("a missing ')' at the end")
    @example(src="x1+x2+x3-x4*x2/x3", n=4).via("chains whose grouping shows near 1e16")
    def test_matches_the_reference_parser(self, src, n):
        assert outcome(src, n) == outcome(src, n, reference_parse, reference_evaluate)


class TestEvaluation:
    def test_division_by_zero(self):
        with pytest.raises(ExprEvalError):
            value_of("1/x1", 1, (0.0,))

    def test_log_of_nonpositive(self):
        with pytest.raises(ExprEvalError):
            value_of("log(x1)", 1, (-1.0,))

    def test_fractional_power_of_negative(self):
        with pytest.raises(ExprEvalError):
            value_of("x1^0.5", 1, (-4.0,))

    def test_nesting_evaluates_from_deep_in_the_callers_stack(self):
        # parsed near the top of the stack, evaluated from deep in it: the
        # compiled function takes one frame however deep the sum nests
        depth = sys.getrecursionlimit() // 2
        compiled = parse("+".join(["x1"] * depth), 1)
        assert evaluate(compiled, (1.0,)) == depth

        def nested(levels):
            return nested(levels - 1) if levels else evaluate(compiled, (1.0,))

        assert nested(depth) == depth

    def test_rosenbrock_minimum(self):
        assert value_of("100*(x1^2-x2)^2+(1-x1)^2", 2, (1.0, 1.0)) == 0.0


class TestRoundTrip:
    CASES = [
        "x1^2 + x2^2",
        "-cos(x1)*cos(x2)",
        "100*(x1^2-x2)^2+(1-x1)^2",
        "2^3^2",
        "floor(x1) + abs(x2) - sqrt(4)",
        "1/(x1+2.5) * exp(-x2)",
    ]

    @pytest.mark.parametrize("src", CASES)
    def test_print_reparse_identical_ast(self, src):
        # the text and its reference tree printed compile to functions that
        # agree with the tree, bit for bit, at every point
        ast = reference_parse(src, 2)
        walked = [result(lambda: reference_evaluate(ast, x)) for x in points(2)]
        assert outcome(src, 2) == outcome(to_string(ast), 2) == walked

    def test_random_asts_evaluate_identically(self):
        rng = random.Random(99)

        def gen(depth):
            if depth == 0 or rng.random() < 0.3:
                if rng.random() < 0.5:
                    return Constant(round(rng.uniform(0.1, 9.9), 3))
                return Variable(rng.randint(1, 2))
            roll = rng.random()
            if roll < 0.15:
                return Unary("-", gen(depth - 1))
            if roll < 0.3:
                return Call(rng.choice(["cos", "sin", "abs"]), (gen(depth - 1),))
            op = rng.choice(["+", "-", "*"])
            return Binary(op, gen(depth - 1), gen(depth - 1))

        for _ in range(1000):
            ast = gen(3)
            back = parse(to_string(ast), 2)
            x = (rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0))
            assert result(lambda: evaluate(back, x)) == result(lambda: reference_evaluate(ast, x))


class TestBuiltinEquivalence:
    STRINGS = {
        "f1": ("x1^2 + x2^2 + x3^2", 1e-9),
        "f2": ("100*(x1^2-x2)^2+(1-x1)^2", 1e-9),
        "f3": ("30 + floor(x1)+floor(x2)+floor(x3)+floor(x4)+floor(x5)", 1e-9),
        "goldstein-price": (
            "(1+(x1+x2+1)^2*(19-14*x1+3*x1^2-14*x2+6*x1*x2+3*x2^2))"
            "*(30+(2*x1-3*x2)^2*(18-32*x1+12*x1^2+48*x2-36*x1*x2+27*x2^2))",
            1e-9),
        "easom": (
            "-cos(x1)*cos(x2)*exp(-((x1-3.14159265)^2+(x2-3.14159265)^2))",
            1e-6),
    }

    @pytest.mark.parametrize("name", sorted(STRINGS))
    def test_matches_native(self, name):
        src, tol = self.STRINGS[name]
        obj = get_objective(name)
        compiled = parse(src, obj.dim)
        rng = np.random.default_rng(7)
        lo = np.asarray(obj.box.lower)
        hi = np.asarray(obj.box.upper)
        for _ in range(100):
            x = tuple(rng.uniform(lo, hi))
            native = obj.evaluate(x)
            scale = max(1.0, abs(native))
            assert abs(evaluate(compiled, x) - native) / scale < tol, (name, x)


def asts(n: int):
    """ASTs over x1..xn that use every operator and every function, with
    constants that make powers overflow or divide by zero."""
    constants = st.one_of(st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.0, 400.0, 1e308]),
                          st.floats(allow_nan=False, allow_infinity=False)).map(Constant)
    leaves = st.one_of(constants, st.integers(1, n).map(Variable))

    def extend(children):
        return st.one_of(
            children.map(lambda c: Unary("-", c)),
            st.builds(Binary, st.sampled_from("+-*/^"), children, children),
            st.builds(lambda fn, c: Call(fn, (c,)), st.sampled_from(sorted(FUNCTIONS)), children))

    return st.recursive(leaves, extend, max_leaves=10)


# coordinates where division, powers, log and sqrt fail or overflow
COORDINATES = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, -4.0, 0.5, -0.5, 2.0, 710.0, 1e308, -1e308]),
    st.floats())


def agree(src: str, n: int, x) -> bool:
    """``parse``'s function and the reference walker give the same ``result``
    for ``src`` at ``x``."""
    return result(lambda: evaluate(parse(src, n), x)) == result(
        lambda: reference_evaluate(reference_parse(src, n), x))


class TestCompiledMatchesTheWalker:
    """The compiled function gives the reference walker's value, bit for bit,
    or raise its error class with its message."""

    @settings(max_examples=1000, deadline=None)
    @given(ast=asts(2), x=st.tuples(COORDINATES, COORDINATES))
    def test_printed_asts(self, ast, x):
        text = to_string(ast)
        assert agree(text, 2, x)
        assert outcome(text, 2) == outcome(text, 2, reference_parse, reference_evaluate)

    @pytest.mark.parametrize("src, x", [
        ("1/x1", (0.0,)), ("1/x1", (-0.0,)), ("x1/x1", (0.0,)),
        ("x1^0.5", (-4.0,)), ("x1^x1", (0.0,)), ("0^(0-x1)", (1.0,)), ("10^x1", (400.0,)),
        ("log(x1)", (0.0,)), ("log(x1)", (-1.0,)), ("sqrt(x1)", (-1.0,)),
        ("exp(x1)", (710.0,)), ("floor(x1*1e308*10)", (1.0,)), ("cos(x1*1e308*10)", (1.0,)),
        ("sin(x1)+abs(x1)-floor(x1)*exp(x1)/sqrt(x1)^log(x1)", (0.5,)),
        # both operands fail: the left one's error is raised
        *(("log(x1)%s(1/(x1-x1))" % op, (-1.0,)) for op in "+-*/^"),
        ("(1/(x1-x1))+log(x1)", (-1.0,)),
    ])
    def test_points_where_operations_fail(self, src, x):
        assert agree(src, 1, x)
