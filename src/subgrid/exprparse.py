"""Tiny expression language for user objectives: compiled once, evaluated many times.

Grammar (no implicit multiplication; '^' is right-associative and binds
tighter than unary minus, so "-x1^2" means -(x1^2)):

    expr   := term (('+' | '-') term)*
    term   := factor (('*' | '/') factor)*
    factor := '-' factor | atom ('^' factor)?
    atom   := number | 'x' digits | name '(' expr ')' | '(' expr ')'

Variables are x1..xn, with an index of any length (leading zeros allowed).
Supported calls, each of one argument: cos, sin, exp, floor, abs, sqrt, log.
After any whitespace, each token is a number (ASCII digits and dots, with an
exponent only where digits follow the 'e'), a word (letters, digits and '_';
a name only if it starts with a letter) or any other single character.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Callable, Sequence, Union

from .errors import ExprError, ExprEvalError, clip

FUNCTIONS = {
    "cos": math.cos,
    "sin": math.sin,
    "exp": math.exp,
    "floor": math.floor,
    "abs": abs,
    "sqrt": math.sqrt,
    "log": math.log,
}

# ASCII only: str.isdigit also accepts superscripts and other scripts' digits
_DIGITS = frozenset("0123456789")
# the token rule above; the empty token at the end of the text
_TOKEN = re.compile(r"\s*([0-9.]+(?:[eE][+-]?[0-9]+)?|\w+|\S|)")


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
Compiled = Callable[[Sequence[float]], float]


class _Parser:
    def __init__(self, src: str, n: int):
        self.src = src
        self.n = n
        self.pos = self.end = 0

    def advance(self):
        """Step to the next token: ``tok`` is its text ("" at the end) and
        ``pos`` its offset, past any whitespace."""
        m = _TOKEN.match(self.src, self.end)
        self.pos, self.end = m.span(1)
        self.tok = m.group(1)

    def error(self, msg):
        raise ExprError(msg, self.pos)

    def accept(self, ch):
        if self.tok == ch:
            self.advance()
            return True
        return False

    def expect(self, ch):
        if not self.accept(ch):
            self.error("expected %r" % ch)

    def parse(self) -> Expr:
        self.advance()
        e = self.expr()
        if self.tok:
            self.error("trailing input")
        return e

    def expr(self) -> Expr:
        e = self.term()
        while True:
            c = self.tok
            if c in ("+", "-"):
                self.advance()
                e = Binary(c, e, self.term())
            else:
                return e

    def term(self) -> Expr:
        e = self.factor()
        while True:
            c = self.tok
            if c in ("*", "/"):
                self.advance()
                e = Binary(c, e, self.factor())
            else:
                return e

    def factor(self) -> Expr:
        if self.accept("-"):
            # '^' binds tighter: -x1^2 parses as -(x1^2)
            return Unary("-", self.factor())
        e = self.atom()
        if self.accept("^"):
            return Binary("^", e, self.factor())  # right-associative
        return e

    def atom(self) -> Expr:
        c = self.tok[:1]
        if c == "(":
            self.advance()
            e = self.expr()
            self.expect(")")
            return e
        if c in _DIGITS or c == ".":
            try:
                value = float(self.tok)
            except ValueError:
                self.error("bad number literal")
            self.advance()
            return Constant(value)
        if c.isalpha():
            return self.name()
        self.error("unexpected character %r" % c)

    def name(self) -> Expr:
        word = self.tok
        if word[0] in "xX" and word[1:] and _DIGITS.issuperset(word[1:]):
            # the index is sized as text first: int() refuses over 4,300 digits
            digits = word[1:].lstrip("0")
            idx = int(digits) if 0 < len(digits) <= len(str(self.n)) else 0
            if not 1 <= idx <= self.n:
                self.error("variable %s out of range 1..%d" % (clip(word), self.n))
            self.advance()
            return Variable(idx)
        if word in FUNCTIONS:
            self.advance()
            self.expect("(")
            arg = self.expr()
            self.expect(")")
            return Call(word, (arg,))
        self.error("unknown function or variable %r" % clip(word))


def parse(src: str, n: int) -> Expr:
    """Parse ``src`` with variables x1..xn.  Nesting deeper than Python's
    recursion limit allows is an ``ExprError`` at the offset reached."""
    if not src or not src.strip():
        raise ExprError("empty expression", 0)
    parser = _Parser(src, n)
    try:
        return parser.parse()
    except RecursionError:
        raise ExprError("expression nested too deeply", parser.pos) from None


def compile(ast: Expr) -> Compiled:
    """``parse``'s AST made once into nested closures, for ``evaluate`` to call
    at each point: they do its float operations, and raise its errors, in a
    tree walk's order.  An AST nested too deeply is an ``ExprEvalError``."""
    try:
        return _compile(ast)
    except RecursionError:
        raise ExprEvalError("expression nested too deeply") from None


def evaluate(compiled: Compiled, x: Sequence[float]) -> float:
    """The value at ``x`` of ``compile``'s closures, or an ``ExprEvalError``."""
    try:
        return compiled(x)
    except RecursionError:
        raise ExprEvalError("expression nested too deeply") from None


def _compile(ast: Expr) -> Compiled:
    if isinstance(ast, Constant):
        value = ast.value
        return lambda x: value
    if isinstance(ast, Variable):
        i = ast.index - 1
        return lambda x: float(x[i])
    if isinstance(ast, Unary):
        child = _compile(ast.child)
        return lambda x: -child(x)
    if isinstance(ast, Call):
        (arg,) = ast.args  # each function takes one argument
        name, fn, arg = ast.fn, FUNCTIONS[ast.fn], _compile(arg)

        def call(x):
            a = arg(x)
            try:
                return float(fn(a))
            except (OverflowError, ValueError) as exc:
                raise ExprEvalError("%s: %s" % (name, exc)) from None
        return call
    if not isinstance(ast, Binary):
        raise ExprEvalError("unknown node %r" % (ast,))
    op, left, right = ast.op, _compile(ast.left), _compile(ast.right)
    if op == "+":
        return lambda x: left(x) + right(x)
    if op == "-":
        return lambda x: left(x) - right(x)
    if op == "*":
        return lambda x: left(x) * right(x)
    if op == "/":
        def divide(x):
            a, b = left(x), right(x)
            if b == 0.0:
                raise ExprEvalError("division by zero")
            return a / b
        return divide
    if op == "^":
        def power(x):
            a, b = left(x), right(x)
            try:
                r = a**b
            except (OverflowError, ValueError, ZeroDivisionError) as exc:
                raise ExprEvalError("power failed: %s" % exc) from None
            if isinstance(r, complex):
                raise ExprEvalError("power of negative base with fractional exponent")
            return float(r)
        return power
    raise ExprEvalError("unknown operator %r" % op)


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
    if isinstance(ast, Call):
        return "%s(%s)" % (ast.fn, ",".join(to_string(a) for a in ast.args))
    raise ExprEvalError("unknown node %r" % (ast,))

