"""Tiny arithmetic expression language for user-supplied objectives.

Grammar (no implicit multiplication; '^' is right-associative and binds
tighter than unary minus, so "-x1^2" means -(x1^2)):

    expr   := term (('+' | '-') term)*
    term   := factor (('*' | '/') factor)*
    factor := unary ('^' factor)?
    unary  := '-'? atom
    atom   := number | 'x' digits | name '(' expr ')' | '(' expr ')'

Variables are x1..xn.  Supported calls, each of one argument: cos, sin, exp,
floor, abs, sqrt, log.
Digits, in numbers and in variable indices, are ASCII 0-9 only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Union

from .errors import ExprError, ExprEvalError

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


class _Parser:
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
                self.error("variable %s out of range 1..%d" % (word, self.n))
            return Variable(idx)
        if word in FUNCTIONS:
            self.expect("(")
            arg = self.expr()
            self.expect(")")
            return Call(word, (arg,))
        self.pos = start
        self.error("unknown function or variable %r" % word)


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


def evaluate(ast: Expr, x: Sequence[float]) -> float:
    """The value of ``ast`` at ``x``; an undefined value, or an AST nested
    deeper than Python's recursion limit allows, is an ``ExprEvalError``."""
    try:
        return _evaluate(ast, x)
    except RecursionError:
        raise ExprEvalError("expression nested too deeply") from None


def _evaluate(ast: Expr, x: Sequence[float]) -> float:
    if isinstance(ast, Constant):
        return ast.value
    if isinstance(ast, Variable):
        return float(x[ast.index - 1])
    if isinstance(ast, Unary):
        return -_evaluate(ast.child, x)
    if isinstance(ast, Binary):
        a = _evaluate(ast.left, x)
        b = _evaluate(ast.right, x)
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
        args = [_evaluate(a, x) for a in ast.args]
        try:
            return float(FUNCTIONS[ast.fn](*args))
        except (OverflowError, ValueError) as exc:
            raise ExprEvalError("%s: %s" % (ast.fn, exc)) from None
    raise ExprEvalError("unknown node %r" % (ast,))


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

