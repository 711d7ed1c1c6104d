"""Tiny expression language for user objectives: compiled once into one
Python function, evaluated many times.

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

Each rule of the parser returns the ``ast`` node of what it read, and
``parse`` compiles the whole into one ``lambda x: ...`` that evaluates in one
frame, so whatever parses evaluates at any depth of its caller's stack.  '/',
'^' and calls go through ``_divide``, ``_power`` and ``_call``, which raise an
``ExprEvalError``.  A chain of '+ -' or '* /' folds to the left by recursion,
a frame per operator, so a chain too long to compile is refused as it is
read, not after a loop has built all of it.
"""

from __future__ import annotations

import ast
import math
import re
from typing import Callable, Sequence

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
# each node's location, set as it is built: ast.fix_missing_locations recurses
_AT = {"lineno": 1, "col_offset": 0}
_OPERATORS = {"+": ast.Add(), "-": ast.Sub(), "*": ast.Mult()}

Compiled = Callable[[Sequence[float]], float]


class _Parser:
    def __init__(self, src: str, n: int):
        self.src = src
        self.n = n
        self.end = 0
        self.advance()

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

    def expr(self) -> ast.expr:
        return self.chain(self.term(), ("+", "-"), self.term)

    def term(self) -> ast.expr:
        return self.chain(self.factor(), ("*", "/"), self.factor)

    def chain(self, left: ast.expr, ops: tuple[str, ...],
              operand: Callable[[], ast.expr]) -> ast.expr:
        """``left`` folded with each ``op operand`` that follows, left to
        right: one frame per operator, as ``compile()`` takes per level."""
        c = self.tok
        if c not in ops:
            return left
        self.advance()
        return self.chain(_binary(c, left, operand()), ops, operand)

    def factor(self) -> ast.expr:
        if self.accept("-"):
            # '^' binds tighter: -x1^2 parses as -(x1^2)
            return ast.UnaryOp(ast.USub(), self.factor(), **_AT)
        e = self.atom()
        if self.accept("^"):
            return _apply("_power", e, self.factor())  # right-associative
        return e

    def atom(self) -> ast.expr:
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
            return ast.Constant(value, **_AT)
        if c.isalpha():
            return self.name()
        self.error("unexpected character %r" % c)

    def name(self) -> ast.expr:
        word = self.tok
        if word[0] in "xX" and word[1:] and _DIGITS.issuperset(word[1:]):
            # the index is sized as text first: int() refuses over 4,300 digits
            digits = word[1:].lstrip("0")
            idx = int(digits) if 0 < len(digits) <= len(str(self.n)) else 0
            if not 1 <= idx <= self.n:
                self.error("variable %s out of range 1..%d" % (clip(word), self.n))
            self.advance()
            x = ast.Name("x", ast.Load(), **_AT)
            i = ast.Constant(idx - 1, **_AT)
            return _apply("float", ast.Subscript(x, i, ast.Load(), **_AT))
        if word in FUNCTIONS:
            self.advance()
            self.expect("(")
            arg = self.expr()
            self.expect(")")
            return _apply("_call", ast.Constant(word, **_AT), arg)
        self.error("unknown function or variable %r" % clip(word))


def _apply(fn: str, *args: ast.expr) -> ast.Call:
    """The call of this module's global ``fn`` (or builtin) on ``args``."""
    return ast.Call(ast.Name(fn, ast.Load(), **_AT), list(args), [], **_AT)


def _binary(op: str, left: ast.expr, right: ast.expr) -> ast.expr:
    if op == "/":
        return _apply("_divide", left, right)
    return ast.BinOp(left, _OPERATORS[op], right, **_AT)


def _divide(a: float, b: float) -> float:
    if b == 0.0:
        raise ExprEvalError("division by zero")
    return a / b


def _power(a: float, b: float) -> float:
    try:
        r = a**b
    except (OverflowError, ValueError, ZeroDivisionError) as exc:
        raise ExprEvalError("power failed: %s" % exc) from None
    if isinstance(r, complex):
        raise ExprEvalError("power of negative base with fractional exponent")
    return float(r)


def _call(word: str, a: float) -> float:
    try:
        return float(FUNCTIONS[word](a))
    except (OverflowError, ValueError) as exc:
        raise ExprEvalError("%s: %s" % (word, exc)) from None


def parse(src: str, n: int) -> Compiled:
    """``src`` with variables x1..xn, compiled into the one function that
    ``evaluate`` calls.  Nesting deeper than Python's recursion limit lets
    the parser read or ``compile()`` take, counting each operator of a chain
    as a level, is an ``ExprError`` at the offset reached."""
    if not src or not src.strip():
        raise ExprError("empty expression", 0)
    parser = _Parser(src, n)
    args = ast.arguments(posonlyargs=[], args=[ast.arg("x", **_AT)], vararg=None,
                         kwonlyargs=[], kw_defaults=[], kwarg=None, defaults=[])
    try:
        body = parser.expr()
        if parser.tok:
            parser.error("trailing input")
        code = compile(ast.Expression(ast.Lambda(args, body, **_AT)), "<expression>", "eval")
    except RecursionError:
        raise ExprError("expression nested too deeply", parser.pos) from None
    return eval(code, globals())


def evaluate(compiled: Compiled, x: Sequence[float]) -> float:
    """The value at ``x`` of ``parse``'s function, or an ``ExprEvalError``.
    The function runs in one frame, so from any depth of the caller's stack."""
    return compiled(x)
