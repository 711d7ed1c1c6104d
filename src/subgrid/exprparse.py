"""Tiny expression language for user objectives: parsed once into nested
closures, evaluated many times.

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

Each rule of the parser returns the closure of what it read: called at a
point, it evaluates its operands left before right, then its own operation.
A chain of '+ -' or '* /' folds to the left, by recursion, so the parser
spends a stack frame per operator as the closures do: an expression too deep
to evaluate is refused when it is parsed.
"""

from __future__ import annotations

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
# frames below its caller at which ``parse`` parses; engines evaluate at most 12
# below it (SLM under perfbench's tracer), so an expression that parses evaluates
FRAME_MARGIN = 32

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

    def parse(self, margin: int) -> Compiled:
        if margin:  # start ``margin`` frames deeper
            return self.parse(margin - 1)
        self.advance()
        e = self.expr()
        if self.tok:
            self.error("trailing input")
        return e

    def expr(self) -> Compiled:
        return self.chain(self.term(), ("+", "-"), self.term)

    def term(self) -> Compiled:
        return self.chain(self.factor(), ("*", "/"), self.factor)

    def chain(self, left: Compiled, ops: tuple[str, ...],
              operand: Callable[[], Compiled]) -> Compiled:
        """``left`` folded with each ``op operand`` that follows, left to
        right: one frame per operator, as evaluating the fold takes."""
        c = self.tok
        if c not in ops:
            return left
        self.advance()
        return self.chain(_binary(c, left, operand()), ops, operand)

    def factor(self) -> Compiled:
        if self.accept("-"):
            # '^' binds tighter: -x1^2 parses as -(x1^2)
            child = self.factor()
            return lambda x: -child(x)
        e = self.atom()
        if self.accept("^"):
            return _binary("^", e, self.factor())  # right-associative
        return e

    def atom(self) -> Compiled:
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
            return lambda x: value
        if c.isalpha():
            return self.name()
        self.error("unexpected character %r" % c)

    def name(self) -> Compiled:
        word = self.tok
        if word[0] in "xX" and word[1:] and _DIGITS.issuperset(word[1:]):
            # the index is sized as text first: int() refuses over 4,300 digits
            digits = word[1:].lstrip("0")
            idx = int(digits) if 0 < len(digits) <= len(str(self.n)) else 0
            if not 1 <= idx <= self.n:
                self.error("variable %s out of range 1..%d" % (clip(word), self.n))
            self.advance()
            i = idx - 1
            return lambda x: float(x[i])
        if word in FUNCTIONS:
            self.advance()
            self.expect("(")
            arg = self.expr()
            self.expect(")")
            fn = FUNCTIONS[word]

            def call(x):
                a = arg(x)
                try:
                    return float(fn(a))
                except (OverflowError, ValueError) as exc:
                    raise ExprEvalError("%s: %s" % (word, exc)) from None
            return call
        self.error("unknown function or variable %r" % clip(word))


def _binary(op: str, left: Compiled, right: Compiled) -> Compiled:
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


def parse(src: str, n: int) -> Compiled:
    """``src`` with variables x1..xn, parsed into the closures ``evaluate``
    calls.  Nesting deeper than Python's recursion limit allows, counting
    each operator of a chain as a level and from ``FRAME_MARGIN`` frames
    below the caller, is an ``ExprError`` at the offset reached."""
    if not src or not src.strip():
        raise ExprError("empty expression", 0)
    parser = _Parser(src, n)
    try:
        return parser.parse(FRAME_MARGIN)
    except RecursionError:
        raise ExprError("expression nested too deeply", parser.pos) from None


def evaluate(compiled: Compiled, x: Sequence[float]) -> float:
    """The value at ``x`` of ``parse``'s closures, or an ``ExprEvalError``;
    closures nested deeper than the caller's stack allows are one too."""
    try:
        return compiled(x)
    except RecursionError:
        raise ExprEvalError("expression nested too deeply") from None
