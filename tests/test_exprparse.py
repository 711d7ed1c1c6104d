import math
import random

import numpy as np
import pytest

from subgrid.errors import ExprError, ExprEvalError
from subgrid.exprparse import (
    Binary,
    Call,
    Constant,
    Unary,
    Variable,
    evaluate,
    parse,
    to_string,
)
from subgrid.functions import get_objective


class TestParsing:
    def test_sum_of_squares(self):
        ast = parse("x1^2 + x2^2", 2)
        assert evaluate(ast, (3.0, 4.0)) == 25.0

    def test_power_right_associative(self):
        assert evaluate(parse("2^3^2", 1), (0.0,)) == 512.0

    def test_unary_minus_binds_looser_than_power(self):
        assert evaluate(parse("-x1^2", 1), (3.0,)) == -9.0
        assert evaluate(parse("(-x1)^2", 1), (3.0,)) == 9.0

    def test_precedence(self):
        assert evaluate(parse("2+3*4", 1), (0.0,)) == 14.0
        assert evaluate(parse("2*3^2", 1), (0.0,)) == 18.0
        assert evaluate(parse("10-4-3", 1), (0.0,)) == 3.0

    def test_floor(self):
        assert evaluate(parse("floor(-5.12)", 1), (0.0,)) == -6.0

    def test_scientific_notation(self):
        assert evaluate(parse("1.5e2 + 2e-1", 1), (0.0,)) == 150.2

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
        assert parse("cos(x1)", 1) == Call("cos", (Variable(1),))

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


class TestEvaluation:
    def test_division_by_zero(self):
        with pytest.raises(ExprEvalError):
            evaluate(parse("1/x1", 1), (0.0,))

    def test_log_of_nonpositive(self):
        with pytest.raises(ExprEvalError):
            evaluate(parse("log(x1)", 1), (-1.0,))

    def test_fractional_power_of_negative(self):
        with pytest.raises(ExprEvalError):
            evaluate(parse("x1^0.5", 1), (-4.0,))

    def test_rosenbrock_minimum(self):
        ast = parse("100*(x1^2-x2)^2+(1-x1)^2", 2)
        assert evaluate(ast, (1.0, 1.0)) == 0.0


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
        ast = parse(src, 2)
        assert parse(to_string(ast), 2) == ast

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
            assert evaluate(back, x) == evaluate(ast, x)


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
        ast = parse(src, obj.dim)
        rng = np.random.default_rng(7)
        lo = np.asarray(obj.box.lower)
        hi = np.asarray(obj.box.upper)
        for _ in range(100):
            x = tuple(rng.uniform(lo, hi))
            native = obj.evaluate(x)
            scale = max(1.0, abs(native))
            assert abs(evaluate(ast, x) - native) / scale < tol, (name, x)
