"""The errors this package raises, and the rule that keeps them few.

Every error is a ``SubgridError``.  A subclass exists only where some
``except`` clause names it; any other refusal raises ``SubgridError`` itself
with a message that says what went wrong.  The command line maps them to
exit codes: ``ConfigError`` exits 2, and every other ``SubgridError``
(``ExprError`` and ``ExprEvalError`` included) exits 3.
``tests/test_errors.py`` checks the rule.
"""


def clip(text: str, width: int = 20) -> str:
    """``text`` as a message quotes it: cut to ``width`` characters and ``...``."""
    return text if len(text) <= width else text[:width] + "..."


class SubgridError(Exception):
    """Base class for every error raised by this package."""


class ConfigError(SubgridError):
    """An experiment configuration is inconsistent or unresolvable."""


class GradientUnavailableError(SubgridError):
    """The objective has no usable gradient (discontinuous or stochastic),
    or a gradient came out NaN or infinite; callers fall back to the
    best-neighbour labeling rule."""


class ExprError(SubgridError):
    """Expression parsing failed; carries the byte offset of the problem."""

    def __init__(self, message, offset):
        super().__init__("%s (at offset %d)" % (message, offset))
        self.offset = offset


class ExprEvalError(SubgridError):
    """Expression evaluation hit an undefined operation (x/0, log(-1))."""
