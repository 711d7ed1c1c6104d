"""Exception hierarchy shared by all subgrid modules."""


def clip(text: str) -> str:
    """``text`` as a message quotes it: cut to 20 characters and ``...`` if longer."""
    return text if len(text) <= 20 else text[:20] + "..."


class SubgridError(Exception):
    """Base class for every error raised by this package."""


class ConfigError(SubgridError):
    """An experiment configuration is inconsistent or unresolvable."""


class InvalidDomainError(ConfigError):
    """Box bounds are malformed: empty, or somewhere lower >= upper or a
    width that is not finite."""


class InvalidGridPointError(SubgridError):
    """Relative coordinates fall outside the refinement grid."""


class InvalidCellError(SubgridError):
    """A cell vertex would fall outside the grid bounds."""


class DimensionTooLargeError(SubgridError):
    """Corner enumeration would require more than 2**20 points."""


class InvalidDeltaError(SubgridError):
    """A difference vector is empty or contains NaN or infinity."""


class DimensionMismatchError(SubgridError):
    """Two vectors that must share a dimension do not."""


class DomainError(SubgridError):
    """An objective was evaluated outside its box."""


class GradientUnavailableError(SubgridError):
    """The objective has no usable gradient (discontinuous or stochastic)."""


class NonFiniteGradientError(GradientUnavailableError):
    """A gradient evaluation produced NaN or infinity; callers should fall
    back to the best-neighbor labeling rule."""


class GridTooLargeError(SubgridError):
    """A brute-force grid scan would exceed the evaluation cap."""


class ExprError(SubgridError):
    """Expression parsing failed; carries the byte offset of the problem."""

    def __init__(self, message, offset):
        super().__init__("%s (at offset %d)" % (message, offset))
        self.offset = offset


class ExprEvalError(SubgridError):
    """Expression evaluation hit an undefined operation (x/0, log(-1))."""
