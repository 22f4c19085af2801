"""Exception taxonomy shared across the package."""


class LossyadError(Exception):
    """Base class for all package-specific errors."""


class DimensionError(LossyadError, ValueError):
    """Operand shapes are incompatible with the operation's contract."""


class DomainError(LossyadError, ValueError):
    """Input values outside the mathematical domain (no channels, an undefined
    F1, an empty mean, ...)."""


class ContractError(LossyadError, ValueError):
    """A documented precondition of an operation was violated."""


class ParseError(LossyadError, ValueError):
    """Malformed input file; message carries file path and line number."""


class ConfigError(LossyadError, ValueError):
    """Experiment configuration failed schema validation."""


class NumericAbort(LossyadError, RuntimeError):
    """Training produced a non-finite loss; carries the last finite report."""

    def __init__(self, message, last_report=None):
        super().__init__(message)
        self.last_report = last_report
