"""Exception types shared across the toolkit."""


class RelalgError(Exception):
    """Base class for all toolkit errors."""


class ParseError(RelalgError):
    """A text input could not be parsed.  Carries source, line and token."""

    def __init__(self, source, line, message, token=None):
        self.source = source
        self.line = line
        self.message = message
        self.token = token
        where = f"{source}:{line}"
        if token is not None:
            super().__init__(f"{where}: {message} (token {token!r})")
        else:
            super().__init__(f"{where}: {message}")


class InvalidStructureError(RelalgError):
    """An operation required a valid atom structure but got an invalid one."""

    def __init__(self, report):
        self.report = report
        super().__init__("invalid atom structure: " + "; ".join(report.lines()))


class ConcreteAlgebraError(RelalgError):
    """A concrete algebra violates its partition or closure invariants."""

    def __init__(self, violations):
        self.violations = tuple(violations)
        super().__init__("; ".join(self.violations))


class ActionError(RelalgError):
    """A group action could not be built from the given generators."""


class ClassificationError(RelalgError):
    """The input does not have the structure of a simple pair-dense algebra."""


# The isomorphism search's default cap on atom assignments.  It is defined
# here, beside the exception it raises, so that building the command-line
# parser reads it without importing the decision procedure.
DEFAULT_BUDGET = 10_000_000


class SearchBudgetExceeded(RelalgError):
    """The isomorphism search ran past its node budget before finishing."""


class InternalError(RelalgError):
    """An internal guarantee failed; indicates a bug, not bad input."""
