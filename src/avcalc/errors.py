"""Exception types shared across the package."""


class AvcalcError(Exception):
    """Base class for all library errors."""


class ExprSyntaxError(AvcalcError):
    """Malformed expression text.

    Carries the byte offset of the failure and a description of what
    was expected there.
    """

    def __init__(self, message, offset):
        super().__init__(f"{message} (at offset {offset})")
        self.reason = message
        self.offset = offset


class UnknownFunctionError(AvcalcError):
    """Call to a function that is not a builtin."""

    def __init__(self, name, offset=None):
        self.reason = f"unknown function '{name}'"
        where = f" (at offset {offset})" if offset is not None else ""
        super().__init__(f"{self.reason}{where}")
        self.name = name
        self.offset = offset


class UnboundVariableError(AvcalcError):
    """Evaluation hit a variable not present in the environment."""

    def __init__(self, name):
        super().__init__(f"unbound variable '{name}'")
        self.name = name


class DomainError(AvcalcError):
    """Evaluation left the real domain (log/sqrt of a negative,
    division by zero, fractional power of a negative base)."""


class BaseMismatchError(AvcalcError):
    """Fiber operation on points whose base points differ."""


class ChartDisjointError(AvcalcError):
    """No stored transition connects the two charts at the given point."""


class ChartScheduleError(AvcalcError):
    """A curve leaves the charts its schedule declares, or the schedule
    is inconsistent at a junction."""


class ChartExitError(AvcalcError):
    """A trajectory left the coordinate box of its chart."""


class SingularLagrangianError(AvcalcError):
    """The velocity Hessian is numerically singular; the Lagrangian is
    degenerate and outside the supported regular class."""


class ConfigSyntaxError(AvcalcError):
    """Malformed system configuration file, located by its line and
    column; or malformed config text given outside a file (the CLI's
    --curve), with line None, located by its offset in that text; or a
    fault of no one place, such as a missing section, with neither."""

    def __init__(self, message, line=None, column=None, offset=None):
        if line is not None:
            message += f" (line {line}" + (f", column {column})" if column is not None else ")")
        elif offset is not None:
            message += f" (at offset {offset})"
        super().__init__(message)
        self.line = line
        self.column = column
        self.offset = offset


class ValidationError(AvcalcError):
    """A structural invariant failed during validation.

    `invariant` names the failed condition, `where` locates it and
    `defect` quantifies the violation.
    """

    def __init__(self, invariant, where, defect):
        super().__init__(
            f"validation failed: {invariant} at {where} (defect {defect:.6g})"
        )
        self.invariant = invariant
        self.where = where
        self.defect = defect
