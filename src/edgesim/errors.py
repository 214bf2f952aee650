"""Exception types shared across the simulator."""


class ConfigError(ValueError):
    """Invalid configuration: bad parameters, files, or flag combinations."""


class TraceParseError(ConfigError):
    """Malformed trace row; carries the trace file and the 1-based line number."""

    def __init__(self, path, line_no, message):
        super().__init__(f"{path}: line {line_no}: {message}")
        self.path = path
        self.line_no = line_no


class MappingError(ConfigError):
    """Trace references a node or function type outside the configured ranges."""


class ContractError(RuntimeError):
    """An operation was called against its preconditions."""


class InvariantViolation(RuntimeError):
    """A runtime invariant check failed; aborts the run with diagnostics."""


class CompetitiveBoundError(InvariantViolation):
    """A logged request exceeded its worst-case cost bound."""

    def __init__(self, record, message):
        super().__init__(message)
        self.record = record


class InstanceTooLarge(ConfigError):
    """Offline-solver instance exceeds the enumerable-size caps."""


class InfeasibleInstance(ConfigError):
    """No assignment can serve the instance's requests within capacity."""
