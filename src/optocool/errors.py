"""Exception types shared across the toolkit."""


class DomainError(ValueError):
    """An argument is outside the physical domain of an operation."""


class PowerLimitError(ValueError):
    """A required optical power exceeds the modulator damage threshold."""


class InfeasibleError(ValueError):
    """A requested schedule cannot be realized with the given hardware."""


class FitError(RuntimeError):
    """A fit failed; the message carries the diagnostic."""


class ConfigError(ValueError):
    """Invalid configuration; the message carries the offending key path."""


class DivergenceError(RuntimeError):
    """A time-domain integration blew up; the message carries the step index."""


class NumericalError(RuntimeError):
    """A numerical routine failed to reach its tolerance."""
