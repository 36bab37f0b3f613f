"""Exception types raised by the precoder-design stack."""


class WsrbeamError(Exception):
    """Base of every error the package raises on purpose."""


class ConfigError(WsrbeamError, ValueError):
    """Invalid system configuration, solver options, or experiment spec."""


class DegenerateChannelError(WsrbeamError, ValueError):
    """A channel matrix is identically zero, so derived quantities blow up."""


class ObjectiveDomainError(WsrbeamError, ValueError):
    """Objective evaluated outside its domain (singular or indefinite weight)."""


class UnstableParametersError(WsrbeamError, RuntimeError):
    """First-order solver diverged; the step size / extrapolation pair is too
    aggressive for this instance."""


class NumericalError(WsrbeamError, RuntimeError):
    """An iterate stopped being finite inside a solver loop.  The message
    names the iteration and the block update that overflowed."""
