"""Exception types shared across the package, and the verdict status a
capped check reports instead of raising."""


class UpfamError(Exception):
    """Base class for all package errors."""


class InputError(UpfamError):
    """Malformed input: bad file syntax, inconsistent sample, bad word."""


class PreconditionError(UpfamError):
    """An operation was invoked on an object that violates its contract,
    e.g. complementing a family that is not saturated."""


class CapExceededError(UpfamError):
    """A bounded search hit its exploration cap before reaching a verdict."""


CAP_EXCEEDED = "CapExceeded"  # verdict status of a check that hit its cap


class ProtocolError(UpfamError):
    """A teacher answered inconsistently, e.g. returned a counterexample on
    which the submitted hypothesis already agrees with its membership
    answers."""
