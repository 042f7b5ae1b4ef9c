"""Exception types shared across the package, and the verdict every
decision procedure returns."""

from dataclasses import dataclass
from typing import Optional


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


@dataclass(frozen=True)
class Verdict:
    """Answer of a decision procedure.  The property holds (no witness), is
    refuted (every refuted status carries a witness), or the search hit its
    cap (status CapExceeded).  ``stage`` names the saturation stage that
    decided."""

    status: str
    witness: Optional[object] = None
    stage: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.witness is None and self.status != CAP_EXCEEDED


class ProtocolError(UpfamError):
    """A teacher answered inconsistently, e.g. returned a counterexample on
    which the submitted hypothesis already agrees with its membership
    answers."""
