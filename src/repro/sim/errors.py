"""Exception hierarchy for the synchronous network simulator."""

from __future__ import annotations


class SimulationError(Exception):
    """Base class for all simulator errors."""


class ModelViolation(SimulationError):
    """An algorithm broke a rule of the synchronous message-passing model
    (e.g., two sends on one port in one round in CONGEST)."""


class CongestViolation(ModelViolation):
    """A message exceeded the CONGEST bandwidth bound of O(log n) bits."""

    @classmethod
    def over(cls, kind: str, size: int, limit: int) -> "CongestViolation":
        """The violation for a ``kind`` payload of ``size`` bits; every
        engine raises through here, so their messages compare equal."""
        return cls(f"payload {kind} is {size} bits "
                   f"(> CONGEST limit of {limit})")


class InvalidPort(ModelViolation):
    """A send targeted a port outside ``[0, degree)``."""


class RoundLimitExceeded(SimulationError):
    """The run hit ``max_rounds`` before reaching quiescence."""

    def __init__(self, max_rounds: int) -> None:
        super().__init__(f"simulation exceeded max_rounds={max_rounds}")
        self.max_rounds = max_rounds


class ElectionFailure(SimulationError):
    """Raised by helpers that demand exactly one leader when the run
    produced zero or more than one."""


class BackendUnsupported(SimulationError):
    """A run was requested on an engine backend that cannot execute it
    (e.g. the columnar backend on an algorithm without a vectorized
    kernel, a non-synchronous execution model, or a traced run).

    Backends must *refuse* — loudly, with the reason — rather than fall
    back or approximate: a run either executes bit-identically to the
    event-loop reference or not at all.
    """

    def __init__(self, backend: str, reason: str) -> None:
        super().__init__(f"backend {backend!r} cannot run this request: "
                         f"{reason}")
        self.backend = backend
        self.reason = reason
