"""Message payloads and in-flight envelopes.

The CONGEST model allows one message of ``O(log n)`` bits per edge per
round; the LOCAL model drops the size restriction (Section 2).  Payload
classes report their size so :class:`repro.sim.metrics.Metrics` can track
bit complexity and the scheduler can optionally enforce CONGEST.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Any, Dict, Tuple

#: Default size charged for a scalar field (an ID, a rank, a counter):
#: all of these are O(log n)-bit quantities in the paper's model.
WORD_BITS = 64


def _value_bits(value: Any) -> int:
    """Size estimate for a payload field value.

    Dispatches on the exact type of the common field values first: a
    plain ``int`` (IDs, ranks, counters), a plain ``tuple`` (the waves
    and sublinear keys, whose int elements are sized inline), a ``str``
    and a ``bool``.  Everything else -- ``None``, int subclasses such
    as an ``IntEnum``, lists, sets, nested payloads, unknown objects --
    takes :func:`_value_bits_general`, and both paths charge the same
    bits for the same value.
    """
    cls = type(value)
    if cls is int:
        # |value| magnitude bits, plus one sign bit for negatives, so
        # the charge is continuous through 0.  (It used to be a flat
        # WORD_BITS for any negative, making e.g. the negated-key waves
        # of Corollary 4.5 look 64-bit regardless of magnitude.)
        bits = value.bit_length() or 1
        return bits + 1 if value < 0 else bits
    if cls is tuple:
        total = len(value)
        for item in value:
            if type(item) is int:
                bits = item.bit_length() or 1
                total += bits + 1 if item < 0 else bits
            else:
                total += _value_bits(item)
        return total
    if cls is str:
        return 8 * len(value)
    if cls is bool:
        return 1
    return _value_bits_general(value)


def _value_bits_general(value: Any) -> int:
    """The ``isinstance`` chain behind :func:`_value_bits`' fast paths."""
    if value is None or isinstance(value, bool):
        return 1
    if isinstance(value, int):
        bits = max(1, value.bit_length())
        return bits + 1 if value < 0 else bits
    if isinstance(value, str):
        return 8 * len(value)
    if isinstance(value, (tuple, list, frozenset, set)):
        return sum(_value_bits(v) for v in value) + len(value)
    if isinstance(value, Payload):
        return value.size_bits()
    return WORD_BITS


#: Per-class cache of dataclass field names, so the hot path never pays
#: the ``dataclasses.fields()`` protocol per message.
_FIELD_NAMES: Dict[type, Tuple[str, ...]] = {}


@dataclass(frozen=True)
class Payload:
    """Base class for algorithm messages.

    Subclasses are frozen dataclasses; their size defaults to the sum of
    their fields' estimated sizes plus a constant header.  Algorithms
    shipping structures larger than O(log n) bits (e.g. Algorithm 1's
    inter-cluster graph) override :meth:`size_bits` or fragment the
    structure explicitly.

    Sizes are memoized per instance (payloads are immutable), so a
    payload broadcast over many ports is measured once, and the CONGEST
    check plus bit accounting share a single computation.
    """

    def size_bits(self) -> int:
        # Fields and the memo both live in the instance ``__dict__``
        # (frozen dataclasses without slots), so reading fields through
        # it skips ``getattr`` and the memo is a single dict write.
        state = self.__dict__
        cached = state.get("_size_bits")
        if cached is not None:
            return cached
        cls = type(self)
        names = _FIELD_NAMES.get(cls)
        if names is None:
            names = _FIELD_NAMES[cls] = tuple(f.name for f in fields(self))
        total = 8  # message-type header
        for name in names:
            total += _value_bits(state[name])
        state["_size_bits"] = total
        return total

    def kind(self) -> str:
        """Short tag used in metrics breakdowns."""
        return type(self).__name__


@dataclass(frozen=True)
class Envelope:
    """A message in flight: fixed at send time, delivered next round."""

    src: int            # sender node index
    dst: int            # receiver node index
    dst_port: int       # receiver's local port for the shared edge
    payload: Payload
    sent_round: int

    @property
    def edge(self) -> Tuple[int, int]:
        u, v = self.src, self.dst
        return (u, v) if u < v else (v, u)
