"""Payload sizing: the type-dispatched ``_value_bits`` charges exactly the
bits the original recursive ``isinstance`` chain charged, on every kind
of field value, and ``Payload.size_bits`` still memoizes per instance.
"""

import enum
import pickle
from dataclasses import dataclass, fields
from typing import Any

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core.flood_max import MaxIdMsg
from repro.core.waves import WaveRankMsg, WaveResponseMsg
from repro.net.codec import decode_body, encode_frame, HEADER_SIZE
from repro.sim.message import WORD_BITS, Payload, _value_bits


def reference_value_bits(value: Any) -> int:
    """The original recursive sizing, kept as the oracle.

    Verbatim except that a nested payload is sized by
    :func:`reference_size_bits`, so no charge comes from the code under
    test.
    """
    if value is None or isinstance(value, bool):
        return 1
    if isinstance(value, int):
        bits = max(1, value.bit_length())
        return bits + 1 if value < 0 else bits
    if isinstance(value, str):
        return 8 * len(value)
    if isinstance(value, (tuple, list, frozenset, set)):
        return sum(reference_value_bits(v) for v in value) + len(value)
    if isinstance(value, Payload):
        return reference_size_bits(value)
    return WORD_BITS


def reference_size_bits(payload: Payload) -> int:
    return 8 + sum(reference_value_bits(getattr(payload, f.name))
                   for f in fields(payload))


class Color(enum.IntEnum):
    RED = 1
    BLUE = 300


class Rank(int):
    """An int subclass: must take the general path, not the int fast path."""


@dataclass(frozen=True)
class Box(Payload):
    value: Any


@dataclass(frozen=True)
class Pair(Payload):
    a: Any
    b: Any


_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-300, max_value=300),
    st.integers(min_value=-(2 ** 130), max_value=2 ** 130),
    st.text(max_size=6),
    st.floats(allow_nan=False),
    st.sampled_from(list(Color)),
    st.integers(min_value=-(2 ** 70), max_value=2 ** 70).map(Rank),
)

_VALUES = st.recursive(
    _SCALARS,
    lambda kids: st.one_of(
        st.lists(kids, max_size=4).map(tuple),
        st.lists(kids, max_size=4),
        st.frozensets(_SCALARS, max_size=4),
        st.sets(_SCALARS, max_size=4),
        st.builds(Box, kids),
        st.builds(Pair, kids, kids),
    ),
    max_leaves=12,
)

_EDGE_VALUES = [
    0, 1, -1, 2, -2, 255, -256, 2 ** 63, 2 ** 64, -(2 ** 64), 2 ** 64 + 1,
    True, False, None, "", "tag", 1.5, float("nan"), Color.RED, Color.BLUE,
    Rank(0), Rank(-7), Rank(2 ** 65), (), (0, -1, 2 ** 64), ((1, "a"), [True]),
    [1, (2, None)], frozenset({3, -4}), {Color.BLUE}, Box(-5),
    Pair((1, 2), Box("xy")), object(),
]


class TestValueBits:
    @pytest.mark.parametrize("value", _EDGE_VALUES)
    def test_edge_values_match_reference(self, value):
        assert _value_bits(value) == reference_value_bits(value)

    @settings(max_examples=300, deadline=None)
    @given(_VALUES)
    def test_matches_reference(self, value):
        assert _value_bits(value) == reference_value_bits(value)

    def test_tuple_of_int_subclasses_takes_general_path(self):
        # Color.BLUE is 300 (9 bits); a bool inside a tuple is 1 bit.
        assert _value_bits((Color.BLUE, True, -3)) == 9 + 1 + 3 + 3


class TestSizeBits:
    @settings(max_examples=200, deadline=None)
    @given(_VALUES, _VALUES)
    @example(2 ** 64, -(2 ** 64))
    @example(Box(Box(None)), (Color.RED, Rank(9)))
    def test_matches_reference_and_memoizes(self, a, b):
        payload = Pair(a, b)
        expected = 8 + reference_value_bits(a) + reference_value_bits(b)
        assert "_size_bits" not in payload.__dict__
        assert payload.size_bits() == expected
        assert payload.__dict__["_size_bits"] == expected
        assert payload.size_bits() == expected  # served from the memo

    @settings(max_examples=100, deadline=None)
    @given(_VALUES)
    def test_pickled_payload_keeps_its_size(self, value):
        sized = Box(value)
        expected = sized.size_bits()
        for payload in (sized, Box(value)):  # with and without a memo
            clone = pickle.loads(pickle.dumps(payload))
            assert clone.size_bits() == expected

    @pytest.mark.parametrize("payload", [
        MaxIdMsg(987654321),
        WaveRankMsg("le", (12345678901, 42)),
        WaveRankMsg("size", (-17, 3)),
        WaveResponseMsg("le", (-(2 ** 64), 0), True),
    ])
    def test_registry_payloads_through_the_net_codec(self, payload):
        expected = reference_size_bits(payload)
        assert payload.size_bits() == expected
        frame = encode_frame(3, 7, 1, payload)
        _src, _round, _port, decoded = decode_body(frame[HEADER_SIZE:])
        assert decoded == payload
        assert decoded.size_bits() == expected
