"""Length-prefixed wire codec for the real-network backend.

Frames on the wire are ``4-byte big-endian length || pickle payload``.
The pickled object is a tuple ``(src, delivery_round, dst_port, payload)``
where ``payload`` is the algorithm's :class:`repro.sim.message.Payload`
(a frozen dataclass — pickles cleanly; the memoized ``_size_bits`` cache
travels along harmlessly). CONGEST accounting uses the *abstract*
``payload.size_bits()`` measure, exactly like the simulator, so message
and bit counts are identical across backends; the wire byte count is
reported separately as transport telemetry.
"""

from __future__ import annotations

import asyncio
import pickle
import struct
from typing import Any, Optional, Tuple

from ..sim.message import Payload

_HEADER = struct.Struct(">I")
HEADER_SIZE = _HEADER.size

#: Upper bound on a single frame's pickled body.  Registry payloads are a
#: few hundred bytes; anything near this limit indicates corruption.
MAX_FRAME = 16 * 1024 * 1024

#: Frame tuple: (src index, delivery round, destination port, payload).
Frame = Tuple[int, int, int, Payload]


class CodecError(ValueError):
    """A malformed frame was read off the wire."""


def encode_frame(src: int, delivery_round: int, dst_port: int,
                 payload: Payload) -> bytes:
    """Serialize one message into a length-prefixed wire frame."""
    body = pickle.dumps((src, delivery_round, dst_port, payload),
                        protocol=pickle.HIGHEST_PROTOCOL)
    if len(body) > MAX_FRAME:
        raise CodecError(
            f"frame body is {len(body)} bytes (> MAX_FRAME {MAX_FRAME})")
    return _HEADER.pack(len(body)) + body


def decode_body(body: bytes) -> Frame:
    """Deserialize a frame body back into ``(src, round, port, payload)``."""
    obj: Any = pickle.loads(body)
    if (not isinstance(obj, tuple) or len(obj) != 4
            or not isinstance(obj[0], int) or not isinstance(obj[1], int)
            or not isinstance(obj[2], int)):
        raise CodecError(f"malformed frame: {obj!r}")
    return obj  # type: ignore[return-value]


def encode_hello(index: int) -> bytes:
    """Handshake frame a dialer sends first: its own node index."""
    body = pickle.dumps(index, protocol=pickle.HIGHEST_PROTOCOL)
    return _HEADER.pack(len(body)) + body


async def read_raw(reader: asyncio.StreamReader) -> Optional[bytes]:
    """Read one length-prefixed body; ``None`` on clean EOF / reset."""
    try:
        header = await reader.readexactly(HEADER_SIZE)
    except (asyncio.IncompleteReadError, ConnectionError):
        return None
    (length,) = _HEADER.unpack(header)
    if length > MAX_FRAME:
        raise CodecError(f"frame length {length} exceeds MAX_FRAME")
    try:
        return await reader.readexactly(length)
    except (asyncio.IncompleteReadError, ConnectionError):
        return None


async def read_hello(reader: asyncio.StreamReader) -> Optional[int]:
    """Read the dialer-index handshake; ``None`` on EOF / reset."""
    body = await read_raw(reader)
    if body is None:
        return None
    index: Any = pickle.loads(body)
    if not isinstance(index, int):
        raise CodecError(f"malformed hello frame: {index!r}")
    return index
