"""Per-node asyncio tasks for the real-network backend.

Each node of the network is one long-lived :class:`NodeRunner` task.
The coordinator activates a node by enqueueing a callable on its command
queue and awaiting the reply queue; the callable runs *inside the node's
task* (this is where ``on_start``/``on_round`` execute and where the
node's outbound socket writes happen), and the node replies with either
``(True, result)`` or ``(False, exception)``.

Activation replies are awaited under a timeout: a node that wedges —
simulated in tests via :attr:`NodeRunner.hang` — surfaces as a
:class:`~repro.net.errors.TransportTimeout` naming the node and round
instead of hanging the whole run.
"""

from __future__ import annotations

import asyncio
from typing import Any, Awaitable, Callable, Tuple

from .errors import TransportTimeout


class NodeRunner:
    """One node's execution task: runs activations shipped by the coordinator."""

    def __init__(self, index: int) -> None:
        self.index = index
        self._commands: "asyncio.Queue[Callable[[], Awaitable[Any]]]" = (
            asyncio.Queue())
        self._replies: "asyncio.Queue[Tuple[bool, Any]]" = asyncio.Queue()
        #: test hook: when True the node accepts commands and never replies.
        self.hang = False
        self.task: "asyncio.Task[None]" = asyncio.ensure_future(self._loop())

    async def _loop(self) -> None:
        while True:
            command = await self._commands.get()
            if self.hang:
                # Deliberately wedge: the peer is alive at the TCP level
                # but never completes its activation.  Used by the
                # timeout-robustness tests.
                await asyncio.Event().wait()
            try:
                result = await command()
            except asyncio.CancelledError:
                raise
            except Exception as exc:  # algorithm errors travel to the coordinator
                await self._replies.put((False, exc))
            else:
                await self._replies.put((True, result))

    async def activate(self, command: Callable[[], Awaitable[Any]],
                       round_index: int, timeout: float) -> Any:
        """Run ``command`` inside this node's task and await the reply."""
        await self._commands.put(command)
        try:
            ok, value = await asyncio.wait_for(self._replies.get(), timeout)
        except asyncio.TimeoutError:
            raise TransportTimeout(self.index, round_index, timeout) from None
        if not ok:
            raise value
        return value

    def kill(self) -> None:
        """Cancel the task immediately (crash injection)."""
        self.task.cancel()
