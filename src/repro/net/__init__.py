"""repro.net — the real-network execution backend.

Runs any delay-tolerant registry algorithm as N asyncio node tasks
exchanging pickled, length-prefixed frames over real loopback TCP
sockets, behind the same :class:`~repro.sim.backend.EngineBackend` seam
as the simulator ("equivalent or absent": bit-identical results or a
reasoned :class:`~repro.sim.errors.BackendUnsupported`).

Layering, bottom up:

* :mod:`repro.net.codec` — length-prefixed pickle wire format, CONGEST
  accounting shared with :mod:`repro.sim.message`.
* :mod:`repro.net.links` — per-node endpoints (one TCP connection per
  edge, sender/listener split, per-round frame buffers) and the
  :class:`~repro.net.links.Mesh` that owns them and their event loop,
  shared by every trial of a batch.
* :mod:`repro.net.node` — one asyncio task per node executing shipped
  activations.
* :mod:`repro.net.runner` — the socket transport under the shared round
  core :class:`~repro.sim.rounds.RoundCore` (the parity argument lives
  in its docstring).
* :mod:`repro.net.engine` — request checking (the known-unsupported
  matrix) and the entry points: one run, or a trial batch on one mesh.

Submodule imports are lazy where it matters: constructing the
``NetBackend`` shim in :mod:`repro.sim.backend` imports nothing from
here until a request is actually checked or run.
"""

from .errors import TransportError, TransportTimeout

__all__ = ["TransportError", "TransportTimeout"]
