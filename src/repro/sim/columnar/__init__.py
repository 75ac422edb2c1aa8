"""Columnar NumPy engine: vectorized per-round kernels.

Node state lives in flat arrays and each round executes as one
vectorized kernel step instead of per-process dispatch — the backend
that makes million-node synchronous runs practical.  Accounting is
*exact*: a kernel reproduces the event-loop Simulator's randomness
streams, message/bit counters, and activation counts bit for bit, or
the backend refuses the request (:class:`BackendUnsupported`); it never
approximates.

This package imports without numpy: only :mod:`.engine`,
:mod:`.kernels` and :mod:`.batch` require it, and the
:class:`repro.sim.ColumnarBackend` shim imports them lazily.
:data:`KERNEL_ALGORITHMS` is the static capability list surfaced by
``repro list``.
"""

from __future__ import annotations

from typing import Optional

#: Registry algorithm names with a vectorized kernel.  Kept as a static
#: tuple (not derived from :mod:`.kernels`) so capability listings work
#: without numpy installed; ``test_backends.py`` pins it to the actual
#: kernel registry.
KERNEL_ALGORITHMS = ("flood-max", "sublinear")


def numpy_missing() -> Optional[str]:
    """Refusal reason when numpy is unavailable, else ``None``."""
    try:
        import numpy  # noqa: F401
    except Exception as exc:  # pragma: no cover - exercised via monkeypatch
        return (f"numpy is not available ({type(exc).__name__}); install "
                f"numpy or use the event-loop backend")
    return None
