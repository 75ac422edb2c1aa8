"""Bundled rule modules — importing this package registers every rule.

Rule code map (stable; never renumber a shipped code):

=======  ==========================================================
RL001    stale ``# repro: noqa[...]`` suppression
RL101    call into the global (unseeded) RNG
RL102    wall-clock / entropy read in deterministic code
RL103    set iteration order feeding an ordered sink
RL104    os.environ / os.getenv read in deterministic code
RL105    builtin ``hash()`` (PYTHONHASHSEED-salted) in derivations
RL201    columnar capability without a registered kernel (and inverse)
RL202    delay-model entry point missing the ``delay_tolerant`` guard
RL203    Paper-claim docstring block absent or contradicting the spec
RL301    instance-method rebinding with a drifted signature (bases resolved)
=======  ==========================================================
"""

from __future__ import annotations

from . import contract, determinism, hygiene, idiom

__all__ = ["contract", "determinism", "hygiene", "idiom"]
