"""Trial-batched columnar execution: a sweep cell's trials as one
kernel call.

A :class:`~repro.sim.contract.BatchRunRequest` expands to T per-trial
requests that share topology, knowledge and round ceiling, and
:func:`repro.sim.columnar.engine.execute` runs them through the same
``(T, n)`` kernels that run a single request as a batch of one.  What
only batches need lives here:

* **Vectorized ID/rotation replay** (:func:`build_network`): the
  Mersenne Twister word stream of ``random.Random(f"network:{seed}:...")``
  is drawn in one C call per chunk (:class:`_WordStream`) and
  ``_randbelow``'s rejection sampling is replayed *value-exactly* — a
  candidate's fate depends only on its value (and, for distinct draws,
  the values accepted before it), so the accepted draws are a filter of
  the candidate stream that numpy can compute.  This reproduces both
  ``RandomIds.assign`` branches — ``rng.sample(range(1, space+1), n)``'s
  selection-set path and the huge-space rejection fallback draw the
  *identical* word sequence: ``1 + _randbelow(space)`` until ``n``
  distinct values accumulate — and the per-node port rotations.
* **The batch-only refusals** (:func:`supports_batch`): a batch with
  no trials, a CONGEST limit (enforcement raises at the first
  offending trial), and a sublinear batch whose networks would not
  build vectorized (its rounds run one trial at a time, so network
  construction is all the batch vectorizes).

Same equivalent-or-absent contract as a single run: every trial's
result is bit-identical to a sequential run (``expand_batch``'s
definition), or :func:`supports_batch` names the reason and the caller
falls back — never silently different numbers.
"""

from __future__ import annotations

import hashlib
from _random import Random as _CoreRandom
from typing import List, Optional

import numpy as np

from ...graphs.ids import RandomIds, id_space_size
from ...graphs.network import (LAZY_AUTO_MIN_AVG_DEGREE,
                               LAZY_AUTO_MIN_NODES, ImplicitNetwork,
                               Network)
from ..contract import BatchRunRequest, RunResult
from . import engine
from .kernels import KERNELS


# ----------------------------------------------------------------------
# Exact Mersenne Twister word-stream replay
# ----------------------------------------------------------------------

class _WordStream:
    """The raw 32-bit MT outputs of ``random.Random(key)``, in bulk.

    CPython's ``getrandbits(32 * N)`` concatenates exactly N successive
    ``genrand_uint32`` outputs little-endian-first (the final word is
    unshifted because the bit count is a multiple of 32), so one C call
    yields N stream words in generation order.  Seeding the C-level
    generator with ``int.from_bytes(key + sha512(key), 'big')`` is the
    string-seed derivation ``random.Random(key).seed`` performs (pinned
    by ``TestSeedFastPath``).  ``push_back`` lets a sampler over-draw
    words speculatively and return the unconsumed tail, so the *logical*
    stream position always matches the sequential consumer's.
    """

    __slots__ = ("_rng", "_buf")

    def __init__(self, key: str) -> None:
        blob = key.encode()
        self._rng = _CoreRandom(
            int.from_bytes(blob + hashlib.sha512(blob).digest(), "big"))
        self._buf: Optional[np.ndarray] = None

    def take(self, count: int) -> np.ndarray:
        """The next ``count`` stream words as a uint64 array."""
        buf = self._buf
        if buf is not None:
            if buf.size >= count:
                self._buf = buf[count:] if buf.size > count else None
                return buf[:count]
            self._buf = None
            return np.concatenate([buf, self.take(count - buf.size)])
        raw = self._rng.getrandbits(32 * count)
        return np.frombuffer(raw.to_bytes(4 * count, "little"),
                             dtype="<u4").astype(np.uint64)

    def push_back(self, words: np.ndarray) -> None:
        """Return unconsumed words to the front of the stream."""
        if not words.size:
            return
        self._buf = (words if self._buf is None
                     else np.concatenate([words, self._buf]))


def _scan_chunk(cand, ok, prior, need: int):
    """Exact candidate-by-candidate replay of one chunk, for the
    astronomically rare case (collision probability ~n²/n⁴) where a
    bound-accepted candidate duplicates an earlier accepted value.
    Returns ``(accepted_values, candidates_consumed)``."""
    seen = set(prior.tolist())
    taken = []
    consumed = cand.size
    for j in range(cand.size):
        if not ok[j]:
            continue
        v = int(cand[j])
        if v in seen:
            continue
        seen.add(v)
        taken.append(v)
        if len(taken) == need:
            consumed = j + 1
            break
    return taken, consumed


def _randbelow_batch(stream: _WordStream, bound: int, count: int, *,
                     distinct: bool = False) -> np.ndarray:
    """Replay ``count`` accepted draws of ``rng._randbelow(bound)``.

    Consumes the word stream *exactly* as CPython does: each candidate
    is one ``getrandbits(k)`` call (``k = bound.bit_length()``, one or
    two words), candidates ``>= bound`` are rejected and redrawn, and
    with ``distinct`` a candidate equal to an earlier accepted value is
    rejected too (the retry discipline of sampling without replacement
    — both a candidate's bound fate and its duplicate fate depend only
    on values, never on generator state, so acceptance is a pure filter
    of the candidate stream).  The chunk is over-drawn past the
    expected rejection rate and the words after the ``count``-th
    acceptance are pushed back, so the logical stream position lands
    precisely where a sequential consumer's would.
    """
    k = bound.bit_length()
    words_per = (k + 31) // 32
    if words_per > 2:
        raise ValueError(f"bound {bound} needs {words_per} words per draw")
    bound64 = np.uint64(bound)
    accept_rate = bound / (1 << k)  # in (0.5, 1] by bit_length
    out = np.empty(count, dtype=np.uint64)
    got = 0
    while got < count:
        need = count - got
        est = int((need + 4 * need ** 0.5 + 16) / accept_rate) + 1
        words = stream.take(est * words_per)
        if words_per == 1:
            cand = words >> np.uint64(32 - k)
        else:
            cand = words[0::2] | (
                (words[1::2] >> np.uint64(64 - k)) << np.uint64(32))
        ok = cand < bound64
        idx = np.flatnonzero(ok)
        complete = idx.size >= need
        taken = cand[idx[:need]] if complete else cand[idx]
        consumed = int(idx[need - 1]) + 1 if complete else cand.size
        if distinct and taken.size:
            # Fast check: the accepted prefix (plus everything accepted
            # before this chunk) must be collision-free, else replay the
            # chunk candidate by candidate.
            merged = np.concatenate([out[:got], taken])
            if np.unique(merged).size != merged.size:
                scanned, consumed = _scan_chunk(cand, ok, out[:got], need)
                taken = np.array(scanned, dtype=np.uint64)
        out[got:got + taken.size] = taken
        got += taken.size
        stream.push_back(words[consumed * words_per:])
    return out


# ----------------------------------------------------------------------
# Vectorized network construction
# ----------------------------------------------------------------------

def network_vector_reason(topology, ids) -> Optional[str]:
    """Why per-trial network construction cannot be vectorized
    (``None`` when :func:`build_network` applies).

    The gates pin down exactly the configurations whose RNG consumption
    the word-stream replay reproduces: the lazy implicit build (one
    rotation per node instead of per-node shuffles), uniform positive
    degrees (complete graphs — rotation draws then share one
    ``_randbelow`` bound), the default ``RandomIds`` assigner, and an ID
    space of at most 64 bits per draw.
    """
    n = topology.num_nodes
    if not (getattr(topology, "is_implicit", False)
            and n > LAZY_AUTO_MIN_NODES
            and 2 * topology.num_edges > LAZY_AUTO_MIN_AVG_DEGREE * n):
        return ("topology takes the materialized build path (per-node "
                "port shuffles have no vectorized replay)")
    if not getattr(topology, "is_complete", False):
        return ("vectorized rotation replay needs the uniform degrees "
                "of a complete graph")
    if ids is not None and type(ids) is not RandomIds:
        return (f"ID assigner {type(ids).__name__} has no vectorized "
                f"replay")
    space = id_space_size(n)
    if space.bit_length() > 64:
        return (f"ID space needs {space.bit_length()} bits per draw "
                f"(> 64)")
    return None


def build_network(topology, seed: int, ids) -> Network:
    """One trial's network with all RNG draws done in C.

    Bit-identical to ``Network.build(topology, seed=seed, ids=ids)``
    for every configuration :func:`network_vector_reason` accepts: the
    same IDs (both ``RandomIds.assign`` branches reduce to drawing
    ``1 + _randbelow(space)`` until ``n`` distinct values accumulate)
    followed by the same per-node port rotations, off one shared word
    stream.
    """
    n = topology.num_nodes
    stream = _WordStream(f"network:{seed}:{topology.name}")
    space = id_space_size(n)
    ids_arr = _randbelow_batch(stream, space, n, distinct=True) + np.uint64(1)
    rot_arr = _randbelow_batch(stream, n - 1, n).astype(np.int64)
    return ImplicitNetwork.from_trusted(topology, ids_arr, rot_arr)


def _expand_requests(request: BatchRunRequest):
    """Per-trial RunRequests, networks built vectorized when possible
    (falling back to ``Network.build`` keeps the batch exact either
    way — the kernels below don't care how a network was built)."""
    from ..backend import RunRequest

    vector = network_vector_reason(request.topology, request.ids) is None
    out = []
    for network_seed, sim_seed in request.seeds:
        if vector:
            network = build_network(request.topology, network_seed,
                                    request.ids)
        else:
            network = Network.build(request.topology, seed=network_seed,
                                    ids=request.ids)
        out.append(RunRequest(
            network=network, factory=request.factory, seed=sim_seed,
            knowledge=request.knowledge, wakeup=request.wakeup,
            model=request.model, congest_bits=request.congest_bits,
            max_rounds=request.max_rounds, algorithm=request.algorithm))
    return out


# ----------------------------------------------------------------------
# Batch support surface
# ----------------------------------------------------------------------

def supports_batch(request: BatchRunRequest) -> Optional[str]:
    """Refusal reason on the batched columnar path, else ``None``.

    The engine's shared configuration checks, the batch-only rows, and
    the kernel's own check; a ``None`` here guarantees
    :func:`run_batch` is bit-identical to the sequential expansion
    *and* genuinely vectorized over trials.
    """
    reason = engine.config_reason(request)
    if reason is not None:
        return reason
    if request.trials < 1:
        return "batch carries no trials"
    if request.congest_bits is not None:
        return ("CONGEST enforcement raises at the first offending trial "
                "in trial order; run CONGEST-limited batches per trial")
    check, _ = KERNELS[request.algorithm]
    reason = check(request.knowledge or {}, request.topology)
    if reason is not None:
        return reason
    if request.algorithm == "sublinear":
        # Sublinear's rounds execute per trial either way; the batch is
        # only *genuinely* batched when network construction vectorizes.
        return network_vector_reason(request.topology, request.ids)
    return None


def run_batch(request: BatchRunRequest) -> List[RunResult]:
    """Execute a supported batch; results in trial order.

    Callers are expected to have passed :func:`supports_batch` (the
    ``ColumnarBackend`` shim enforces it).
    """
    return engine.execute(_expand_requests(request))
