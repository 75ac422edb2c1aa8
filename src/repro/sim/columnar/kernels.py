"""Trial-batched kernels for the columnar engine.

A kernel is a function ``kernel(rt)`` that executes every trial of a
:class:`~repro.sim.columnar.engine.KernelRuntime` — T runs of one
algorithm sharing topology, knowledge and round ceiling — and accounts
each send into its trial's row of the runtime's ``(T,)`` counters and
``(T, n)`` per-node send counts.  A single run is a batch of one; there
is no separate single-run kernel.

Each kernel replays one registry algorithm's exact event-loop execution
with node state in flat NumPy arrays: same randomness stream
(:func:`repro.sim.contract.node_rng`, consumed in the same draw order
as the process implementation), same payload classes (sizes and kind
strings come from the real ``Payload`` types, so accounting cannot
drift), same per-round activity/activation semantics.  The synchronous
model makes every message deliver exactly one round after it is sent,
so a round's inbox is the previous round's sends.

* :func:`flood_max` steps all T trials in lockstep over ``(T, n)``
  state: the trials share the flooding horizon, so they execute the
  same round sequence and differ only in their ID draws.
* :func:`sublinear` runs its three rounds one trial at a time: its
  state is a few sparse dicts and its dense candidacy screen has no
  cross-trial structure.

Every kernel comes with a refusal check on ``(knowledge, topology)``
that names anything the kernel cannot replicate bit for bit;
:data:`KERNELS` maps each registry name to ``(check, kernel)``.
"""

from __future__ import annotations

import hashlib
from _random import Random as _CoreRandom
from collections import defaultdict
from types import SimpleNamespace
from typing import List, Optional

import numpy as np

from ...core.flood_max import MaxIdMsg
from ...core.sublinear import (ProbeMsg, VerdictMsg, expected_candidates,
                               id_space_size, referee_count)
from ..contract import node_rng
from ..status import Status

#: Ceiling on materialized CSR size (sum of degrees) for the flood-max
#: kernel on non-complete graphs; cliques take the closed-form path and
#: never materialize edges.
EDGE_LIMIT = 150_000_000


# ----------------------------------------------------------------------
# Flood-max
# ----------------------------------------------------------------------

def flood_max_reason(knowledge, topology) -> Optional[str]:
    """Why :func:`flood_max` cannot run this configuration, else ``None``."""
    if knowledge.get("D") is None and knowledge.get("n") is None:
        return ("flood-max needs knowledge of D or n to fix its "
                "flooding horizon")
    if not topology.is_complete and 2 * topology.num_edges > EDGE_LIMIT:
        return (f"graph needs a materialized CSR adjacency of "
                f"{2 * topology.num_edges} entries "
                f"(> {EDGE_LIMIT}); use the event-loop backend")
    return None


def _bit_length_u64(arr: np.ndarray) -> np.ndarray:
    """Per-element ``int.bit_length()`` of a uint64 array (exact)."""
    out = np.zeros(arr.shape, dtype=np.int64)
    v = arr.copy()
    for shift in (32, 16, 8, 4, 2, 1):
        m = v >= (np.uint64(1) << np.uint64(shift))
        out[m] += shift
        v[m] >>= np.uint64(shift)
    return out + (v > 0)


def _batched_inbox(sent: np.ndarray, clique: bool, starts, indices,
                   empty) -> np.ndarray:
    """Per-node max over last round's ``(T, n)`` sends (-1 for silent
    senders), -1 where nothing arrived."""
    if clique:
        # Every sender reaches everyone but itself: receivers see the
        # max sent value, its unique holder the runner-up.
        n = sent.shape[1]
        m1 = sent.max(axis=1)
        inbox = np.repeat(m1[:, None], n, axis=1)
        at_max = sent == m1[:, None]
        unique = at_max.sum(axis=1) == 1
        if unique.any():
            lower = np.where(at_max, np.int64(-1), sent)
            m2 = lower.max(axis=1)
            holders = np.argmax(at_max, axis=1)
            u = np.flatnonzero(unique)
            inbox[u, holders[u]] = m2[u]
        return inbox
    inbox = np.maximum.reduceat(np.take(sent, indices, axis=1), starts,
                                axis=1)
    if empty.size:
        inbox[:, empty] = -1
    return inbox


def _account_broadcasts(rt, trial: np.ndarray, senders: np.ndarray,
                        sizes: np.ndarray, counts: np.ndarray) -> None:
    """Account one ``MaxIdMsg`` broadcast per flat ``t * n + i`` index in
    ``senders`` (ascending; ``trial`` holds each ``t``), of ``sizes``
    bits over ``counts`` ports.

    The CONGEST check runs first, in (trial, node-index) order — node
    order is the event loop's activation order within a run.
    """
    if rt.congest_bits is not None:
        over = np.flatnonzero(sizes > rt.congest_bits)
        if over.size:
            rt.congest_check("MaxIdMsg", int(sizes[over[0]]))
    totals = np.zeros(rt.T, dtype=np.int64)
    np.add.at(totals, trial, counts)
    bits = np.zeros(rt.T, dtype=np.int64)
    np.add.at(bits, trial, counts * sizes)
    np.maximum.at(rt.max_payload_bits, trial, sizes)
    rt.messages += totals
    rt.bits += bits
    rt.pending += totals
    maxid = rt.per_kind_array("MaxIdMsg")
    maxid += totals
    rt.per_node_sent.reshape(-1)[senders] += counts


def flood_max(rt) -> None:
    """Vectorized flood-max: best-seen-ID state as ``(T, n)`` rank arrays.

    IDs are drawn from ``[1, n^4]`` and overflow int64 around
    n ≈ 55 000, so comparisons run in *rank space*: each trial's IDs
    are sorted once and every array holds ranks, which order
    identically.  Complete graphs use a closed-form inbox; everything
    else reduces over a materialized CSR adjacency.  Every node is
    active every round up to the horizon: round 0 is the simultaneous
    wakeup, and each activation re-arms a one-round alarm until the
    deadline.  A round's senders are kept as flat ``t * n + i`` indices,
    so accounting touches only the nodes that improved.
    """
    T, n = rt.T, rt.n
    networks = rt.networks
    topology = networks[0].topology

    # Trial-invariant structure (degrees, adjacency, horizon).
    deg = np.fromiter((networks[0].degree(i) for i in range(n)),
                      dtype=np.int64, count=n)
    d = rt.knowledge.get("D")
    if d is None:
        d = rt.knowledge["n"] - 1
    horizon = max(1, d)
    clique = bool(topology.is_complete)
    starts = indices = empty = None
    if not clique:
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(deg, out=indptr[1:])
        indices = np.empty(int(indptr[-1]), dtype=np.int64)
        pos = 0
        for i in range(n):
            nb = topology.neighbors(i)
            indices[pos:pos + len(nb)] = nb
            pos += len(nb)
        # reduceat reads one value at an empty node's (clipped) start;
        # those nodes are reset to -1 afterwards.
        starts = np.minimum(indptr[:-1], max(indices.size - 1, 0))
        empty = np.flatnonzero(deg == 0)

    # Per-trial rank space: IDs order identically to their ranks, and
    # payload sizes come from the ID bit lengths (MaxIdMsg's 8-bit
    # header + max(1, uid.bit_length()), uid >= 1).  IDs past uint64
    # (n > ~65k via the fallback network build) take an
    # arbitrary-precision path per trial.
    rank = np.empty((T, n), dtype=np.int64)
    ids_sorted: Optional[List[list]] = None
    arrs = [getattr(net, "_ids_arr", None) for net in networks]
    if all(a is not None for a in arrs):
        ids_mat = np.stack(arrs)
    else:
        try:
            ids_mat = np.array([net.ids for net in networks],
                               dtype=np.uint64)
        except OverflowError:
            ids_mat = None
    if ids_mat is not None:
        order = np.argsort(ids_mat, axis=1)
        rank[np.arange(T)[:, None], order] = np.arange(n)[None, :]
        sizes_by_rank = np.take_along_axis(_bit_length_u64(ids_mat) + 8,
                                           order, axis=1)
    else:
        order = None
        ids_sorted = []
        sizes_by_rank = np.empty((T, n), dtype=np.int64)
        for t in range(T):
            ids_t = list(networks[t].ids)
            order_t = sorted(range(n), key=ids_t.__getitem__)
            for pos, i in enumerate(order_t):
                rank[t, i] = pos
            srt = [ids_t[i] for i in order_t]
            sizes_by_rank[t] = np.fromiter(
                (MaxIdMsg(uid).size_bits() for uid in srt),
                dtype=np.int64, count=n)
            ids_sorted.append(srt)

    best = rank.copy()
    best_flat = best.reshape(-1)
    sent = np.full((T, n), -1, dtype=np.int64)
    sent_flat = sent.reshape(-1)
    # Round 0: every node with a neighbor broadcasts its own ID.
    senders = np.flatnonzero(np.broadcast_to(deg > 0, (T, n)))
    values = best_flat[senders]
    decided = False
    r = 0
    while True:
        if r > rt.limit:
            rt.truncated[:] = True
            break
        rt.activations += n
        if r:
            # With nothing in flight, last round had no senders either.
            live = rt.pending > 0
            if live.any():
                rt.pending[:] = 0
                rt.last_activity_round[live] = r
                inbox = _batched_inbox(sent, clique, starts, indices, empty)
                sent_flat[senders] = -1
                senders = np.flatnonzero(inbox > best)
                values = inbox.reshape(-1)[senders]
                best_flat[senders] = values
            if r >= horizon:
                # Deadline round: everyone decides and halts, sending
                # nothing; the status flips mark activity.
                decided = True
                rt.last_activity_round[:] = r
                rt.rounds_executed += 1
                break
        if senders.size:
            trial, node = np.divmod(senders, n)
            _account_broadcasts(rt, trial, senders,
                                sizes_by_rank[trial, values], deg[node])
            sent_flat[senders] = values
        rt.rounds_executed += 1
        r += 1

    if not decided:
        return  # truncated before the deadline: everyone UNDECIDED
    elected, non_elected = Status.ELECTED, Status.NON_ELECTED
    for t in range(T):
        row_best = best[t]
        statuses = [non_elected] * n
        for i in np.flatnonzero(row_best == rank[t]).tolist():
            statuses[i] = elected
        rt.statuses[t] = statuses
        distinct = np.unique(row_best)
        if distinct.size == 1:  # connected graph: everyone agrees
            b = int(distinct[0])
            uid = (ids_sorted[t][b] if ids_sorted is not None
                   else int(ids_mat[t, order[t, b]]))
            rt.outputs[t] = [{"leader_uid": uid} for _ in range(n)]
        elif ids_sorted is not None:
            srt = ids_sorted[t]
            rt.outputs[t] = [{"leader_uid": srt[b]}
                             for b in row_best.tolist()]
        else:
            uids = ids_mat[t, order[t, row_best]].tolist()
            rt.outputs[t] = [{"leader_uid": u} for u in uids]


# ----------------------------------------------------------------------
# Sublinear
# ----------------------------------------------------------------------

def sublinear_reason(knowledge, topology) -> Optional[str]:
    """Why :func:`sublinear` cannot run this configuration, else ``None``."""
    if knowledge.get("n") is None:
        return "sublinear needs knowledge of n (its candidacy rate)"
    return None


def sublinear(rt) -> None:
    """Vectorized referee-sampling election (O(1) rounds, sparse traffic).

    The message pattern is sparse — Θ(log n) candidates probing
    √(n·ln n) referees each — so the columnar win is skipping per-node
    process dispatch: the dense O(n) work is one pass replaying each
    node's candidacy draw, and the probe/verdict exchange stays in
    small Python dicts keyed by node index (keys are ``(rank, uid)``
    tuples of arbitrary-precision ints — ranks live in ``[1, n^4]``,
    past int64).  Runs on any topology, exactly like the process.
    Trials run one after another, each accounting into its own row.
    """
    rounds = (_round_candidacy, _round_referees, _round_decisions)
    for t in range(rt.T):
        st = SimpleNamespace(
            t=t, network=rt.networks[t], seed=rt.requests[t].seed,
            statuses=[Status.UNDECIDED] * rt.n,
            outputs=[{} for _ in range(rt.n)],
            probes_by_referee=defaultdict(list), key_of={},
            verdicts_for=defaultdict(list))
        rt.statuses[t] = st.statuses
        rt.outputs[t] = st.outputs
        for r, step in enumerate(rounds):
            if r > rt.limit:
                rt.truncated[t] = True
                break
            more = step(rt, st)
            rt.rounds_executed[t] += 1
            if not more:
                break


def _account_sends(rt, t: int, kind: str, nodes: List[int],
                   counts: List[int], sizes: List[int]) -> None:
    """Account trial ``t``'s sends of one round in bulk: node
    ``nodes[k]`` sent ``counts[k]`` messages of ``sizes[k]`` bits
    (the lists are non-empty)."""
    total = sum(counts)
    rt.messages[t] += total
    rt.bits[t] += sum(c * s for c, s in zip(counts, sizes))
    top = max(sizes)
    if top > rt.max_payload_bits[t]:
        rt.max_payload_bits[t] = top
    rt.per_kind_array(kind)[t] += total
    np.add.at(rt.per_node_sent[t], nodes, counts)
    rt.pending[t] += total


def _round_candidacy(rt, st) -> bool:
    """Round 0: replay every node's ``on_start`` draws; candidates
    probe their sampled referees.  True when some probe is in flight."""
    rt.activations[st.t] += rt.n
    network = st.network
    know_n = rt.knowledge["n"]
    p = min(1.0, expected_candidates(know_n) / know_n)
    space = id_space_size(know_n)
    referees_cap = referee_count(know_n)
    statuses = st.statuses
    # Candidacy screen.  Every positive-degree node burns exactly
    # one uniform draw, and constructing the node's Random from its
    # string seed is the dense cost (~9us/node — seconds at 10^6).
    # CPython's seed(str, version=2) derives the integer
    # int.from_bytes(s + sha512(s), 'big'); seeding the C-level
    # generator with that integer directly produces the identical
    # stream while skipping the pure-Python wrapper, and the ~np
    # candidates rebuild their full node_rng below to replay the
    # remaining draws in order.
    prefix = f"node:{st.seed}:".encode()
    sha = hashlib.sha512
    from_bytes = int.from_bytes
    core_rng = _CoreRandom
    non_elected = Status.NON_ELECTED
    degree_of = network.degree
    candidates = []
    note = candidates.append
    for i in range(rt.n):
        if degree_of(i) == 0:
            # Degenerate single-node component: trivially the leader
            # (no RNG draw, exactly like the process).
            statuses[i] = Status.ELECTED
            st.outputs[i]["leader_uid"] = network.id_of(i)
            continue
        key = prefix + b"%d" % i
        if core_rng(from_bytes(key + sha(key).digest(), "big")).random() < p:
            note(i)
        else:
            statuses[i] = non_elected
    port_table = network.port_table
    probes = st.probes_by_referee
    counts = []
    sizes = []
    for i in candidates:
        rng = node_rng(st.seed, i)
        rng.random()  # the candidacy draw, replayed
        degree = degree_of(i)
        uid = network.id_of(i)
        rank = rng.randrange(1, space + 1)
        referees = min(degree, referees_cap)
        ports = rng.sample(range(degree), referees)
        size = ProbeMsg(rank, uid).size_bits()
        rt.congest_check("ProbeMsg", size)
        counts.append(referees)
        sizes.append(size)
        key = (rank, uid)
        st.key_of[i] = key
        row = port_table[i]
        for port in ports:
            probes[row[port]].append((key, i))
    if candidates:
        _account_sends(rt, st.t, "ProbeMsg", candidates, counts, sizes)
    return bool(probes)


def _round_referees(rt, st) -> bool:
    """Round 1: each probed node answers every probe with the
    smallest key it has seen (its own included, if a candidate)."""
    t = st.t
    rt.pending[t] = 0
    rt.last_activity_round[t] = 1
    referees = sorted(st.probes_by_referee)
    rt.activations[t] += len(referees)
    # Verdict keys are candidate keys, so there are only ~np distinct
    # payloads across ~sqrt(n log n) referees: memoize each key's size
    # (first computation runs the CONGEST check, in the same referee
    # order as the event loop's sends).
    size_of: dict = {}
    key_of = st.key_of
    probes = st.probes_by_referee
    verdicts = st.verdicts_for
    counts = []
    sizes = []
    for j in referees:
        entries = probes[j]
        best = key_of.get(j)
        for key, _ in entries:
            if best is None or key < best:
                best = key
        size = size_of.get(best)
        if size is None:
            size = VerdictMsg(best[0], best[1]).size_bits()
            rt.congest_check("VerdictMsg", size)
            size_of[best] = size
        counts.append(len(entries))
        sizes.append(size)
        for _, candidate in entries:
            verdicts[candidate].append(best)
    _account_sends(rt, t, "VerdictMsg", referees, counts, sizes)
    return True


def _round_decisions(rt, st) -> bool:
    """Round 2: every candidate has all its verdicts (one per
    referee) and decides."""
    t = st.t
    rt.pending[t] = 0
    rt.last_activity_round[t] = 2
    candidates = sorted(st.verdicts_for)
    rt.activations[t] += len(candidates)
    for i in candidates:
        key = st.key_of[i]
        if any(v < key for v in st.verdicts_for[i]):
            st.statuses[i] = Status.NON_ELECTED
        else:
            st.statuses[i] = Status.ELECTED
            st.outputs[i]["leader_uid"] = st.network.id_of(i)
    return False


#: Registry algorithm name -> (refusal check, kernel).
KERNELS = {
    "flood-max": (flood_max_reason, flood_max),
    "sublinear": (sublinear_reason, sublinear),
}
