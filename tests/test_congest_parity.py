"""Cross-engine seams: one CONGEST violation message on every execution
path, and the definitions the pipeline benchmark's span wrappers patch."""

import pytest

from repro.api import _ensure_registry
from repro.graphs import Network, complete, ring
from repro.sim.backend import BACKENDS, RunRequest
from repro.sim.errors import CongestViolation
from repro.sim.models import BernoulliLoss, ExecutionModel, UniformDelay
from repro.sim.scheduler import Simulator

GRAPHS = {"ring:8": ring, "clique:8": complete}


def _violation(algorithm, graph, backend="event-loop", **overrides):
    """The CongestViolation text of ``algorithm`` under a 1-bit budget."""
    spec = _ensure_registry()[algorithm]
    request = RunRequest(network=Network.build(GRAPHS[graph](8), seed=5),
                         factory=spec.factory, seed=5, knowledge={"n": 8},
                         congest_bits=1, algorithm=algorithm, **overrides)
    with pytest.raises(CongestViolation) as exc:
        BACKENDS[backend].run(request)
    return str(exc.value)


MODELED = {"model": ExecutionModel(delay=UniformDelay(2),
                                   loss=BernoulliLoss(0.05))}

#: The plain event loop's first offender: flood-max only broadcasts, and
#: clustering's first oversized payload is a point send.
REFERENCE = {
    ("flood-max", "ring:8"): "payload MaxIdMsg is ",
    ("flood-max", "clique:8"): "payload MaxIdMsg is ",
    ("clustering", "ring:8"):
        "payload JoinMsg is 20 bits (> CONGEST limit of 1)",
    ("clustering", "clique:8"):
        "payload JoinMsg is 26 bits (> CONGEST limit of 1)",
}


@pytest.mark.parametrize("algorithm,graph,backend,overrides", [
    pytest.param("flood-max", "ring:8", "event-loop", {}, id="flat"),
    pytest.param("flood-max", "clique:8", "event-loop", {}, id="aggregated"),
    pytest.param("flood-max", "ring:8", "event-loop", MODELED, id="modeled"),
    pytest.param("flood-max", "ring:8", "net", {}, id="net",
                 marks=pytest.mark.net),
    pytest.param("flood-max", "clique:8", "columnar", {}, id="columnar"),
    pytest.param("flood-max", "ring:8", "columnar", {}, id="columnar-ring"),
    # No clustering kernel exists, so columnar stays flood-max only.
    pytest.param("clustering", "ring:8", "event-loop", {},
                 id="clustering-flat"),
    pytest.param("clustering", "clique:8", "event-loop", {},
                 id="clustering-aggregated"),
    pytest.param("clustering", "ring:8", "event-loop", MODELED,
                 id="clustering-modeled"),
    pytest.param("clustering", "ring:8", "net", {}, id="clustering-net",
                 marks=pytest.mark.net),
])
def test_congest_violation_parity_every_path(algorithm, graph, backend,
                                             overrides):
    """Every path raises the plain event loop's exact message.  The
    reference run records a timeline, which keeps a clique off the
    aggregated broadcast path."""
    if backend == "columnar":
        pytest.importorskip("numpy")
    reference = _violation(algorithm, graph, timeline=True)
    assert reference.startswith(REFERENCE[algorithm, graph])
    assert _violation(algorithm, graph, backend, **overrides) == reference


def test_aggregated_case_takes_the_aggregated_path():
    spec = _ensure_registry()["flood-max"]
    sim = Simulator(Network.build(complete(8), seed=5), spec.factory, seed=5,
                    knowledge={"n": 8}, congest_bits=1)
    assert sim._aggregate


def test_benchmark_span_anchors():
    """bench/spans.py TARGETS wraps Simulator.__init__ and Simulator.run
    through the class __dict__, and repro.net.engine.run and the
    columnar entry points by module attribute; a definition moved to a
    base class, or re-exported from another module, would silently
    zero the sim.* or columnar.* per-layer metrics."""
    import importlib
    import types

    from repro.net import engine

    assert "__init__" in Simulator.__dict__
    assert "run" in Simulator.__dict__
    assert callable(engine.run)
    pytest.importorskip("numpy")
    for module, name in [("repro.sim.columnar.engine", "run"),
                         ("repro.sim.columnar.batch", "run_batch"),
                         ("repro.sim.columnar.batch", "build_network")]:
        fn = getattr(importlib.import_module(module), name)
        assert isinstance(fn, types.FunctionType), (module, name)
        assert fn.__module__ == module, (module, name)
