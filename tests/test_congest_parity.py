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


def _violation(graph, backend="event-loop", **overrides):
    """The CongestViolation text of flood-max under a 1-bit budget."""
    spec = _ensure_registry()["flood-max"]
    request = RunRequest(network=Network.build(GRAPHS[graph](8), seed=5),
                         factory=spec.factory, seed=5, knowledge={"n": 8},
                         congest_bits=1, algorithm="flood-max", **overrides)
    with pytest.raises(CongestViolation) as exc:
        BACKENDS[backend].run(request)
    return str(exc.value)


@pytest.mark.parametrize("graph,backend,overrides", [
    pytest.param("ring:8", "event-loop", {}, id="flat"),
    pytest.param("clique:8", "event-loop", {}, id="aggregated"),
    pytest.param("ring:8", "event-loop",
                 {"model": ExecutionModel(delay=UniformDelay(2),
                                          loss=BernoulliLoss(0.05))},
                 id="modeled"),
    pytest.param("ring:8", "net", {}, id="net", marks=pytest.mark.net),
    pytest.param("clique:8", "columnar", {}, id="columnar"),
])
def test_congest_violation_parity_every_path(graph, backend, overrides):
    """Every path raises the plain event loop's exact message.  The
    reference run records a timeline, which keeps a clique off the
    aggregated broadcast path."""
    if backend == "columnar":
        pytest.importorskip("numpy")
    reference = _violation(graph, timeline=True)
    assert reference.startswith("payload MaxIdMsg is ")
    assert _violation(graph, backend, **overrides) == reference


def test_aggregated_case_takes_the_aggregated_path():
    spec = _ensure_registry()["flood-max"]
    sim = Simulator(Network.build(complete(8), seed=5), spec.factory, seed=5,
                    knowledge={"n": 8}, congest_bits=1)
    assert sim._aggregate


def test_benchmark_span_anchors():
    """bench/spans.py TARGETS wraps Simulator.__init__ and Simulator.run
    through the class __dict__, and repro.net.engine.run by module
    attribute; a definition moved to a base class would silently zero
    the sim.* per-layer metrics."""
    from repro.net import engine

    assert "__init__" in Simulator.__dict__
    assert "run" in Simulator.__dict__
    assert callable(engine.run)
