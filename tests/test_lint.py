"""Tests for :mod:`repro.lint` — the domain static-analysis pass.

Each rule gets three fixtures: one where it fires, one that is clean,
and one where a per-line ``repro: noqa`` marker suppresses it.  Fixture
modules are written into a throwaway ``repro/`` package tree so the
package-scoped rules (everything gated on ``repro.*``) see them as
in-scope; the acceptance test for RL201 rebuilds the *real* kernel
contract modules with one registration removed and proves the rule
notices.
"""

import json
from pathlib import Path

import pytest

from repro.cli import main as cli_main
from repro.lint import (
    JSON_SCHEMA_VERSION,
    all_rules,
    lint_paths,
    module_name,
    render_json,
    render_text,
    resolve_rules,
    to_json,
    violations_from_json,
)

REPO_SRC = Path(__file__).resolve().parent.parent / "src"


# ----------------------------------------------------------------------
# Fixture-tree plumbing
# ----------------------------------------------------------------------
def write_tree(root: Path, files: dict) -> Path:
    """Write ``{relative path: source}`` under a ``repro`` package."""
    for rel, source in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        for parent in path.relative_to(root).parents:
            if str(parent) != ".":
                init = root / parent / "__init__.py"
                if not init.exists():
                    init.write_text("")
        path.write_text(source)
    return root


def lint_tree(tmp_path: Path, files: dict, **kwargs):
    return lint_paths([str(write_tree(tmp_path, files))], **kwargs)


def codes(result):
    return [v.code for v in result.violations]


def test_module_name_walks_packages(tmp_path):
    write_tree(tmp_path, {"repro/sim/thing.py": "x = 1\n"})
    assert module_name(str(tmp_path / "repro/sim/thing.py")) == \
        "repro.sim.thing"
    assert module_name(str(tmp_path / "repro/__init__.py")) == "repro"


def test_resolve_rules_prefix_and_unknown():
    only = resolve_rules(select=["RL1"], ignore=None)
    assert {r.code for r in only} == {c for c in all_rules()
                                      if c.startswith("RL1")}
    with pytest.raises(ValueError):
        resolve_rules(select=["RL9"], ignore=None)


# ----------------------------------------------------------------------
# RL000 parse errors
# ----------------------------------------------------------------------
def test_unparseable_file_reports_rl000(tmp_path):
    result = lint_tree(tmp_path, {"repro/broken.py": "def f(:\n"})
    assert codes(result) == ["RL000"]
    assert result.exit_code == 1


# ----------------------------------------------------------------------
# RL101 unseeded randomness
# ----------------------------------------------------------------------
RL101_BAD = """\
import random
import numpy as np


def draw():
    a = random.random()
    b = np.random.shuffle([1, 2])
    c = np.random.default_rng()
    return a, b, c
"""

RL101_CLEAN = """\
import random
import numpy as np


def draw(seed):
    rng = random.Random(f"node:{seed}:0")
    gen = np.random.default_rng(seed)
    return rng.random(), gen
"""


def test_rl101_fires_on_global_rng(tmp_path):
    result = lint_tree(tmp_path, {"repro/bad.py": RL101_BAD},
                       select=["RL101"])
    assert codes(result) == ["RL101", "RL101", "RL101"]


def test_rl101_clean_on_seeded_streams(tmp_path):
    result = lint_tree(tmp_path, {"repro/ok.py": RL101_CLEAN},
                       select=["RL101"])
    assert codes(result) == []


def test_rl101_suppressed(tmp_path):
    src = ("import random\n\n"
           "x = random.random()  # repro: noqa[RL101]\n")
    result = lint_tree(tmp_path, {"repro/s.py": src}, select=["RL101"])
    assert codes(result) == []


def test_rl101_ignores_code_outside_repro_package(tmp_path):
    # No __init__.py anywhere: the file is not part of any package.
    path = tmp_path / "standalone.py"
    path.write_text("import random\nx = random.random()\n")
    result = lint_paths([str(path)], select=["RL101"])
    assert codes(result) == []


# ----------------------------------------------------------------------
# RL102 wall clock
# ----------------------------------------------------------------------
RL102_BAD = """\
import time
from datetime import datetime


def stamp():
    return time.time(), datetime.now()
"""


def test_rl102_fires_on_wall_clock(tmp_path):
    result = lint_tree(tmp_path, {"repro/sim/clocky.py": RL102_BAD},
                       select=["RL102"])
    assert codes(result) == ["RL102", "RL102"]


def test_rl102_exempts_measurement_layer(tmp_path):
    result = lint_tree(tmp_path, {"repro/sim/bench.py": RL102_BAD},
                       select=["RL102"])
    assert codes(result) == []


def test_rl102_suppressed(tmp_path):
    src = ("import time\n\n"
           "t = time.monotonic()  # repro: noqa[RL102]\n")
    result = lint_tree(tmp_path, {"repro/sim/t.py": src}, select=["RL102"])
    assert codes(result) == []


# ----------------------------------------------------------------------
# RL103 set iteration order
# ----------------------------------------------------------------------
RL103_BAD = """\
class Proc:
    def __init__(self):
        self.children = set()

    def fanout(self, ctx):
        for port in self.children:
            ctx.send_soon(port, "msg")
        ctx.multicast_soon(self.children, "msg")
        return [p for p in self.children]
"""

RL103_CLEAN = """\
class Proc:
    def __init__(self):
        self.children = set()

    def fanout(self, ctx):
        for port in sorted(self.children):
            ctx.send_soon(port, "msg")
        ctx.multicast_soon(sorted(self.children), "msg")
        return sorted(self.children)
"""

RL103_LOCAL_SCOPING = """\
from typing import Set


class Proc:
    def collect(self):
        ports: Set[int] = set(self.neighbors())
        return sorted(ports)

    def fanout(self, ctx):
        # `ctx.ports` is a list; the local set named `ports` in another
        # method must not taint it.
        for port in ctx.ports:
            ctx.send_soon(port, "msg")
"""


def test_rl103_fires_on_set_order_sinks(tmp_path):
    result = lint_tree(tmp_path, {"repro/core/p.py": RL103_BAD},
                       select=["RL103"])
    assert codes(result) == ["RL103", "RL103", "RL103"]


def test_rl103_clean_when_sorted(tmp_path):
    result = lint_tree(tmp_path, {"repro/core/p.py": RL103_CLEAN},
                       select=["RL103"])
    assert codes(result) == []


def test_rl103_local_sets_do_not_taint_attributes(tmp_path):
    result = lint_tree(tmp_path, {"repro/core/p.py": RL103_LOCAL_SCOPING},
                       select=["RL103"])
    assert codes(result) == []


def test_rl103_local_set_iteration_caught(tmp_path):
    src = ("def f(ctx, items):\n"
           "    live = set(items)\n"
           "    for p in live:\n"
           "        ctx.send_soon(p, 'm')\n")
    result = lint_tree(tmp_path, {"repro/core/q.py": src},
                       select=["RL103"])
    assert codes(result) == ["RL103"]


def test_rl103_suppressed(tmp_path):
    src = ("def f(ctx, items):\n"
           "    live = set(items)\n"
           "    for p in live:  # repro: noqa[RL103]\n"
           "        ctx.send_soon(p, 'm')\n")
    result = lint_tree(tmp_path, {"repro/core/q.py": src},
                       select=["RL103"])
    assert codes(result) == []


# ----------------------------------------------------------------------
# RL104 environment reads / RL105 builtin hash
# ----------------------------------------------------------------------
def test_rl104_fires_and_is_warning(tmp_path):
    src = "import os\n\nmode = os.getenv('MODE')\nhome = os.environ['H']\n"
    result = lint_tree(tmp_path, {"repro/env.py": src}, select=["RL104"])
    assert codes(result) == ["RL104", "RL104"]
    assert all(v.severity.value == "warning" for v in result.violations)
    # Warnings still gate: exit code is non-zero.
    assert result.exit_code == 1


def test_rl105_fires_on_builtin_hash(tmp_path):
    src = "def derive(s):\n    return hash(s) % 100\n"
    result = lint_tree(tmp_path, {"repro/h.py": src}, select=["RL105"])
    assert codes(result) == ["RL105"]


def test_rl105_clean_on_hashlib(tmp_path):
    src = ("import hashlib\n\n"
           "def derive(s):\n"
           "    return hashlib.sha256(s.encode()).hexdigest()\n")
    result = lint_tree(tmp_path, {"repro/h.py": src}, select=["RL105"])
    assert codes(result) == []


# ----------------------------------------------------------------------
# RL201 kernel registry contract (synthetic + real-tree acceptance)
# ----------------------------------------------------------------------
API_FIXTURE = """\
def _registry():
    from .core.algo import Algo
    from .sim.contract import AlgorithmSpec

    specs = {
        "flood": AlgorithmSpec(Algo, result="Thm 1.1", time="O(D)",
                               messages="O(m)", needs=("n",)),
    }
    for name in KERNEL_ALGORITHMS:
        specs[name].backends = ("event-loop", "columnar")
    return specs
"""

COLUMNAR_INIT_OK = 'KERNEL_ALGORITHMS = ("flood",)\n'
KERNELS_OK = """\
class FloodKernel:
    algorithm = "flood"


KERNELS = {
    FloodKernel.algorithm: FloodKernel,
}
"""


def rl201_tree(api=API_FIXTURE, columnar=COLUMNAR_INIT_OK,
               kernels=KERNELS_OK):
    return {
        "repro/api.py": api,
        "repro/sim/columnar/__init__.py": columnar,
        "repro/sim/columnar/kernels.py": kernels,
    }


def test_rl201_clean_on_consistent_contract(tmp_path):
    result = lint_tree(tmp_path, rl201_tree(), select=["RL201"])
    assert codes(result) == []


def test_rl201_fires_when_kernel_unregistered(tmp_path):
    no_kernel = "class FloodKernel:\n    algorithm = 'flood'\n\nKERNELS = {}\n"
    result = lint_tree(tmp_path, rl201_tree(kernels=no_kernel),
                       select=["RL201"])
    assert "RL201" in codes(result)
    assert any("no kernel registered" in v.message
               for v in result.violations)


def test_rl201_fires_when_advertisement_missing(tmp_path):
    result = lint_tree(tmp_path,
                       rl201_tree(columnar="KERNEL_ALGORITHMS = ()\n"),
                       select=["RL201"])
    assert any("missing from KERNEL_ALGORITHMS" in v.message
               for v in result.violations)


def test_rl201_fires_when_capability_loop_dropped(tmp_path):
    api = API_FIXTURE.replace(
        "    for name in KERNEL_ALGORITHMS:\n"
        "        specs[name].backends = (\"event-loop\", \"columnar\")\n", "")
    result = lint_tree(tmp_path, rl201_tree(api=api), select=["RL201"])
    assert any("never folds" in v.message for v in result.violations)


def test_rl201_acceptance_on_real_tree(tmp_path):
    """Copy the real contract modules; removing a registration fires."""
    files = {
        "repro/api.py": (REPO_SRC / "repro/api.py").read_text(),
        "repro/sim/columnar/__init__.py":
            (REPO_SRC / "repro/sim/columnar/__init__.py").read_text(),
        "repro/sim/columnar/kernels.py":
            (REPO_SRC / "repro/sim/columnar/kernels.py").read_text(),
    }
    clean = lint_tree(tmp_path / "clean", dict(files), select=["RL201"])
    assert codes(clean) == []

    broken = dict(files)
    without = broken["repro/sim/columnar/kernels.py"].replace(
        '    "flood-max": (flood_max_reason, flood_max),\n', "")
    assert without != broken["repro/sim/columnar/kernels.py"]
    broken["repro/sim/columnar/kernels.py"] = without
    result = lint_tree(tmp_path / "broken", broken, select=["RL201"])
    assert "RL201" in codes(result)
    assert any("'flood-max'" in v.message and "no kernel registered"
               in v.message for v in result.violations)


# ----------------------------------------------------------------------
# RL203 Paper-claim docstrings
# ----------------------------------------------------------------------
RL203_API = """\
def _registry():
    from .core.algo import Algo
    from .sim.contract import AlgorithmSpec

    specs = {
        "algo": AlgorithmSpec(Algo, result="Thm 4.4(A)",
                              time="O(D) exp.",
                              messages="O(m·min(loglog n, D))",
                              needs=("n",)),
    }
    return specs
"""

RL203_GOOD_MODULE = '''\
"""Algorithm module.

Paper claim
-----------
:Result:    Theorem 4.4 (variants (A) and (B))
:Time:      O(D) expected
:Messages:  O(m · min(log f(n), D)) expected
:Knowledge: n
"""


class Algo:
    pass
'''


def test_rl203_accepts_elaborated_claim_block(tmp_path):
    result = lint_tree(tmp_path, {
        "repro/api.py": RL203_API,
        "repro/core/algo.py": RL203_GOOD_MODULE,
    }, select=["RL203"])
    assert codes(result) == []


def test_rl203_fires_on_missing_block(tmp_path):
    result = lint_tree(tmp_path, {
        "repro/api.py": RL203_API,
        "repro/core/algo.py": '"""No claims here."""\n\nclass Algo:\n    pass\n',
    }, select=["RL203"])
    assert codes(result) == ["RL203"]
    assert "no 'Paper claim' block" in result.violations[0].message


def test_rl203_fires_on_wrong_theorem(tmp_path):
    wrong = RL203_GOOD_MODULE.replace("Theorem 4.4", "Theorem 9.9")
    result = lint_tree(tmp_path, {
        "repro/api.py": RL203_API,
        "repro/core/algo.py": wrong,
    }, select=["RL203"])
    assert any(":Result:" in v.message for v in result.violations)


def test_rl203_fires_on_dropped_bound_variable(tmp_path):
    wrong = RL203_GOOD_MODULE.replace(
        ":Time:      O(D) expected", ":Time:      O(n) expected")
    result = lint_tree(tmp_path, {
        "repro/api.py": RL203_API,
        "repro/core/algo.py": wrong,
    }, select=["RL203"])
    assert any(":Time:" in v.message for v in result.violations)


def test_rl203_fires_on_missing_knowledge_key(tmp_path):
    wrong = RL203_GOOD_MODULE.replace(":Knowledge: n", ":Knowledge: none")
    result = lint_tree(tmp_path, {
        "repro/api.py": RL203_API,
        "repro/core/algo.py": wrong,
    }, select=["RL203"])
    assert any("Knowledge" in v.message for v in result.violations)


# ----------------------------------------------------------------------
# RL301 rebinding signature drift
# ----------------------------------------------------------------------
RL301_BAD = """\
class Sched:
    def _dispatch(self, r, inboxes):
        pass

    def _dispatch_fast(self, r):
        pass

    def pick(self):
        self._dispatch = self._dispatch_fast
"""

RL301_CLEAN = RL301_BAD.replace("def _dispatch_fast(self, r):",
                                "def _dispatch_fast(self, r, inboxes):")


def test_rl301_fires_on_drifted_rebind(tmp_path):
    result = lint_tree(tmp_path, {"repro/sim/s.py": RL301_BAD},
                       select=["RL301"])
    assert codes(result) == ["RL301"]


def test_rl301_clean_on_matching_signatures(tmp_path):
    result = lint_tree(tmp_path, {"repro/sim/s.py": RL301_CLEAN},
                       select=["RL301"])
    assert codes(result) == []


def test_rl301_checks_local_closure_rebinds(tmp_path):
    src = ("class Sched:\n"
           "    def _exec(self, r, inboxes):\n"
           "        pass\n"
           "\n"
           "    def wire(self):\n"
           "        def exec_obs(r):\n"
           "            pass\n"
           "        self._exec = exec_obs\n")
    result = lint_tree(tmp_path, {"repro/sim/s.py": src}, select=["RL301"])
    assert codes(result) == ["RL301"]


RL301_ASYNC_BAD = """\
class Runner:
    async def _execute(self, r):
        pass

    async def _execute_model(self, r, extra):
        pass

    def pick(self):
        self._execute = self._execute_model

    def wire(self):
        inner = self._execute
        async def execute_obs(r):
            await inner(r)
        self._execute = execute_obs
"""


def test_rl301_fires_on_drifted_async_rebind(tmp_path):
    result = lint_tree(tmp_path, {"repro/net/r.py": RL301_ASYNC_BAD},
                       select=["RL301"])
    assert codes(result) == ["RL301"]
    assert "self._execute_model" in result.violations[0].message


def test_rl301_clean_on_matching_async_signatures(tmp_path):
    src = RL301_ASYNC_BAD.replace("(self, r, extra)", "(self, r)")
    result = lint_tree(tmp_path, {"repro/net/r.py": src}, select=["RL301"])
    assert codes(result) == []


def test_rl301_checks_async_closure_rebinds(tmp_path):
    src = RL301_ASYNC_BAD.replace("(self, r, extra)", "(self, r)").replace(
        "async def execute_obs(r):", "async def execute_obs(r, extra):")
    result = lint_tree(tmp_path, {"repro/net/r.py": src}, select=["RL301"])
    assert codes(result) == ["RL301"]
    assert "'execute_obs'" in result.violations[0].message


RL301_BASE = """\
class Core:
    def _send(self, src, port, payload):
        pass

    def _rounds(self, limit):
        pass

    def _wrap(self):
        inner = self._send
        def send_checked(src, port, payload):
            inner(src, port, payload)
        self._send = send_checked
"""

RL301_SUB = """\
from .core import Core


class Backend(Core):
    def _send_fast(self, src, port):
        pass

    def pick(self):
        self._send = self._send_fast
"""


def test_rl301_resolves_base_class_from_another_module(tmp_path):
    result = lint_tree(tmp_path, {"repro/sim/core.py": RL301_BASE,
                                  "repro/sim/backend.py": RL301_SUB},
                       select=["RL301"])
    assert codes(result) == ["RL301"]
    assert result.violations[0].path.endswith("backend.py")


def test_rl301_clean_on_matching_inherited_signature(tmp_path):
    sub = RL301_SUB.replace("(self, src, port)", "(self, src, port, payload)")
    result = lint_tree(tmp_path, {"repro/sim/core.py": RL301_BASE,
                                  "repro/sim/backend.py": sub},
                       select=["RL301"])
    assert codes(result) == []


def test_rl301_resolves_absolute_and_reexported_bases(tmp_path):
    """``from repro.sim import Core`` through a package re-export."""
    sub = RL301_SUB.replace("from .core import Core",
                            "from repro.sim import Core")
    result = lint_tree(tmp_path, {
        "repro/sim/__init__.py": "from .core import Core\n",
        "repro/sim/core.py": RL301_BASE,
        "repro/net/backend.py": sub,
    }, select=["RL301"])
    assert codes(result) == ["RL301"]


def test_rl301_acceptance_on_real_tree(tmp_path):
    """Copy the real src/repro; one drifted inherited variant and one
    drifted async closure each give exactly one violation."""
    def tree(edit=None):
        files = {}
        for path in sorted((REPO_SRC / "repro").rglob("*.py")):
            rel = str(path.relative_to(REPO_SRC))
            files[rel] = path.read_text()
        if edit is not None:
            rel, old, new = edit
            assert old in files[rel]
            files[rel] = files[rel].replace(old, new, 1)
        return files

    clean = lint_tree(tmp_path / "clean", tree(), select=["RL301"])
    assert codes(clean) == []

    inherited = lint_tree(tmp_path / "inherited", tree((
        "repro/sim/scheduler.py",
        "def _submit_send_agg(self, src: int, port: int, payload: Payload)",
        "def _submit_send_agg(self, src: int, port: int)")),
        select=["RL301"])
    assert codes(inherited) == ["RL301"]
    assert "self._submit_send_agg" in inherited.violations[0].message

    wrapped = lint_tree(tmp_path / "wrapped", tree((
        "repro/sim/rounds.py",
        "def rounds_obs(max_rounds: Optional[int],\n"
        "                       raise_on_limit: bool)",
        "def rounds_obs(max_rounds: Optional[int])")),
        select=["RL301"])
    assert codes(wrapped) == ["RL301"]
    assert "'rounds_obs'" in wrapped.violations[0].message


# ----------------------------------------------------------------------
# RL001 stale suppressions
# ----------------------------------------------------------------------
def test_rl001_flags_stale_and_unknown_suppressions(tmp_path):
    src = ("x = 1  # repro: noqa[RL101]\n"
           "y = 2  # repro: noqa[RL999]\n")
    result = lint_tree(tmp_path, {"repro/s.py": src})
    assert codes(result) == ["RL001", "RL001"]
    assert any("unknown rule code" in v.message for v in result.violations)


def test_rl001_quiet_on_used_suppression(tmp_path):
    src = ("import random\n\n"
           "x = random.random()  # repro: noqa[RL101]\n")
    result = lint_tree(tmp_path, {"repro/s.py": src})
    assert codes(result) == []


def test_rl001_skipped_under_select_narrowing(tmp_path):
    src = "x = 1  # repro: noqa[RL101]\n"
    result = lint_tree(tmp_path, {"repro/s.py": src}, select=["RL103"])
    assert codes(result) == []


# ----------------------------------------------------------------------
# Reporters
# ----------------------------------------------------------------------
def test_json_reporter_round_trip(tmp_path):
    result = lint_tree(tmp_path, {"repro/bad.py": RL101_BAD})
    document = json.loads(render_json(result))
    assert document["schema_version"] == JSON_SCHEMA_VERSION
    assert document["counts"]["total"] == len(result.violations)
    assert document["counts"]["errors"] >= 3
    restored = violations_from_json(document)
    assert restored == result.violations


def test_json_reporter_rejects_wrong_schema(tmp_path):
    result = lint_tree(tmp_path, {"repro/ok.py": "x = 1\n"})
    document = to_json(result)
    document["schema_version"] = 99
    with pytest.raises(ValueError):
        violations_from_json(document)


def test_text_reporter_mentions_counts(tmp_path):
    result = lint_tree(tmp_path, {"repro/bad.py": RL101_BAD})
    text = render_text(result)
    assert "violation(s)" in text
    assert "RL101" in text
    clean = lint_tree(tmp_path / "c", {"repro/ok.py": "x = 1\n"})
    assert "clean" in render_text(clean)


# ----------------------------------------------------------------------
# CLI + self-check
# ----------------------------------------------------------------------
def test_cli_lint_clean_tree_exits_zero(tmp_path, capsys):
    write_tree(tmp_path, {"repro/ok.py": "x = 1\n"})
    assert cli_main(["lint", str(tmp_path)]) == 0
    assert "clean" in capsys.readouterr().out


def test_cli_lint_bad_tree_exits_nonzero_json(tmp_path, capsys):
    write_tree(tmp_path, {"repro/bad.py": RL101_BAD})
    code = cli_main(["lint", "--format", "json", str(tmp_path)])
    assert code == 1
    document = json.loads(capsys.readouterr().out)
    assert document["counts"]["errors"] >= 3


def test_cli_lint_select_filters(tmp_path):
    write_tree(tmp_path, {"repro/bad.py": RL101_BAD})
    assert cli_main(["lint", "--select", "RL103", str(tmp_path)]) == 0


def test_cli_lint_list_rules(capsys):
    assert cli_main(["lint", "--list-rules"]) == 0
    out = capsys.readouterr().out
    for code in all_rules():
        assert code in out


def test_self_check_repo_src_is_clean():
    """The repository's own source must pass its own linter."""
    result = lint_paths([str(REPO_SRC)])
    assert [v.render() for v in result.violations] == []
    assert result.exit_code == 0
