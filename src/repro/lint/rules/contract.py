"""Contract-conformance rules: RL201 and RL203 (RL202 is retired).

These are *project* rules: they parse several modules' ASTs and prove
cross-module invariants that no single-file linter can see — the
"equivalent or absent" kernel contract and the Paper-claim docstring
uniformity.  Everything is read from literals
(dict keys, tuple elements, keyword constants), never by importing the
code, so the checks run on broken or partial trees and in CI without
optional dependencies.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Set, Tuple

from ..engine import ModuleInfo, Project
from ..registry import ProjectRule, register
from ..violation import Violation

#: Where the pieces of the kernel contract live.
API_MODULE = "repro.api"
COLUMNAR_MODULE = "repro.sim.columnar"
KERNELS_MODULE = "repro.sim.columnar.kernels"


# ----------------------------------------------------------------------
# AST extraction helpers
# ----------------------------------------------------------------------
@dataclass
class SpecLiteral:
    """One ``AlgorithmSpec(...)`` entry read from the registry literal."""

    name: str
    line: int
    factory_class: Optional[str] = None
    result: Optional[str] = None
    time: Optional[str] = None
    messages: Optional[str] = None
    needs: Tuple[str, ...] = ()
    backends: Optional[Tuple[str, ...]] = None


@dataclass
class RegistryLiteral:
    """Everything RL20x needs from ``repro.api._registry``."""

    specs: Dict[str, SpecLiteral] = field(default_factory=dict)
    #: class name -> defining module (from the function's import block).
    class_modules: Dict[str, str] = field(default_factory=dict)
    #: True when the `for name in KERNEL_ALGORITHMS: ...backends...`
    #: capability loop is present.
    has_kernel_loop: bool = False


def _const_str(node: ast.expr) -> Optional[str]:
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None


def _str_tuple(node: ast.expr) -> Optional[Tuple[str, ...]]:
    if isinstance(node, (ast.Tuple, ast.List)):
        items = [_const_str(el) for el in node.elts]
        if all(i is not None for i in items):
            return tuple(items)  # type: ignore[arg-type]
    return None


def _factory_class(node: ast.expr) -> Optional[str]:
    """Class name a factory expression refers to (name or lambda body)."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Lambda):
        body = node.body
        if isinstance(body, ast.Call):
            if isinstance(body.func, ast.Name):
                return body.func.id
    return None


def parse_registry(info: ModuleInfo) -> Optional[RegistryLiteral]:
    """Read the ``specs = {...}`` literal out of ``_registry()``."""
    registry_fn = None
    for node in info.tree.body:
        if isinstance(node, ast.FunctionDef) and node.name == "_registry":
            registry_fn = node
            break
    if registry_fn is None:
        return None

    out = RegistryLiteral()
    package = info.module.rsplit(".", 1)[0] if "." in info.module else ""
    for node in ast.walk(registry_fn):
        if isinstance(node, ast.ImportFrom) and node.level >= 1:
            base = package
            for _ in range(node.level - 1):
                base = base.rsplit(".", 1)[0]
            origin = f"{base}.{node.module}" if node.module else base
            for alias in node.names:
                out.class_modules[alias.asname or alias.name] = origin
        elif isinstance(node, ast.Dict):
            for key, value in zip(node.keys, node.values):
                name = _const_str(key) if key is not None else None
                if (name is None or not isinstance(value, ast.Call)
                        or not isinstance(value.func, ast.Name)
                        or value.func.id != "AlgorithmSpec"):
                    continue
                spec = SpecLiteral(name=name, line=value.lineno)
                if value.args:
                    spec.factory_class = _factory_class(value.args[0])
                for kw in value.keywords:
                    if kw.arg == "factory":
                        spec.factory_class = _factory_class(kw.value)
                    elif kw.arg in ("result", "time", "messages"):
                        setattr(spec, kw.arg, _const_str(kw.value))
                    elif kw.arg == "needs":
                        spec.needs = _str_tuple(kw.value) or ()
                    elif kw.arg == "backends":
                        spec.backends = _str_tuple(kw.value)
                out.specs[name] = spec
        elif isinstance(node, ast.For):
            # for name in KERNEL_ALGORITHMS: specs[name].backends = ...
            if (isinstance(node.iter, ast.Name)
                    and node.iter.id == "KERNEL_ALGORITHMS"):
                out.has_kernel_loop = True
    return out


def _assigned_literal(info: ModuleInfo, name: str) -> Optional[ast.expr]:
    """The top-level literal assigned to ``name`` (Assign or AnnAssign)."""
    for node in info.tree.body:
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name) and target.id == name:
                    return node.value
        elif isinstance(node, ast.AnnAssign):
            if (isinstance(node.target, ast.Name)
                    and node.target.id == name):
                return node.value
    return None


def kernel_algorithms(info: ModuleInfo) -> Optional[Tuple[str, ...]]:
    value = _assigned_literal(info, "KERNEL_ALGORITHMS")
    return _str_tuple(value) if value is not None else None


def _class_str_attrs(info: ModuleInfo, attr: str) -> Dict[str, str]:
    """``{class name: value}`` for class-level ``attr = "literal"``."""
    out: Dict[str, str] = {}
    for node in info.tree.body:
        if not isinstance(node, ast.ClassDef):
            continue
        for stmt in node.body:
            value: Optional[ast.expr] = None
            if isinstance(stmt, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == attr
                    for t in stmt.targets):
                value = stmt.value
            elif (isinstance(stmt, ast.AnnAssign)
                    and isinstance(stmt.target, ast.Name)
                    and stmt.target.id == attr):
                value = stmt.value
            if value is not None:
                text = _const_str(value)
                if text is not None:
                    out[node.name] = text
    return out


def kernel_registry_keys(info: ModuleInfo) -> Optional[Dict[str, int]]:
    """``KERNELS`` dict keys -> line numbers.

    Keys are either string literals or ``SomeKernel.algorithm``
    references; the latter resolve through the class-level
    ``algorithm = "..."`` constant of the same module.
    """
    value = _assigned_literal(info, "KERNELS")
    if not isinstance(value, ast.Dict):
        return None
    algorithm_of = _class_str_attrs(info, "algorithm")
    keys: Dict[str, int] = {}
    for key in value.keys:
        if key is None:
            continue
        name = _const_str(key)
        if (name is None and isinstance(key, ast.Attribute)
                and key.attr == "algorithm"
                and isinstance(key.value, ast.Name)):
            name = algorithm_of.get(key.value.id)
        if name is not None:
            keys[name] = key.lineno
    return keys


# ----------------------------------------------------------------------
@register
class KernelRegistryRule(ProjectRule):
    """RL201: ``AlgorithmSpec.backends`` ↔ columnar kernel registry."""

    code = "RL201"
    summary = ("an algorithm advertises a columnar backend without a "
               "registered kernel (or vice versa)")

    def check_project(self, project: Project) -> Iterable[Violation]:
        api = project.get(API_MODULE)
        columnar = project.get(COLUMNAR_MODULE)
        kernels = project.get(KERNELS_MODULE)

        advertised = kernel_algorithms(columnar) if columnar else None
        registered = kernel_registry_keys(kernels) if kernels else None
        registry = parse_registry(api) if api else None

        if columnar is not None and advertised is None:
            yield self.violation(
                columnar, 0, 0,
                "KERNEL_ALGORITHMS is not a static tuple of string "
                "literals — capability listings must not require numpy")
            return

        # Advertised capability <-> registered kernel, both directions.
        if advertised is not None and registered is not None:
            assert columnar is not None and kernels is not None
            for name in advertised:
                if name not in registered:
                    yield self.violation(
                        columnar, 0, 0,
                        f"algorithm {name!r} is advertised in "
                        f"KERNEL_ALGORITHMS but has no kernel registered "
                        f"in KERNELS ({KERNELS_MODULE}) — the columnar "
                        f"backend would refuse every request for it")
            for name, line in registered.items():
                if name not in advertised:
                    yield self.violation(
                        kernels, line, 0,
                        f"kernel for {name!r} is registered in KERNELS "
                        f"but missing from KERNEL_ALGORITHMS — `repro "
                        f"list` would hide the capability")

        # Registry names advertising "columnar" must have a kernel.
        if registry is not None:
            assert api is not None
            source = advertised if advertised is not None else (
                tuple(registered) if registered is not None else None)
            for spec in registry.specs.values():
                if spec.backends and "columnar" in spec.backends:
                    if source is not None and spec.name not in source:
                        yield self.violation(
                            api, spec.line, 0,
                            f"AlgorithmSpec {spec.name!r} lists a "
                            f"'columnar' backend but no kernel is "
                            f"registered for it")
            if advertised is not None:
                for name in advertised:
                    if name not in registry.specs:
                        assert columnar is not None
                        yield self.violation(
                            columnar, 0, 0,
                            f"KERNEL_ALGORITHMS names {name!r}, which is "
                            f"not an algorithm in the repro.api registry")
                if not registry.has_kernel_loop:
                    yield self.violation(
                        api, 0, 0,
                        "repro.api._registry never folds "
                        "KERNEL_ALGORITHMS into AlgorithmSpec.backends — "
                        "columnar capability would be invisible")


# ----------------------------------------------------------------------
#: ``:Field:  text`` lines inside the "Paper claim" docstring block.
_CLAIM_FIELD = re.compile(r"^:(Result|Time|Messages|Knowledge):\s*(.*)$")

#: Core modules exempt from the Paper-claim block: infrastructure that
#: does not itself realize a Table-1 row.
CORE_EXEMPT = ("repro.core.base", "repro.core.waves",
               "repro.core.broadcast", "repro.core.__init__",
               "repro.core")


def parse_claim_block(docstring: str) -> Dict[str, str]:
    """The ``:Result:`` / ``:Time:`` / ... fields of a module docstring."""
    fields: Dict[str, str] = {}
    in_block = False
    for line in docstring.splitlines():
        stripped = line.strip()
        if stripped.lower() == "paper claim":
            in_block = True
            continue
        if not in_block:
            continue
        match = _CLAIM_FIELD.match(stripped)
        if match:
            fields[match.group(1)] = match.group(2).strip()
        elif fields and not stripped:
            break  # blank line ends the field list
    return fields


def _normalize(text: str) -> str:
    """Comparison form: drop whitespace and typography, lowercase."""
    text = text.replace("ε", "eps").replace("Δ", "delta").replace("Θ", "theta")
    return re.sub(r"[\s·×*{}]", "", text).lower()


#: Claim anchors: theorem/corollary-style numbers and citation refs.
_ANCHOR_NUMBER = re.compile(r"\d+\.\d+")
_ANCHOR_CITE = re.compile(r"\[\d+\]")

#: Qualifier words in a bound that carry no symbol content.
_BOUND_STOPWORDS = frozenset({
    "o", "exp", "expected", "whp", "w", "h", "p", "amortized",
    "deterministic", "det", "rounds", "round", "messages", "msgs",
    "time", "per", "bits", "bit", "words", "word", "in", "unbounded",
})


def _claim_anchors(text: str) -> Tuple[Set[str], Set[str]]:
    """(numbers, citations) that pin a Result claim to the paper."""
    return (set(_ANCHOR_NUMBER.findall(text)),
            set(_ANCHOR_CITE.findall(text)))


def _bound_symbols(text: str) -> Set[str]:
    """Symbol families of an asymptotic bound, e.g. ``{"m", "log", "d"}``.

    Single letters are variables; any ``log``-prefixed token (``log``,
    ``loglog``, ``log^3/2``) collapses to the ``log`` family, so an
    elaborated docstring bound like ``O(m · min(log f(n), D))`` is
    consistent with the registry's ``O(m·min(loglog n, D))`` — while a
    genuinely different bound (a dropped variable) still fires.
    """
    symbols: Set[str] = set()
    lowered = (text.replace("ε", "eps").replace("Δ", "delta")
               .replace("Θ", "theta").lower())
    for token in re.findall(r"[a-z]+", lowered):
        if token.startswith("log"):
            symbols.add("log")
        elif token not in _BOUND_STOPWORDS:
            symbols.add(token)
    return symbols


def _result_consistent(spec_text: str, doc_text: str) -> bool:
    """Docstring Result names the same theorem/citation as the registry."""
    numbers, cites = _claim_anchors(spec_text)
    doc_numbers, doc_cites = _claim_anchors(doc_text)
    if numbers or cites:
        return numbers <= doc_numbers and cites <= doc_cites
    # No numeric anchor ("Intro example"): fall back to sharing at
    # least one substantive word.
    doc_norm = _normalize(doc_text)
    words = [w for w in re.findall(r"[a-z]+", spec_text.lower())
             if len(w) >= 4]
    return any(w in doc_norm for w in words) if words else True


def _bound_consistent(spec_text: str, doc_text: str) -> bool:
    """Docstring bound mentions every symbol family of the registry bound."""
    return _bound_symbols(spec_text) <= _bound_symbols(doc_text)


@register
class PaperClaimRule(ProjectRule):
    """RL203: core algorithm modules carry a consistent Paper-claim block."""

    code = "RL203"
    summary = ("core algorithm module missing the 'Paper claim' "
               "docstring block, or its fields contradict the "
               "AlgorithmSpec registry entry")

    def check_project(self, project: Project) -> Iterable[Violation]:
        api = project.get(API_MODULE)
        if api is None:
            return
        registry = parse_registry(api)
        if registry is None:
            return

        #: module -> spec literals realized by a class in that module.
        by_module: Dict[str, List[SpecLiteral]] = {}
        for spec in registry.specs.values():
            module = registry.class_modules.get(spec.factory_class or "")
            if module is not None:
                by_module.setdefault(module, []).append(spec)

        for module, specs in sorted(by_module.items()):
            info = project.get(module)
            if info is None or not info.module.startswith("repro.core"):
                continue
            docstring = ast.get_docstring(info.tree) or ""
            fields = parse_claim_block(docstring)
            if not fields:
                yield self.violation(
                    info, 1, 0,
                    f"module realizes AlgorithmSpec "
                    f"{specs[0].name!r} but its docstring has no "
                    f"'Paper claim' block (:Result:/:Time:/:Messages:/"
                    f":Knowledge: fields)")
                continue
            missing = [f for f in ("Result", "Time", "Messages",
                                   "Knowledge") if f not in fields]
            if missing:
                yield self.violation(
                    info, 1, 0,
                    f"'Paper claim' block is missing field(s): "
                    f"{', '.join(missing)}")
                continue
            for spec in specs:
                yield from self._check_spec(info, spec, fields)

        # The reverse direction: every non-exempt core module that the
        # registry does NOT reference should still not fake the block
        # with empty fields — but absence is fine (helpers).  Nothing to
        # check here; the exemption list documents intent.

    def _check_spec(self, info: ModuleInfo, spec: SpecLiteral,
                    fields: Dict[str, str]) -> Iterable[Violation]:
        checks = (("result", "Result", _result_consistent),
                  ("time", "Time", _bound_consistent),
                  ("messages", "Messages", _bound_consistent))
        for attr, fname, consistent in checks:
            claimed = getattr(spec, attr)
            if not claimed:
                continue
            if not consistent(claimed, fields[fname]):
                yield self.violation(
                    info, 1, 0,
                    f"Paper-claim :{fname}: {fields[fname]!r} is "
                    f"inconsistent with the registry's {attr} "
                    f"{claimed!r} for AlgorithmSpec {spec.name!r} — "
                    f"one of the two is stale")
        knowledge = fields["Knowledge"]
        for key in spec.needs:
            if not re.search(rf"(?<![A-Za-z]){re.escape(key)}(?![A-Za-z])",
                             knowledge):
                yield self.violation(
                    info, 1, 0,
                    f"Paper-claim :Knowledge: {knowledge!r} does not "
                    f"mention required knowledge key {key!r} of "
                    f"AlgorithmSpec {spec.name!r}")
