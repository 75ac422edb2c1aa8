"""Scheduler-idiom safety: RL301.

The model layer, the aggregated-broadcast buffer, the CONGEST check and
the tracer layer all use the same trick: a hot method is *rebound as an
instance attribute* (``self._take_round = self._take_round_model`` or
``self._rounds = rounds_obs`` for a closure wrapper), so the default
path stays branch-free while variants swap in per instance.  The trick
is only sound if every rebound callable keeps the original method's
signature — callers dispatch through the attribute without knowing
which variant is live, so a drifted parameter list fails at call time,
on the variant path only, where the default-path test suite never
looks.  RL301 proves signature agreement at the AST level.

It is a project rule because the round core's backends split the idiom
across modules: the original method often lives in a base class
imported from another module of the linted tree (``Simulator`` rebinds
``RoundCore._submit_send``), so each class's method table is resolved
through its bases.  ``async def`` methods and closures count like
``def``.
"""

from __future__ import annotations

import ast
import os
from typing import Dict, Iterable, List, Optional, Tuple, Union

from ..engine import ModuleInfo, Project
from ..registry import ProjectRule, register
from ..violation import Violation

Function = Union[ast.FunctionDef, ast.AsyncFunctionDef]
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _signature(args: ast.arguments, *, drop_self: bool) -> Tuple:
    """Comparable shape of an argument list (names, kinds, defaults).

    Annotations are deliberately ignored: wrapper closures often omit
    them, and the dispatch contract is positional/keyword shape, not
    typing.
    """
    pos = [a.arg for a in args.posonlyargs + args.args]
    if drop_self and pos:
        pos = pos[1:]
    return (
        tuple(pos),
        len(args.posonlyargs),
        len(args.defaults),
        args.vararg.arg if args.vararg else None,
        tuple(a.arg for a in args.kwonlyargs),
        sum(1 for d in args.kw_defaults if d is not None),
        args.kwarg.arg if args.kwarg else None,
    )


def _render(sig: Tuple) -> str:
    pos, _, ndef, vararg, kwonly, _, kwarg = sig
    parts = list(pos)
    if vararg:
        parts.append(f"*{vararg}")
    elif kwonly:
        parts.append("*")
    parts.extend(kwonly)
    if kwarg:
        parts.append(f"**{kwarg}")
    return "(" + ", ".join(parts) + ")"


def _imported_module(info: ModuleInfo, node: ast.ImportFrom) -> str:
    """Absolute name of the module a ``from ... import`` reads from."""
    if node.level == 0:
        return node.module or ""
    package = info.module.split(".")
    if os.path.basename(info.path) != "__init__.py":
        package = package[:-1]
    package = package[:len(package) - (node.level - 1)]
    return ".".join(package + ([node.module] if node.module else []))


class _Classes:
    """Class lookup across the linted tree, following imports."""

    def __init__(self, project: Project) -> None:
        self.project = project
        self._tables: Dict[int, Dict[str, Function]] = {}

    def find(self, module: str, name: str,
             depth: int = 0) -> Optional[Tuple[ModuleInfo, ast.ClassDef]]:
        """The class ``name`` as seen from ``module``: defined there, or
        imported into it by ``from X import name`` (re-exports included)."""
        info = self.project.get(module)
        if info is None or depth > 8:
            return None
        for stmt in info.tree.body:
            if isinstance(stmt, ast.ClassDef) and stmt.name == name:
                return info, stmt
        for stmt in info.tree.body:
            if isinstance(stmt, ast.ImportFrom):
                for alias in stmt.names:
                    if (alias.asname or alias.name) == name:
                        return self.find(_imported_module(info, stmt),
                                         alias.name, depth + 1)
        return None

    def methods(self, info: ModuleInfo, cls: ast.ClassDef,
                seen: Tuple[int, ...] = ()) -> Dict[str, Function]:
        """Every method ``cls`` has, inherited ones included; class-body
        aliases (``_deliver = _transmit``) name the aliased method."""
        if id(cls) in self._tables:
            return self._tables[id(cls)]
        table: Dict[str, Function] = {}
        if id(cls) not in seen:  # an import cycle ends the walk
            for expr in reversed(cls.bases):
                found = (self.find(info.module, expr.id)
                         if isinstance(expr, ast.Name) else None)
                if found is not None:
                    table.update(self.methods(*found, seen=seen + (id(cls),)))
        for stmt in cls.body:
            if isinstance(stmt, FUNCTIONS):
                table[stmt.name] = stmt
            elif (isinstance(stmt, ast.Assign)
                  and isinstance(stmt.value, ast.Name)
                  and stmt.value.id in table):
                for target in stmt.targets:
                    if isinstance(target, ast.Name):
                        table[target.id] = table[stmt.value.id]
        self._tables[id(cls)] = table
        return table


@register
class RebindSignatureRule(ProjectRule):
    """RL301: rebound methods must keep the original's signature."""

    code = "RL301"
    summary = ("instance-method rebinding changes the method's "
               "signature — callers dispatch through the attribute and "
               "would break on the rebound path only")

    def check_project(self, project: Project) -> Iterable[Violation]:
        classes = _Classes(project)
        for info in project.modules.values():
            for node in ast.walk(info.tree):
                if isinstance(node, ast.ClassDef):
                    yield from self._check_class(
                        info, node, classes.methods(info, node))

    def _check_class(self, info: ModuleInfo, cls: ast.ClassDef,
                     methods: Dict[str, Function]) -> Iterable[Violation]:
        own: List[Function] = [stmt for stmt in cls.body
                               if isinstance(stmt, FUNCTIONS)]
        for method in own:
            #: local function definitions seen so far in this method.
            locals_defs: Dict[str, Function] = {}
            for stmt in ast.walk(method):
                if isinstance(stmt, FUNCTIONS) and stmt is not method:
                    locals_defs[stmt.name] = stmt
                if not isinstance(stmt, ast.Assign):
                    continue
                for target in stmt.targets:
                    original = self._self_attr(target)
                    if original is None or original not in methods:
                        continue
                    rebound = self._rebound_signature(
                        stmt.value, methods, locals_defs)
                    if rebound is None:
                        continue
                    source_name, sig = rebound
                    want = _signature(methods[original].args,
                                      drop_self=True)
                    if sig != want:
                        yield self.violation(
                            info, stmt.lineno, stmt.col_offset,
                            f"self.{original} is rebound to "
                            f"{source_name} with signature "
                            f"{_render(sig)}, but the original method "
                            f"takes {_render(want)} — callers dispatch "
                            f"through self.{original} and would break "
                            f"on the rebound path")

    @staticmethod
    def _self_attr(node: ast.expr) -> Optional[str]:
        if (isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == "self"):
            return node.attr
        return None

    def _rebound_signature(
            self, value: ast.expr, methods: Dict[str, Function],
            locals_defs: Dict[str, Function],
    ) -> Optional[Tuple[str, Tuple]]:
        """Signature of the callable being bound, when it is provable."""
        # self.x = self.y  (method-variant rebinding)
        attr = self._self_attr(value)
        if attr is not None and attr in methods:
            return (f"self.{attr}",
                    _signature(methods[attr].args, drop_self=True))
        # self.x = wrapper  (closure wrapper defined in this method)
        if isinstance(value, ast.Name) and value.id in locals_defs:
            return (f"local function {value.id!r}",
                    _signature(locals_defs[value.id].args,
                               drop_self=False))
        return None
