"""repro.lint — domain-specific static analysis for this repository.

An AST-based rule engine that *proves* the invariants the rest of the
codebase holds by convention: all randomness flows from the seeded
streams of :mod:`repro.sim.contract` (RL101/RL102/RL105), iteration
order never leaks hash-table order into messages (RL103), the columnar
kernel registry and ``AlgorithmSpec.backends`` agree (RL201), core
modules carry Paper-claim docstrings consistent with the registry
(RL203), and the instance-method-rebinding idiom preserves signatures
(RL301).

Usage::

    repro lint src/                       # CI gate: exit 1 on findings
    repro lint --select RL1 src/          # determinism rules only
    repro lint --format json src/ > lint.json
    repro lint --list-rules

Per-line opt-out (explicit codes only, audited by RL001)::

    risky_call()  # repro: noqa[RL103]

Nothing is ever imported from the checked tree — judgments are made on
the AST and token stream alone, so the linter runs on broken trees and
needs no optional dependencies.
"""

from __future__ import annotations

from .engine import (LintResult, ModuleInfo, Project, discover_files,
                     lint_paths, load_module, module_name)
from .registry import RULES, FileRule, ProjectRule, Rule, all_rules, resolve_rules
from .reporting import (JSON_SCHEMA_VERSION, render_json, render_text,
                        to_json, violations_from_json)
from .violation import Severity, Violation

__all__ = [
    "FileRule", "JSON_SCHEMA_VERSION", "LintResult", "ModuleInfo",
    "Project", "ProjectRule", "RULES", "Rule", "Severity", "Violation",
    "all_rules", "discover_files", "lint_paths", "load_module",
    "module_name", "render_json", "render_text", "resolve_rules",
    "to_json", "violations_from_json",
]
