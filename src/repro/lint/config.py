"""Lint configuration: which paths each invariant governs.

The defaults describe this repository; ``[tool.repro-lint]`` in
``pyproject.toml`` overrides them (the same config surface the ruff and
mypy gates read), and tests inject a :class:`LintConfig` directly to
point the project rules at fixture trees.

All paths are POSIX-style and relative to the lint root; a file is in
scope for a path list when its relative path starts with one of the
entries (an empty list disables the scope check entirely -- every file
matches).
"""

from __future__ import annotations

import tomllib
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import Any, Mapping

from repro.exceptions import LintError

#: The paper's correctness guarantees are about the engines: seeded
#: determinism (REP001) applies to everything that computes results.
DEFAULT_ENGINE_PATHS = (
    "src/repro/core",
    "src/repro/detectors",
    "src/repro/stream",
    "src/repro/columns",
    "src/repro/traffic",
)

#: Exception hygiene (REP007's swallowed-``except`` check) additionally
#: covers the persistence and enforcement layers -- anywhere an eaten
#: error could silently change results.
DEFAULT_EXCEPTION_PATHS = DEFAULT_ENGINE_PATHS + (
    "src/repro/trace",
    "src/repro/mitigation",
    "src/repro/runstore",
    "src/repro/runspec",
    "src/repro/obs",
)


@dataclass(frozen=True)
class LintConfig:
    """Everything :func:`repro.lint.engine.run_lint` needs besides a root."""

    #: Directories (or files) scanned for Python sources.
    roots: tuple[str, ...] = ("src/repro",)
    #: Baseline file of accepted legacy findings (``None`` = no baseline).
    baseline: str | None = "lint-baseline.json"
    #: Rule ids to run; empty means every registered rule.
    select: tuple[str, ...] = ()
    #: Rule ids to skip.
    ignore: tuple[str, ...] = ()
    #: REP001 determinism scope.
    deterministic_paths: tuple[str, ...] = DEFAULT_ENGINE_PATHS
    #: REP006 lock-guard scope (threaded classes).
    lock_paths: tuple[str, ...] = ("src/repro",)
    #: REP007 swallowed-exception scope (bare ``except:`` is flagged
    #: everywhere regardless).
    exception_paths: tuple[str, ...] = DEFAULT_EXCEPTION_PATHS
    #: REP002: the module defining the metric-name catalogue.
    metric_catalogue: str = "src/repro/obs/names.py"
    #: REP008: the module defining ``ExecutionSpec`` ...
    spec_module: str = "src/repro/runspec/spec.py"
    #: ... and the CLI module every field must be reachable from.
    cli_module: str = "src/repro/cli.py"

    def matches(self, rel_path: str, prefixes: tuple[str, ...]) -> bool:
        """Whether ``rel_path`` falls under one of ``prefixes``."""
        if not prefixes:
            return True
        return any(rel_path == p or rel_path.startswith(p.rstrip("/") + "/") for p in prefixes)


def _coerce(name: str, value: Any, default: Any) -> Any:
    if isinstance(default, tuple):
        if not isinstance(value, (list, tuple)) or not all(isinstance(v, str) for v in value):
            raise LintError(f"[tool.repro-lint] {name} must be a list of strings")
        return tuple(value)
    if default is None or isinstance(default, str):
        if value is not None and not isinstance(value, str):
            raise LintError(f"[tool.repro-lint] {name} must be a string")
        return value
    raise LintError(f"[tool.repro-lint] {name} has unsupported type")  # pragma: no cover


def load_config(root: str | Path, *, pyproject: str | Path | None = None) -> LintConfig:
    """The lint configuration of a project root.

    Reads ``[tool.repro-lint]`` from ``pyproject.toml`` under ``root``
    (or an explicit ``pyproject`` path); keys use dashes or underscores
    interchangeably.  Unknown keys are rejected with the valid set, the
    same strictness the run-spec loader applies.
    """
    config = LintConfig()
    path = Path(pyproject) if pyproject is not None else Path(root) / "pyproject.toml"
    if not path.is_file():
        return config
    try:
        with open(path, "rb") as handle:
            data = tomllib.load(handle)
    except (OSError, tomllib.TOMLDecodeError) as exc:
        raise LintError(f"cannot read {path}: {exc}") from exc
    section = data.get("tool", {}).get("repro-lint", {})
    if not isinstance(section, Mapping):
        raise LintError("[tool.repro-lint] must be a table")
    known = {f.name: getattr(config, f.name) for f in fields(LintConfig)}
    updates: dict[str, Any] = {}
    for raw_key, value in section.items():
        key = raw_key.replace("-", "_")
        if key not in known:
            raise LintError(
                f"unknown [tool.repro-lint] key {raw_key!r}; expected one of "
                f"{sorted(k.replace('_', '-') for k in known)}"
            )
        updates[key] = _coerce(raw_key, value, known[key])
    return replace(config, **updates)


def replace_baseline(config: LintConfig, baseline: str | None) -> LintConfig:
    """``config`` with its baseline path swapped (CLI flag overrides)."""
    return replace(config, baseline=baseline)


__all__ = [
    "LintConfig",
    "load_config",
    "replace_baseline",
    "DEFAULT_ENGINE_PATHS",
    "DEFAULT_EXCEPTION_PATHS",
]
