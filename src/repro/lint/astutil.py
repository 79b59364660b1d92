"""Small AST helpers shared by the rule implementations.

Nothing here is rule-specific: dotted-name flattening, a lightweight
per-file import map (enough to resolve ``metric_names.FOO`` back to the
module it came from, without executing anything), and class-body
introspection shortcuts.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Iterator


def dotted_name(node: ast.AST) -> str | None:
    """``a.b.c`` for a Name/Attribute chain, else ``None``."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


@dataclass
class ImportMap:
    """What a module's import statements bind each local name to."""

    #: local alias -> imported module path (``import x.y as z``; also
    #: ``from pkg import mod`` when ``mod`` is a module-looking name).
    modules: dict[str, str] = field(default_factory=dict)
    #: local name -> (module path, original name) for ``from m import n``.
    names: dict[str, tuple[str, str]] = field(default_factory=dict)

    @classmethod
    def of(cls, tree: ast.Module) -> "ImportMap":
        imports = cls()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    imports.modules[alias.asname or alias.name.split(".")[0]] = (
                        alias.name if alias.asname else alias.name.split(".")[0]
                    )
            elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
                for alias in node.names:
                    local = alias.asname or alias.name
                    imports.names[local] = (node.module, alias.name)
                    # ``from repro.obs import names`` binds a module too.
                    imports.modules.setdefault(local, f"{node.module}.{alias.name}")
        return imports

    def resolves_to_module(self, local: str, module_path: str) -> bool:
        """Whether local name ``local`` is (an alias of) ``module_path``."""
        return self.modules.get(local) == module_path

    def imported_from(self, local: str, module_path: str) -> str | None:
        """The original name when ``local`` was imported from ``module_path``."""
        entry = self.names.get(local)
        if entry is not None and entry[0] == module_path:
            return entry[1]
        return None


def module_path_of(rel_path: str) -> str:
    """The dotted module path of a repo-relative source path.

    ``src/repro/obs/names.py`` -> ``repro.obs.names``; paths outside a
    ``src/`` layout drop only the ``.py`` suffix.
    """
    parts = rel_path.split("/")
    if parts and parts[0] == "src":
        parts = parts[1:]
    if parts and parts[-1].endswith(".py"):
        parts[-1] = parts[-1][: -len(".py")]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


def iter_classes(tree: ast.Module) -> Iterator[ast.ClassDef]:
    """Every class definition, including nested ones."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            yield node


def is_dataclass(cls: ast.ClassDef) -> bool:
    """Whether the class carries a ``@dataclass`` / ``@dataclass(...)`` decorator."""
    for decorator in cls.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        name = dotted_name(target)
        if name in ("dataclass", "dataclasses.dataclass"):
            return True
    return False


def dataclass_fields(cls: ast.ClassDef) -> list[tuple[str, ast.AnnAssign]]:
    """``(name, node)`` of every annotated dataclass field in the body.

    ``ClassVar[...]`` annotations are skipped -- they are class state,
    not fields -- as are underscore-private names.
    """
    fields: list[tuple[str, ast.AnnAssign]] = []
    for item in cls.body:
        if not isinstance(item, ast.AnnAssign) or not isinstance(item.target, ast.Name):
            continue
        annotation = item.annotation
        base = annotation.value if isinstance(annotation, ast.Subscript) else annotation
        if dotted_name(base) in ("ClassVar", "typing.ClassVar"):
            continue
        fields.append((item.target.id, item))
    return fields


def string_constants(node: ast.AST) -> set[str]:
    """Every string literal appearing anywhere under ``node``."""
    return {
        child.value
        for child in ast.walk(node)
        if isinstance(child, ast.Constant) and isinstance(child.value, str)
    }


def self_attribute_reads(node: ast.AST) -> set[str]:
    """Every ``self.X`` attribute name read anywhere under ``node``."""
    return {
        child.attr
        for child in ast.walk(node)
        if isinstance(child, ast.Attribute)
        and isinstance(child.value, ast.Name)
        and child.value.id == "self"
    }


def write_targets(stmt: ast.stmt) -> Iterator[ast.expr]:
    """The target expressions a statement writes to (assign/augassign/for...)."""
    if isinstance(stmt, ast.Assign):
        yield from stmt.targets
    elif isinstance(stmt, (ast.AugAssign, ast.AnnAssign)):
        if isinstance(stmt, ast.AnnAssign) and stmt.value is None:
            return
        yield stmt.target
    elif isinstance(stmt, ast.For):
        yield stmt.target


def self_attr_of_target(target: ast.expr) -> str | None:
    """``X`` when ``target`` writes ``self.X`` or ``self.X[...]``, else ``None``."""
    node = target
    if isinstance(node, (ast.Tuple, ast.List)):
        return None  # handled element-wise by callers when needed
    while isinstance(node, ast.Subscript):
        node = node.value
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None
