"""Generic name -> factory registries.

Every pluggable component family in the library -- batch detectors,
online detectors, traffic scenarios, enforcement policies -- is
constructed from a :class:`RunSpec <repro.runspec.spec.RunSpec>` by
*name*.  This module provides the one registry implementation they all
share: case-sensitive name -> factory mapping, explicit overwrite
semantics, and lookup errors that carry a did-you-mean suggestion plus
the full list of valid names (always as a :mod:`repro.exceptions` type,
never a bare ``KeyError``).

Third-party code extends a family by registering its own factory::

    from repro.detectors.registry import register_detector

    register_detector("my-detector", MyDetector)

after which ``DetectorSpec(name="my-detector")`` resolves to it.
"""

from __future__ import annotations

import difflib
from typing import Any, Callable, Generic, Iterable, TypeVar

from repro.exceptions import ReproError

T = TypeVar("T")


def suggest(name: str, candidates: Iterable[str]) -> str | None:
    """The closest registered name to ``name``, when one is plausibly meant."""
    matches = difflib.get_close_matches(name, list(candidates), n=1, cutoff=0.6)
    return matches[0] if matches else None


def unknown_name_message(kind: str, name: str, candidates: Iterable[str]) -> str:
    """A lookup-miss message with a did-you-mean hint and the valid names."""
    candidates = sorted(candidates)
    message = f"unknown {kind} {name!r}"
    close = suggest(name, candidates)
    if close is not None:
        message += f" (did you mean {close!r}?)"
    return f"{message}; available: {candidates}"


class Registry(Generic[T]):
    """A name -> factory registry for one component family.

    Parameters
    ----------
    kind:
        Human-readable component kind (``"detector"``, ``"scenario"``,
        ...) used in error messages.
    error_type:
        The :class:`~repro.exceptions.ReproError` subclass raised on
        invalid registrations and failed lookups.
    """

    def __init__(self, kind: str, error_type: type[ReproError] = ReproError) -> None:
        self.kind = kind
        self.error_type = error_type
        self._factories: dict[str, Callable[..., T]] = {}

    # ------------------------------------------------------------------
    def register(self, name: str, factory: Callable[..., T], *, overwrite: bool = False) -> None:
        """Register ``factory`` under ``name``."""
        if not name:
            raise self.error_type(f"{self.kind} registry names must be non-empty")
        if name in self._factories and not overwrite:
            raise self.error_type(f"{self.kind} {name!r} is already registered")
        self._factories[name] = factory

    def names(self) -> list[str]:
        """All registered names, sorted."""
        return sorted(self._factories)

    def __contains__(self, name: str) -> bool:
        return name in self._factories

    def __len__(self) -> int:
        return len(self._factories)

    # ------------------------------------------------------------------
    def get(self, name: str) -> Callable[..., T]:
        """The factory registered under ``name``.

        Raises the registry's error type -- with a did-you-mean
        suggestion and the list of valid names -- when unknown.
        """
        try:
            return self._factories[name]
        except KeyError as exc:
            raise self.error_type(unknown_name_message(self.kind, name, self._factories)) from exc

    def create(self, name: str, **kwargs: Any) -> T:
        """Instantiate the component registered under ``name``."""
        return self.get(name)(**kwargs)
