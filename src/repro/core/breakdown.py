"""Per-dimension breakdowns of alerted requests (Tables 3 and 4).

Table 3 of the paper breaks the alerted requests of each tool down by
HTTP status code; Table 4 repeats the breakdown for the requests alerted
by *only one* of the tools.  :class:`BreakdownTable` holds one such
breakdown; :func:`repro.core.framestats.status_breakdown_from_frame`
computes it from a frame's status column.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping


@dataclass(frozen=True)
class BreakdownTable:
    """Counts of alerted requests along one dimension for one detector."""

    detector: str
    dimension: str
    counts: Mapping[object, int]

    def total(self) -> int:
        """Total number of alerted requests in the table."""
        return sum(self.counts.values())

    def sorted_rows(self) -> list[tuple[object, int]]:
        """Rows sorted by descending count (the paper's presentation order)."""
        return sorted(self.counts.items(), key=lambda item: (-item[1], str(item[0])))

    def top(self, n: int) -> list[tuple[object, int]]:
        """The ``n`` largest rows."""
        return self.sorted_rows()[:n]

    def fraction_of(self, key: object) -> float:
        """Fraction of alerted requests falling in ``key``."""
        total = self.total()
        if total == 0:
            return 0.0
        return self.counts.get(key, 0) / total

    def as_dict(self) -> dict[str, int]:
        """A JSON-friendly representation (keys stringified)."""
        return {str(key): count for key, count in self.sorted_rows()}
