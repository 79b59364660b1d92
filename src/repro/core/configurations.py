"""Parallel vs. serial deployment configurations.

Section V of the paper proposes analysing "the trade-offs between false
positives and false negatives when deploying the tools in parallel (both
tools monitor all the traffic) versus serial configurations (one tool
monitors and filters the traffic that need to be also analyzed by the
second tool)".  :func:`compare_configurations` models both for a pair of
tools:

* **parallel** -- both tools analyse all traffic and a k-out-of-2 vote
  (:func:`~repro.core.framestats.k_out_of_n`) combines their verdicts:
  1-out-of-2 maximises detection, 2-out-of-2 minimises false positives,
  and every tool processes every request.
* **serial** -- the first tool analyses everything and *filters* the
  traffic handed to the second tool, which judges only that subset:

  - ``confirm``: the second tool only sees traffic the first tool
    alerted on, and the final alarm requires its confirmation (a serial
    realisation of 2-out-of-2; far fewer requests reach tool 2 when the
    first tool is precise).
  - ``escalate``: the second tool only sees traffic the first tool let
    through, and the final alarm is the union of both tools' alerts (a
    serial realisation of 1-out-of-2; tool 2's workload shrinks when the
    first tool already alerts on most scraping traffic).

Each outcome reports the final alarm as a flag column *and* the workload
(how many requests each tool had to analyse), so the cost/benefit
trade-off the paper describes can be quantified.  Everything is computed
from the columns an experiment already holds: the parallel outcomes are
vote thresholds over the two tools' alert columns, and a serial outcome
re-judges only the forwarded rows of the frame.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np
import numpy.typing as npt

from repro.core.alerts import AlertMatrix
from repro.core.confusion import ConfusionMatrix
from repro.core.framestats import confusion_from_flags, k_out_of_n
from repro.exceptions import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.columns import RecordFrame
    from repro.detectors.base import Detector


@dataclass
class ConfigurationOutcome:
    """The result of one deployment configuration over a frame."""

    name: str
    #: The configuration's final alarm, one flag per frame row.
    flags: npt.NDArray[np.bool_]
    #: Requests each tool had to analyse, keyed by tool name.
    workload: dict[str, int]
    confusion: ConfusionMatrix | None = None

    @property
    def alert_count(self) -> int:
        """Number of requests the configuration alerts on."""
        return int(np.count_nonzero(self.flags))

    @property
    def total_workload(self) -> int:
        """Total requests analysed across all tools (the cost proxy)."""
        return sum(self.workload.values())


@dataclass
class ConfigurationComparison:
    """Outcomes of several configurations over the same frame."""

    outcomes: list[ConfigurationOutcome]

    def by_name(self, name: str) -> ConfigurationOutcome:
        """Look an outcome up by configuration name."""
        for outcome in self.outcomes:
            if outcome.name == name:
                return outcome
        raise ConfigurationError(f"no configuration named {name!r}")

    def names(self) -> list[str]:
        """The configuration names in run order."""
        return [outcome.name for outcome in self.outcomes]


def compare_configurations(
    frame: "RecordFrame", matrix: AlertMatrix, first: "Detector", second: "Detector"
) -> ConfigurationComparison:
    """The standard two-tool configurations over an analysed frame.

    ``matrix`` holds both tools' alert columns over ``frame`` (the
    experiment's matrix).  The comparison covers the parallel 1-out-of-2
    and 2-out-of-2 deployments and the serial confirm/escalate
    deployments in both tool orders.  A serial deployment's second tool
    judges ``frame.take(forwarded_rows)``; it does not run when nothing
    is forwarded.
    """
    total = len(frame)
    labels = frame.labels

    def outcome(
        name: str, flags: npt.NDArray[np.bool_], workload: dict[str, int]
    ) -> ConfigurationOutcome:
        confusion = None if labels is None else confusion_from_flags(labels, flags)
        return ConfigurationOutcome(name, flags, workload, confusion)

    first_flags = matrix.column(first.name)
    second_flags = matrix.column(second.name)
    votes = first_flags.astype(np.int64) + second_flags
    outcomes = [
        outcome(
            f"parallel-{k}oo2",
            k_out_of_n(votes, k, 2)[1],
            {first.name: total, second.name: total},
        )
        for k in (1, 2)
    ]
    for filtering, judging, filtered in (
        (first, second, first_flags),
        (second, first, second_flags),
    ):
        for mode, forwarded in (("confirm", filtered), ("escalate", ~filtered)):
            rows = np.flatnonzero(forwarded)
            judged = np.zeros(total, dtype=bool)
            if len(rows):
                judged[rows] = judging.judge_frame(frame.take(rows)).flags
            final = filtered & judged if mode == "confirm" else filtered | judged
            outcomes.append(
                outcome(
                    f"serial-{mode}({filtering.name}->{judging.name})",
                    final,
                    {filtering.name: total, judging.name: len(rows)},
                )
            )
    return ConfigurationComparison(outcomes)
