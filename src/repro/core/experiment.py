"""The end-to-end paper experiment.

:class:`PaperExperiment` ties the whole pipeline together: generate (or
accept) a data set, run the two stand-in tools, and produce every table
of the paper plus the Section-V extension analyses.  The benchmarks, the
CLI and the examples all go through this class so there is exactly one
definition of "the experiment".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Mapping, Sequence

from repro.core.alerts import AlertMatrix
from repro.core.breakdown import BreakdownTable
from repro.core.diversity import DiversityBreakdown, diversity_breakdown
from repro.core.evaluation import DetectorEvaluation
from repro.core.framestats import (
    evaluate_ensemble_from_frame,
    evaluate_matrix_from_frame,
    pairwise_diversity_from_frame,
    status_tables_from_frame,
)
from repro.core.metrics import PairwiseDiversity
from repro.core.reporting import (
    render_side_by_side,
    render_status_breakdown,
    render_table1,
    render_table2,
)
from repro.detectors.base import Detector
from repro.detectors.commercial import CommercialBotDefenceDetector
from repro.detectors.inhouse import InHouseHeuristicDetector
from repro.detectors.pipeline import DetectionPipeline
from repro.logs.dataset import Dataset
from repro.traffic.generator import generate_dataset
from repro.traffic.scenarios import Scenario, amadeus_march_2018

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.columns import RecordFrame
    from repro.obs.metrics import MetricsRegistry


@dataclass
class ExperimentResult:
    """Everything the paper experiment produces for one data set.

    Every run carries the columnar ``frame`` it analysed and nothing
    record-shaped, so a trace-sourced experiment never materialises
    record objects.
    """

    #: The columnar data view the tables were computed from.
    frame: "RecordFrame"
    matrix: AlertMatrix
    #: Table 1 -- total requests and per-tool alert counts.
    total_requests: int
    alert_counts: Mapping[str, int]
    #: Table 2 -- pairwise diversity breakdown of the two tools.
    breakdown: DiversityBreakdown
    #: Table 3 -- per-tool status breakdowns of all alerted requests.
    status_tables: Mapping[str, BreakdownTable]
    #: Table 4 -- per-tool status breakdowns of exclusively alerted requests.
    exclusive_status_tables: Mapping[str, BreakdownTable]
    #: Extension: pairwise diversity metrics (kappa, Q, disagreement, ...).
    diversity_metrics: PairwiseDiversity
    #: Extension: labelled evaluation of each tool (when labels exist).
    tool_evaluations: Sequence[DetectorEvaluation] = field(default_factory=list)
    #: Extension: labelled evaluation of the k-out-of-2 adjudications.
    adjudication_evaluations: Sequence[DetectorEvaluation] = field(default_factory=list)
    timings: Mapping[str, float] = field(default_factory=dict)

    # ------------------------------------------------------------------
    def render_table1(self) -> str:
        """The Table 1 reproduction as text."""
        return render_table1(self.total_requests, dict(self.alert_counts))

    def render_table2(self) -> str:
        """The Table 2 reproduction as text."""
        return render_table2(self.breakdown)

    def render_table3(self) -> str:
        """The Table 3 reproduction as text (tools side by side)."""
        names = list(self.status_tables)
        rendered = [render_status_breakdown(self.status_tables[name]) for name in names]
        if len(rendered) == 2:
            return render_side_by_side(rendered[0], rendered[1])
        return "\n\n".join(rendered)

    def render_table4(self) -> str:
        """The Table 4 reproduction as text (tools side by side)."""
        names = list(self.exclusive_status_tables)
        rendered = [
            render_status_breakdown(
                self.exclusive_status_tables[name],
                title=f"Alerted by {name} only, by HTTP status",
            )
            for name in names
        ]
        if len(rendered) == 2:
            return render_side_by_side(rendered[0], rendered[1])
        return "\n\n".join(rendered)

    def render_all(self) -> str:
        """All four tables as one report."""
        return "\n\n".join(
            [self.render_table1(), self.render_table2(), self.render_table3(), self.render_table4()]
        )


class PaperExperiment:
    """Run the paper's analysis (and its Section-V extensions) end to end."""

    def __init__(
        self,
        first_detector: Detector | None = None,
        second_detector: Detector | None = None,
    ) -> None:
        # The commercial stand-in plays Distil's role, the rule engine Arcane's.
        self.first_detector = first_detector or CommercialBotDefenceDetector()
        self.second_detector = second_detector or InHouseHeuristicDetector()

    # ------------------------------------------------------------------
    def run_on(
        self,
        dataset: Dataset,
        *,
        registry: "MetricsRegistry | None" = None,
    ) -> ExperimentResult:
        """Run both tools on an existing data set and compute every table.

        The data set becomes a :class:`~repro.columns.RecordFrame` once
        and runs through :meth:`run_on_frame`.
        ``registry`` (a :class:`~repro.obs.metrics.MetricsRegistry`)
        collects the pipeline's counters and stage timings when given.
        """
        from repro.columns import RecordFrame

        frame = RecordFrame.from_dataset(dataset, registry=registry)
        return self.run_on_frame(frame, registry=registry)

    def run_on_frame(
        self,
        frame: "RecordFrame",
        *,
        workers: int = 1,
        registry: "MetricsRegistry | None" = None,
    ) -> ExperimentResult:
        """Run both tools frame-natively and compute every table from columns.

        The whole analysis -- detection, Tables 1-4, diversity metrics
        and the labelled evaluations -- runs on numpy arrays over the
        frame; no :class:`Dataset` and no per-alert objects are built, so
        a frame streamed from a trace file stays the only copy of the
        data.  With ``workers > 1`` the detectors run sharded across
        processes (see :meth:`~repro.detectors.pipeline.DetectionPipeline.run_frame`).
        """
        from repro.obs.metrics import resolve_registry
        from repro.obs.spans import trace_span

        registry = resolve_registry(registry)
        pipeline = DetectionPipeline(
            [self.first_detector, self.second_detector], registry=registry
        )
        pipeline_result = pipeline.run_frame(frame, workers=workers)
        matrix = pipeline_result.matrix
        first = self.first_detector.name
        second = self.second_detector.name

        with trace_span("analysis", registry):
            breakdown = diversity_breakdown(matrix, first, second)
            status_tables, exclusive_tables = status_tables_from_frame(
                frame, matrix, (first, second)
            )
            metrics = pairwise_diversity_from_frame(frame, matrix, first, second)

            tool_evaluations: list[DetectorEvaluation] = []
            adjudication_evaluations: list[DetectorEvaluation] = []
            if frame.is_labelled:
                tool_evaluations = evaluate_matrix_from_frame(frame, matrix)
                adjudication_evaluations = evaluate_ensemble_from_frame(frame, matrix)

        return ExperimentResult(
            matrix=matrix,
            total_requests=len(frame),
            alert_counts=matrix.alert_counts(),
            breakdown=breakdown,
            status_tables=status_tables,
            exclusive_status_tables=exclusive_tables,
            diversity_metrics=metrics,
            tool_evaluations=tool_evaluations,
            adjudication_evaluations=adjudication_evaluations,
            timings=pipeline_result.timings,
            frame=frame,
        )

    def run_scenario(self, scenario: Scenario | None = None) -> ExperimentResult:
        """Generate the scenario's data set (default: the March-2018 scenario) and run."""
        scenario = scenario or amadeus_march_2018()
        return self.run_on(generate_dataset(scenario))
