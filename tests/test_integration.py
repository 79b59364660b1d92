"""End-to-end integration tests.

These tests exercise the whole chain the paper's study implies:
generate traffic -> write an Apache access log to disk -> parse it back ->
run both stand-in tools -> compute the diversity tables -> evaluate the
adjudication schemes against the ground truth.
"""

from __future__ import annotations


from repro.columns import RecordFrame
from repro.core.diversity import diversity_breakdown
from repro.core.experiment import PaperExperiment
from repro.core.framestats import (
    confusion_from_flags,
    evaluate_ensemble_from_frame,
    k_out_of_n,
    per_actor_rates_from_frame,
)
from repro.detectors.commercial import CommercialBotDefenceDetector
from repro.detectors.inhouse import InHouseHeuristicDetector
from repro.detectors.pipeline import DetectionPipeline, run_detectors
from repro.logs.dataset import Dataset
from repro.logs.parser import LogParser
from repro.logs.writer import LogWriter
from repro.traffic.generator import generate_dataset
from repro.traffic.scenarios import amadeus_march_2018, balanced_small, stealth_heavy


class TestLogRoundTripPipeline:
    def test_detectors_see_identical_traffic_after_disk_roundtrip(self, tmp_path, small_dataset):
        """Writing the synthetic data set to disk and re-parsing it must not
        change any detector's verdicts -- the generator output is a real
        Apache access log."""
        path = tmp_path / "access.log"
        LogWriter().write_file(small_dataset.records, str(path))
        reparsed = Dataset(LogParser().parse_file(str(path)))
        assert len(reparsed) == len(small_dataset)

        detector = InHouseHeuristicDetector()
        original_alerts = detector.analyze(small_dataset)
        # Request ids differ (parser assigns r0..rN in file order, which is
        # the same order), so compare positionally.
        reparsed_alerts = detector.analyze(reparsed)
        original_flags = [record.request_id in original_alerts for record in small_dataset]
        reparsed_flags = [record.request_id in reparsed_alerts for record in reparsed]
        assert original_flags == reparsed_flags


class TestPaperPipeline:
    def test_full_experiment_shape_on_calibrated_traffic(self, experiment_result):
        """The calibrated scenario reproduces the structural findings of the
        paper: both tools alert on most traffic, they agree on the bulk of
        it, and each tool has a non-empty exclusive contribution."""
        breakdown = experiment_result.breakdown
        total = breakdown.total
        assert breakdown.both / total > 0.6
        assert breakdown.neither / total > 0.03
        assert breakdown.first_only > 0
        assert breakdown.second_only > 0
        # The commercial tool's exclusive mass exceeds the in-house tool's,
        # as in the paper (Distil-only >> Arcane-only).
        assert breakdown.first_only > breakdown.second_only

    def test_exclusive_alerts_have_different_status_profiles(self, experiment_result):
        """Table 4's qualitative asymmetry: in-house-only alerts are richer in
        204/400/304 probe responses than commercial-only alerts."""
        inhouse_only = experiment_result.exclusive_status_tables["inhouse"]
        commercial_only = experiment_result.exclusive_status_tables["commercial"]
        probe_statuses = ["204 (No content)", "400 (Bad request)", "304 (Not modified)"]
        inhouse_probe_fraction = sum(inhouse_only.fraction_of(s) for s in probe_statuses)
        commercial_probe_fraction = sum(commercial_only.fraction_of(s) for s in probe_statuses)
        assert inhouse_probe_fraction > commercial_probe_fraction

    def test_adjudication_improves_on_single_tools(self, experiment_result):
        union, strict = evaluate_ensemble_from_frame(
            experiment_result.frame, experiment_result.matrix
        )
        singles = experiment_result.tool_evaluations
        assert union.sensitivity >= max(e.sensitivity for e in singles)
        assert strict.specificity >= max(e.specificity for e in singles)

    def test_detection_rate_asymmetry_per_actor_class(self, experiment_result):
        frame, matrix = experiment_result.frame, experiment_result.matrix
        commercial = per_actor_rates_from_frame(frame, matrix.column("commercial"))
        inhouse = per_actor_rates_from_frame(frame, matrix.column("inhouse"))
        assert commercial["stealth_scraper"] > inhouse["stealth_scraper"]
        assert inhouse["probing_scraper"] > commercial["probing_scraper"]
        assert commercial["aggressive_scraper"] > 0.9
        assert inhouse["aggressive_scraper"] > 0.9


class TestAlternativeScenarios:
    def test_stealth_heavy_scenario_widens_the_gap(self):
        """When stealthy scraping dominates, the rule-based tool misses much
        more traffic and the benefit of diversity grows."""
        frame = RecordFrame.from_dataset(generate_dataset(stealth_heavy(total_requests=5000, seed=23)))
        matrix = DetectionPipeline(
            [CommercialBotDefenceDetector(), InHouseHeuristicDetector()]
        ).run_frame(frame).matrix
        breakdown = diversity_breakdown(matrix, "commercial", "inhouse")
        (union,) = evaluate_ensemble_from_frame(frame, matrix, ks=[1])
        inhouse_only = confusion_from_flags(frame.labels, matrix.column("inhouse"))
        assert breakdown.first_only > breakdown.second_only
        assert union.sensitivity > inhouse_only.sensitivity() + 0.2

    def test_three_detector_ensemble(self, small_dataset):
        from repro.detectors.naive_bayes import NaiveBayesRobotDetector

        result = run_detectors(
            small_dataset,
            [CommercialBotDefenceDetector(), InHouseHeuristicDetector(), NaiveBayesRobotDetector()],
        )
        assert result.matrix.n_detectors == 3
        votes = result.matrix.votes_per_request()
        union, majority, unanimous = (
            int(k_out_of_n(votes, k, 3)[1].sum()) for k in (1, 2, 3)
        )
        assert union >= majority >= unanimous

    def test_experiment_is_reproducible(self):
        scenario = balanced_small(total_requests=1200, seed=77)
        first = PaperExperiment().run_on(generate_dataset(scenario))
        second = PaperExperiment().run_on(generate_dataset(scenario))
        assert first.alert_counts == second.alert_counts
        assert first.breakdown.as_dict() == second.breakdown.as_dict()

    def test_full_scale_parameters_exposed(self):
        """The full-size scenario (scale=1.0) has the paper's request budget."""
        scenario = amadeus_march_2018(scale=1.0)
        assert scenario.total_requests == 1_469_744
        assert scenario.window.days == 8
