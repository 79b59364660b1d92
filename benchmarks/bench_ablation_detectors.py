"""Ablation experiments: which component buys which part of the detection?

DESIGN.md calls out two design choices worth ablating:

* the in-house rule set -- each rule encodes one operational heuristic;
  removing a rule shows which scraper family it is responsible for
  catching,
* the behavioural evidence model of the commercial stand-in -- disabling
  a signal (assets, referrers, timing, ...) shows which behavioural tell
  carries the stealth-scraper detection.

Both ablations run on the calibrated benchmark data set with ground truth,
reporting sensitivity per variant.  There is no corresponding paper table;
these benches justify the reproduction's detector design.
"""

from __future__ import annotations

from dataclasses import replace

from repro.bench.comparison import ShapeCheck
from repro.core.framestats import confusion_from_flags, per_actor_rates_from_frame
from repro.core.reporting import render_evaluation_rows
from repro.detectors.behavioral import BehavioralSessionDetector, BehaviouralScoreConfig
from repro.detectors.heuristic import (
    ErrorProbeRule,
    HeuristicRuleDetector,
    PathRepetitionRule,
    RateRule,
    RobotsNoAssetRule,
    ScriptedAgentRule,
)


def _alert_flags(detector, bench_frame):
    """``detector``'s per-row alert flags over the shared frame triple."""
    return detector.alert_columns(*bench_frame).flags


def _rule_variants():
    """The full in-house rule set and every leave-one-out variant."""
    full = {
        "session-rate": RateRule(),
        "scripted-agent": ScriptedAgentRule(),
        "error-probe": ErrorProbeRule(),
        "robots-no-assets": RobotsNoAssetRule(),
        "path-repetition": PathRepetitionRule(),
    }
    variants = {"full": list(full.values())}
    for dropped in full:
        variants[f"without {dropped}"] = [rule for name, rule in full.items() if name != dropped]
    return variants


def test_ablation_inhouse_rules(benchmark, bench_frame):
    """Leave-one-out ablation of the in-house rule set."""
    variants = _rule_variants()
    frame = bench_frame[0]

    def run_all():
        results = {}
        for name, rules in variants.items():
            detector = HeuristicRuleDetector(rules, name="inhouse-ablation")
            results[name] = _alert_flags(detector, bench_frame)
        return results

    alerted_by_variant = benchmark.pedantic(run_all, rounds=1, iterations=1)

    rows = []
    per_class = {}
    for name, alerted in alerted_by_variant.items():
        confusion = confusion_from_flags(frame.labels, alerted)
        per_class[name] = per_actor_rates_from_frame(frame, alerted)
        rows.append(
            {
                "variant": name,
                "alerts": confusion.predicted_positives,
                "sensitivity": confusion.sensitivity(),
                "specificity": confusion.specificity(),
                "aggressive": per_class[name]["aggressive_scraper"],
                "probing": per_class[name]["probing_scraper"],
            }
        )
    print()
    print(render_evaluation_rows(rows, title="In-house rule set: leave-one-out ablation"))

    check = ShapeCheck("In-house rule ablation shape")
    check.check_greater(
        "dropping the rate rule costs aggressive-scraper coverage",
        per_class["full"]["aggressive_scraper"],
        per_class["without session-rate"]["aggressive_scraper"] + 0.05,
        larger_label="full",
        smaller_label="without session-rate + 0.05",
    )
    check.check_greater(
        "dropping the error-probe rule costs probing-scraper coverage",
        per_class["full"]["probing_scraper"],
        per_class["without error-probe"]["probing_scraper"] + 0.2,
        larger_label="full",
        smaller_label="without error-probe + 0.2",
    )
    full_sensitivity = confusion_from_flags(frame.labels, alerted_by_variant["full"]).sensitivity()
    for name, alerted in alerted_by_variant.items():
        variant_sensitivity = confusion_from_flags(frame.labels, alerted).sensitivity()
        check.add(
            f"{name}: never beats the full rule set on sensitivity",
            variant_sensitivity <= full_sensitivity + 1e-9,
            f"{variant_sensitivity:.4f} vs full {full_sensitivity:.4f}",
        )
    print()
    print(check.report())
    assert check.passed, check.report()


def _behavioural_variants():
    """The full behavioural config, leave-one-out variants and a gutted one.

    The "fingerprint only" variant disables every behavioural signal and
    keeps only the client-fingerprint evidence -- i.e. what a purely
    signature-based product would see.
    """
    base = BehaviouralScoreConfig()
    return {
        "full": base,
        "without asset signal": replace(base, no_assets_weight=0.0),
        "without referrer signal": replace(base, no_referrer_weight=0.0),
        "without timing signal": replace(base, machine_timing_weight=0.0),
        "without volume signal": replace(base, high_volume_weight=0.0),
        "without fingerprint signal": replace(base, fingerprint_weight=0.0),
        "fingerprint only": replace(
            base,
            no_assets_weight=0.0,
            no_referrer_weight=0.0,
            machine_timing_weight=0.0,
            high_volume_weight=0.0,
            coverage_weight=0.0,
            night_weight=0.0,
        ),
    }


def test_ablation_behavioural_signals(benchmark, bench_frame):
    """Signal ablation of the behavioural session model."""
    variants = _behavioural_variants()
    frame = bench_frame[0]

    def run_all():
        results = {}
        for name, config in variants.items():
            detector = BehavioralSessionDetector(config, name="behavioral-ablation")
            results[name] = _alert_flags(detector, bench_frame)
        return results

    alerted_by_variant = benchmark.pedantic(run_all, rounds=1, iterations=1)

    rows = []
    stealth_rates = {}
    for name, alerted in alerted_by_variant.items():
        confusion = confusion_from_flags(frame.labels, alerted)
        rates = per_actor_rates_from_frame(frame, alerted)
        stealth_rates[name] = rates["stealth_scraper"]
        rows.append(
            {
                "variant": name,
                "alerts": confusion.predicted_positives,
                "sensitivity": confusion.sensitivity(),
                "specificity": confusion.specificity(),
                "stealth": rates["stealth_scraper"],
            }
        )
    print()
    print(render_evaluation_rows(rows, title="Behavioural model: signal ablation"))

    check = ShapeCheck("Behavioural signal ablation shape")
    check.check_greater(
        "the full behavioural model catches stealth scraping",
        stealth_rates["full"],
        0.6,
        larger_label="full",
        smaller_label="0.6",
    )
    check.check_greater(
        "behavioural evidence (not fingerprints) carries stealth detection",
        stealth_rates["full"],
        stealth_rates["fingerprint only"] + 0.3,
        larger_label="full",
        smaller_label="fingerprint only + 0.3",
    )
    for name in ("without asset signal", "without referrer signal", "without timing signal", "without volume signal"):
        check.add(
            f"{name}: stealth detection degrades gracefully (within 0.3 of full)",
            stealth_rates[name] >= stealth_rates["full"] - 0.3,
            f"{stealth_rates[name]:.4f} vs full {stealth_rates['full']:.4f}",
        )
    for name, alerted in alerted_by_variant.items():
        confusion = confusion_from_flags(frame.labels, alerted)
        check.add(
            f"{name}: specificity stays high",
            confusion.specificity() > 0.9,
            f"specificity={confusion.specificity():.4f}",
        )
    print()
    print(check.report())
    assert check.passed, check.report()
