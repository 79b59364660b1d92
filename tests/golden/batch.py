"""Golden digests of the batch detector outputs.

The paper's Tables 1-4 are built from batch alert sets, so those alert
sets are pinned here as data, for three preset scenarios:

* the whole ``tables`` run and the ``evaluate`` run with the
  parallel-vs-serial configuration comparison (which re-runs the tools
  on serially filtered subsets), as a SHA-256 over the canonical JSON of
  ``RunResult.to_dict()`` -- minus ``timings`` and ``telemetry``, which
  are wall-clock, and ``spec``, which echoes the run's options rather
  than its output;
* the full alert set (request ids, ``repr(score)``, reasons) of every
  built-in detector at its defaults, plus a few non-default
  configurations and the stream-replay adapter.

Alert counts sit next to every digest so a mismatch is easy to localise.
Regenerate the committed fixture (only when a change to the outputs is
intended) from the repository root::

    PYTHONPATH=src python -m tests.golden.batch --write
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
from typing import Any, Callable

from repro.detectors.ratelimit import RateLimitDetector
from repro.detectors.registry import create_detector
from repro.detectors.reputation import IPReputationDetector
from repro.detectors.streaming import StreamingDetector
from repro.runspec import RunSpec, TrafficSpec, execute
from repro.runspec.spec import ExecutionSpec
from repro.traffic.generator import generate_dataset
from repro.traffic.scenarios import get_scenario

FIXTURE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "batch_results.json")

#: Preset scenario -> its (scaled-down, seeded) parameters.
PRESETS: dict[str, dict[str, Any]] = {
    "amadeus_march_2018": {"scale": 0.02, "seed": 2018},
    "balanced_small": {"total_requests": 5_000, "seed": 7},
    "stealth_heavy": {"total_requests": 5_000, "seed": 23},
}

#: Every built-in registered detector, judged at its defaults.
BUILTIN_DETECTORS = (
    "commercial",
    "inhouse",
    "rate-limit",
    "ip-reputation",
    "ua-fingerprint",
    "behavioral",
    "naive-bayes",
    "decision-tree",
    "anomaly",
)

#: Non-default configurations whose code paths the defaults skip.
VARIANTS: dict[str, Callable[[], Any]] = {
    "ip-reputation(min_requests_from_prefix=3)": lambda: IPReputationDetector(
        min_requests_from_prefix=3
    ),
    "rate-limit(use_peak_rate=False)": lambda: RateLimitDetector(use_peak_rate=False),
    "StreamingDetector()": StreamingDetector,
}


def _sha256(lines) -> str:
    digest = hashlib.sha256()
    for line in lines:
        digest.update(line.encode("utf-8"))
        digest.update(b"\n")
    return digest.hexdigest()


def run_digest(result) -> dict[str, Any]:
    """Digest a batch ``RunResult`` without its wall-clock and spec echo."""
    payload = result.to_dict()
    for key in ("timings", "telemetry", "spec"):
        payload.pop(key)
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return {
        "alert_counts": dict(sorted(result.alert_counts.items())),
        "sha256": _sha256([canonical]),
    }


def alert_digest(alert_set) -> dict[str, Any]:
    """Digest one alert set: every id, its exact score and its reasons."""
    alerts = sorted(alert_set.alerts(), key=lambda alert: alert.request_id)
    return {
        "alerts": len(alerts),
        "sha256": _sha256(
            f"{alert.request_id}|{alert.score!r}|" + "|".join(alert.reasons)
            for alert in alerts
        ),
    }


def preset_digest(name: str) -> dict[str, Any]:
    """Every pinned batch output of one preset scenario."""
    params = PRESETS[name]
    dataset = generate_dataset(get_scenario(name, **params))
    traffic = TrafficSpec(
        scenario=name,
        scale=params.get("scale"),
        seed=params.get("seed"),
        params={k: v for k, v in params.items() if k not in ("scale", "seed")},
    )
    tables = execute(RunSpec(mode="tables", traffic=traffic), dataset=dataset)
    evaluate = execute(
        RunSpec(
            mode="evaluate",
            traffic=traffic,
            execution=ExecutionSpec(compare_configurations=True),
        ),
        dataset=dataset,
    )
    detectors = {label: create_detector(label) for label in BUILTIN_DETECTORS}
    detectors.update({label: factory() for label, factory in VARIANTS.items()})
    return {
        "records": len(dataset),
        "tables": run_digest(tables),
        "evaluate": run_digest(evaluate),
        "detectors": {
            label: alert_digest(detector.analyze(dataset))
            for label, detector in detectors.items()
        },
    }


#: Fixture key -> the computation that produces it.
CASES: dict[str, Callable[[], dict[str, Any]]] = {
    name: (lambda name=name: preset_digest(name)) for name in PRESETS
}


def load_fixture() -> dict[str, Any]:
    with open(FIXTURE, encoding="utf-8") as handle:
        return json.load(handle)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", action="store_true", help="rewrite the committed fixture")
    args = parser.parse_args()
    computed = {key: case() for key, case in CASES.items()}
    text = json.dumps(computed, indent=2, sort_keys=True) + "\n"
    if args.write:
        with open(FIXTURE, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        print(text, end="")


if __name__ == "__main__":
    main()
