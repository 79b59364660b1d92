"""Golden digests of the online verdict stream.

The stream engine's per-request verdicts are what a gateway acts on, so
they are pinned here as data: every record's per-detector verdict
(alerted, score, reason), the ensemble decision, and the final alert
sets of two replays, plus the enforcement-action sequence of a short
closed-loop defend run.  Each stream is folded into a SHA-256 digest;
the per-detector counts next to it make a mismatch easy to localise.

Regenerate the committed fixture (only when a change to the verdicts is
intended) from the repository root::

    PYTHONPATH=src python -m tests.golden.verdicts --write
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
from typing import Any, Callable

from repro.mitigation.scenarios import build_gateway, defense_population
from repro.mitigation.simulator import ClosedLoopSimulator
from repro.stream import StreamEngine, WindowedAdjudicator, default_online_detectors
from repro.stream.sources import dataset_replay
from repro.traffic.generator import generate_dataset
from repro.traffic.scenarios import balanced_small, stealth_heavy

FIXTURE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "online_verdicts.json")

#: Ensemble rule of the replays: 2 of the 4 detectors within 5 minutes.
ENSEMBLE_K = 2
ENSEMBLE_WINDOW_SECONDS = 300.0


class _Digest:
    """SHA-256 over newline-terminated lines."""

    def __init__(self) -> None:
        self._hash = hashlib.sha256()

    def line(self, text: str) -> None:
        self._hash.update(text.encode("utf-8"))
        self._hash.update(b"\n")

    def hexdigest(self) -> str:
        return self._hash.hexdigest()


def _score(value: float) -> str:
    return repr(float(value))


def replay_digest(dataset) -> dict[str, Any]:
    """Digest every online verdict and final alert of one replay."""
    detectors = default_online_detectors()
    engine = StreamEngine(
        detectors,
        adjudicator=WindowedAdjudicator(
            [detector.name for detector in detectors],
            k=ENSEMBLE_K,
            window_seconds=ENSEMBLE_WINDOW_SECONDS,
        ),
    )
    verdicts = _Digest()
    online = {detector.name: 0 for detector in detectors}
    ensemble = 0
    for record in dataset_replay(dataset):
        for verdict in engine.process(record):
            fields = [verdict.request_id]
            for name, vote in verdict.votes.items():
                fields.append(f"{name}:{int(vote.alerted)}:{_score(vote.score)}:{vote.reason}")
                online[name] += vote.alerted
            fields.append(str(int(verdict.alerted)))
            ensemble += verdict.alerted
            verdicts.line("|".join(fields))
    result = engine.finish()
    final = _Digest()
    for alert_set in result.alert_sets:
        for alert in sorted(alert_set.alerts(), key=lambda alert: alert.request_id):
            final.line(
                f"{alert_set.detector_name}|{alert.request_id}|{_score(alert.score)}|"
                + "|".join(alert.reasons)
            )
    return {
        "records": result.stats.records,
        "sessions_closed": result.stats.sessions_closed,
        "online_alerts": online,
        "ensemble_alerts": ensemble,
        "final_alerts": result.alert_counts(),
        "verdicts_sha256": verdicts.hexdigest(),
        "final_alerts_sha256": final.hexdigest(),
    }


def defend_digest(total_requests: int = 3_000, seed: int = 2018) -> dict[str, Any]:
    """Digest the enforcement-action sequence of a scripted defend run."""
    population, window = defense_population(
        total_requests=total_requests, adaptive=False, seed=seed
    )
    result = ClosedLoopSimulator(population, window, build_gateway(), seed=seed).run()
    actions = _Digest()
    for entry in result.log:
        actions.line(
            f"{entry.request_id}|{entry.action.value}|{entry.reason}|{int(entry.alerted)}|"
            f"{_score(entry.delay_seconds)}|{entry.challenge_passed}"
        )
    return {
        "records": len(result.log),
        "action_counts": dict(sorted(result.log.action_counts().items())),
        "final_alerts": result.stream_result.alert_counts(),
        "actions_sha256": actions.hexdigest(),
    }


#: Fixture key -> the computation that produces it.
CASES: dict[str, Callable[[], dict[str, Any]]] = {
    "balanced_small-3000-seed7": lambda: replay_digest(
        generate_dataset(balanced_small(total_requests=3000, seed=7))
    ),
    "stealth_heavy-4000-seed23": lambda: replay_digest(
        generate_dataset(stealth_heavy(total_requests=4000, seed=23))
    ),
    "defend-scripted-3000-seed2018": defend_digest,
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
