"""The in-house-tool stand-in ("Arcane-like" rule detector).

In-house scraping detectors grow out of incident response: every time the
operations team identifies a scraping campaign they add the heuristic
that would have caught it.  The result is a transparent rule set biased
towards the campaigns the team has actually seen -- fast crawlers,
scripted clients, API probing -- and blind to behaviours it has not.

The default configuration combines five rules from
:mod:`repro.detectors.heuristic`:

* a session rate rule (30 requests/minute),
* a scripted-user-agent rule,
* an error/probe rule (400/404 rate, 204 rate, HEAD rate),
* a robots.txt-without-assets rule,
* a path-repetition (endpoint hammering) rule,

with verified search-engine crawlers whitelisted.
"""

from __future__ import annotations

from typing import Sequence

from repro.detectors.heuristic import (
    ErrorProbeRule,
    HeuristicRuleDetector,
    PathRepetitionRule,
    RateRule,
    RobotsNoAssetRule,
    Rule,
    ScriptedAgentRule,
)


def default_rules(
    *,
    rate_threshold_rpm: float = 30.0,
    error_rate_threshold: float = 0.04,
    no_content_threshold: float = 0.06,
    head_threshold: float = 0.08,
) -> list[Rule]:
    """The default in-house rule set."""
    return [
        RateRule(threshold_rpm=rate_threshold_rpm, min_requests=10),
        ScriptedAgentRule(),
        ErrorProbeRule(
            error_rate_threshold=error_rate_threshold,
            no_content_threshold=no_content_threshold,
            head_threshold=head_threshold,
        ),
        RobotsNoAssetRule(),
        PathRepetitionRule(),
    ]


class InHouseHeuristicDetector(HeuristicRuleDetector):
    """The default in-house rule engine (the paper's "Arcane" stand-in)."""

    def __init__(
        self,
        rules: Sequence[Rule] | None = None,
        *,
        name: str = "inhouse",
        rate_threshold_rpm: float = 30.0,
    ) -> None:
        super().__init__(
            list(rules) if rules is not None else default_rules(rate_threshold_rpm=rate_threshold_rpm),
            name=name,
            whitelist_verified_crawlers=True,
        )
