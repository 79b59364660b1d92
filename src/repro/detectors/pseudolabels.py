"""Pseudo-labelling of sessions for the self-trained detectors.

The naive-Bayes and decision-tree detectors are supervised models, but at
deployment time no labelled traffic exists (the paper's own data set was
unlabelled).  The standard operational answer is *self-training*: derive
high-confidence pseudo-labels from unambiguous indicators (an obviously
scripted client is a bot; a modest-rate visitor loading assets with
referrers is a person), train on those, and generalise to the ambiguous
middle ground.  This module centralises that pseudo-labelling logic so
both detectors share it and tests can exercise it directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.columns import FeatureMatrix


@dataclass(frozen=True)
class PseudoLabelConfig:
    """Thresholds defining the high-confidence regions."""

    #: A session faster than this is confidently automated.
    bot_rate_rpm: float = 80.0
    bot_min_requests: int = 20
    #: A session with at least this much asset/referrer behaviour and a
    #: modest size is confidently human.
    human_asset_fraction: float = 0.25
    human_referrer_fraction: float = 0.5
    human_max_requests: int = 60
    human_max_rate_rpm: float = 25.0


def pseudo_label_matrix(
    features: "FeatureMatrix", config: PseudoLabelConfig | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Pseudo-label every session of a :class:`~repro.columns.FeatureMatrix`.

    A session is a confident bot (label 1) when its client is scripted or
    headless, or when it is both fast and large; it is a confident human
    (label 0) when it loads assets, sends referrers and stays modest in
    size and rate.  Returns ``(indices, labels)``: the rows that received
    a confident label, in row order, and their 0/1 labels.
    """
    config = config or PseudoLabelConfig()
    rate = features.column("requests_per_minute")
    counts = features.counts
    bot = (
        (features.column("scripted_agent") != 0.0)
        | (features.column("headless_agent") != 0.0)
        | ((rate > config.bot_rate_rpm) & (counts >= config.bot_min_requests))
    )
    human = (
        ~bot
        & (features.column("asset_fraction") >= config.human_asset_fraction)
        & (features.column("referrer_fraction") >= config.human_referrer_fraction)
        & (counts <= config.human_max_requests)
        & (rate <= config.human_max_rate_rpm)
    )
    indices = np.flatnonzero(bot | human)
    return indices.astype(int), bot[indices].astype(int)
