"""Web-scraping detectors.

The paper studies two proprietary tools -- a commercial bot-detection
product and an in-house rule engine -- observing the same access logs.
Neither tool is available, so this package implements a family of
detectors covering the detection techniques those tools publicly document,
plus the two composite detectors used as their stand-ins:

* :class:`~repro.detectors.commercial.CommercialBotDefenceDetector`
  ("Distil-like"): browser-fingerprint validation, IP reputation, rate
  limiting and a behavioural session model.
* :class:`~repro.detectors.inhouse.InHouseHeuristicDetector`
  ("Arcane-like"): a transparent rule engine of the kind operations teams
  build in-house.

The individual techniques are also exposed as stand-alone detectors
(rate-limit, IP-reputation, user-agent fingerprint, heuristic rules,
behavioural scoring, naive-Bayes robot classifier, decision-tree crawler
classifier and several unsupervised anomaly detectors) so the extension
experiments can study ensembles with more than two members.
"""

from repro.detectors.base import Detector
from repro.detectors.behavioral import BehavioralSessionDetector, BehaviouralScoreConfig
from repro.detectors.commercial import CommercialBotDefenceDetector
from repro.detectors.crawler_ml import CrawlerDecisionTreeDetector
from repro.detectors.features import FEATURE_NAMES, SessionFeatures, extract_features, feature_matrix
from repro.detectors.fingerprint import UserAgentFingerprintDetector
from repro.detectors.heuristic import (
    ErrorProbeRule,
    HeuristicRuleDetector,
    PathRepetitionRule,
    RateRule,
    RobotsNoAssetRule,
    Rule,
    ScriptedAgentRule,
)
from repro.detectors.inhouse import InHouseHeuristicDetector
from repro.detectors.naive_bayes import NaiveBayesRobotDetector
from repro.detectors.pipeline import DetectionPipeline, run_detectors
from repro.detectors.ratelimit import RateLimitDetector
from repro.detectors.registry import available_detectors, create_detector, register_detector
from repro.detectors.reputation import IPReputationDetector
from repro.detectors.anomaly_detector import AnomalySessionDetector

__all__ = [
    "AnomalySessionDetector",
    "BehaviouralScoreConfig",
    "BehavioralSessionDetector",
    "CommercialBotDefenceDetector",
    "CrawlerDecisionTreeDetector",
    "DetectionPipeline",
    "Detector",
    "ErrorProbeRule",
    "FEATURE_NAMES",
    "HeuristicRuleDetector",
    "IPReputationDetector",
    "InHouseHeuristicDetector",
    "NaiveBayesRobotDetector",
    "PathRepetitionRule",
    "RateLimitDetector",
    "RateRule",
    "RobotsNoAssetRule",
    "Rule",
    "ScriptedAgentRule",
    "SessionFeatures",
    "UserAgentFingerprintDetector",
    "available_detectors",
    "create_detector",
    "extract_features",
    "feature_matrix",
    "register_detector",
    "run_detectors",
]
