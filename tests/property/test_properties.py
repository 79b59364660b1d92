"""Property-based tests (hypothesis) on the core invariants.

These cover the data structures and arithmetic at the heart of the
analysis: the parser/writer round trip, the alert matrix accounting, the
diversity breakdown identities, the adjudication monotonicity and the
confusion-matrix rate bounds.
"""

from __future__ import annotations

from datetime import datetime, timedelta, timezone

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.alerts import AlertMatrix, AlertSet
from repro.core.confusion import ConfusionMatrix
from repro.core.diversity import DiversityBreakdown, diversity_breakdown, multi_detector_breakdown
from repro.core.framestats import k_out_of_n
from repro.core.metrics import cohens_kappa, disagreement_measure, entropy_measure, yules_q
from repro.logs.dataset import Dataset
from repro.logs.parser import parse_line
from repro.logs.record import LogRecord, RequestMethod
from repro.logs.writer import format_record

# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------
_paths = st.one_of(
    st.just("/"),
    st.just("/robots.txt"),
    st.builds(lambda n: f"/offers/{n}", st.integers(0, 9999)),
    st.builds(lambda o, d: f"/search?o={o}&d={d}", st.sampled_from(["PAR", "LIS", "NYC"]), st.sampled_from(["LON", "MAD"])),
    st.builds(lambda n: f"/static/js/bundle-{n}.js", st.integers(0, 50)),
)

_statuses = st.sampled_from([200, 204, 302, 304, 400, 403, 404, 500])

_agents = st.sampled_from(
    [
        "Mozilla/5.0 (Windows NT 10.0; Win64; x64) AppleWebKit/537.36 Chrome/64.0 Safari/537.36",
        "python-requests/2.18.4",
        "curl/7.58.0",
        "",
    ]
)


@st.composite
def log_records(draw, request_id: str = "r0"):
    timestamp = datetime(2018, 3, 11, tzinfo=timezone.utc) + timedelta(seconds=draw(st.integers(0, 8 * 86_400 - 1)))
    return LogRecord(
        request_id=request_id,
        timestamp=timestamp,
        client_ip=f"10.{draw(st.integers(0, 250))}.{draw(st.integers(0, 250))}.{draw(st.integers(1, 250))}",
        method=draw(st.sampled_from([RequestMethod.GET, RequestMethod.POST, RequestMethod.HEAD])),
        path=draw(_paths),
        protocol="HTTP/1.1",
        status=draw(_statuses),
        response_size=draw(st.integers(0, 10_000_000)),
        referrer=draw(st.sampled_from(["", "https://shop.example.com/", "https://www.google.com/"])),
        user_agent=draw(_agents),
    )


@st.composite
def alert_matrices(draw):
    n_requests = draw(st.integers(1, 40))
    n_detectors = draw(st.integers(2, 4))
    records = []
    base = datetime(2018, 3, 11, tzinfo=timezone.utc)
    for i in range(n_requests):
        records.append(
            LogRecord(
                request_id=f"r{i}",
                timestamp=base + timedelta(seconds=i),
                client_ip="10.0.0.1",
                method=RequestMethod.GET,
                path="/",
                protocol="HTTP/1.1",
                status=200,
                response_size=1,
            )
        )
    dataset = Dataset(records)
    alert_sets = []
    for d in range(n_detectors):
        alerts = AlertSet(f"d{d}")
        for i in range(n_requests):
            if draw(st.booleans()):
                alerts.add(f"r{i}")
        alert_sets.append(alerts)
    return dataset, AlertMatrix.from_alert_sets(dataset, alert_sets)


# ----------------------------------------------------------------------
# Parser / writer round trip
# ----------------------------------------------------------------------
@given(log_records())
@settings(max_examples=200, deadline=None)
def test_writer_parser_roundtrip_preserves_fields(record):
    reparsed = parse_line(format_record(record), request_id=record.request_id)
    assert reparsed.client_ip == record.client_ip
    assert reparsed.method == record.method
    assert reparsed.path == record.path
    assert reparsed.status == record.status
    assert reparsed.response_size == record.response_size
    assert reparsed.referrer == record.referrer
    assert reparsed.user_agent == record.user_agent
    assert reparsed.timestamp == record.timestamp


# ----------------------------------------------------------------------
# Alert matrix and diversity breakdown identities
# ----------------------------------------------------------------------
@given(alert_matrices())
@settings(max_examples=60, deadline=None)
def test_pairwise_breakdown_partitions_the_traffic(data):
    _, matrix = data
    first, second = matrix.detector_names[0], matrix.detector_names[1]
    breakdown = diversity_breakdown(matrix, first, second)
    assert breakdown.both + breakdown.neither + breakdown.first_only + breakdown.second_only == matrix.n_requests
    counts = matrix.alert_counts()
    assert breakdown.first_total == counts[first]
    assert breakdown.second_total == counts[second]
    assert 0.0 <= breakdown.agreement_rate() <= 1.0


@given(alert_matrices())
@settings(max_examples=60, deadline=None)
def test_votes_histogram_partitions_the_traffic(data):
    _, matrix = data
    breakdown = multi_detector_breakdown(matrix)
    assert sum(breakdown.votes_histogram.values()) == matrix.n_requests
    assert breakdown.alerted_by_none == breakdown.votes_histogram.get(0, 0)
    assert breakdown.alerted_by_all == breakdown.votes_histogram.get(matrix.n_detectors, 0)
    for name, exclusive in breakdown.exclusive_counts.items():
        assert exclusive <= len(matrix.alerted_by(name))


@given(alert_matrices())
@settings(max_examples=60, deadline=None)
def test_k_out_of_n_is_monotone_in_k(data):
    _, matrix = data
    votes = matrix.votes_per_request()
    previous = None
    for k in range(1, matrix.n_detectors + 1):
        _name, flags = k_out_of_n(votes, k, matrix.n_detectors)
        if previous is not None:
            assert not np.any(flags & ~previous)
        previous = flags
    _name, union = k_out_of_n(votes, 1, matrix.n_detectors)
    assert np.array_equal(union, matrix.values.any(axis=1))


# ----------------------------------------------------------------------
# Metric bounds
# ----------------------------------------------------------------------
_counts = st.integers(0, 10_000)


@given(_counts, _counts, _counts, _counts)
@settings(max_examples=200, deadline=None)
def test_pairwise_metric_bounds(both, neither, first_only, second_only):
    breakdown = DiversityBreakdown("a", "b", both=both, neither=neither, first_only=first_only, second_only=second_only)
    assert -1.000001 <= yules_q(breakdown) <= 1.000001
    assert -1.000001 <= cohens_kappa(breakdown) <= 1.000001
    assert 0.0 <= disagreement_measure(breakdown) <= 1.0
    assert 0.0 <= entropy_measure(breakdown) <= 2.0 + 1e-9


@given(_counts, _counts, _counts, _counts)
@settings(max_examples=200, deadline=None)
def test_confusion_matrix_rate_bounds(tp, fp, tn, fn):
    cm = ConfusionMatrix(true_positives=tp, false_positives=fp, true_negatives=tn, false_negatives=fn)
    for value in (
        cm.sensitivity(),
        cm.specificity(),
        cm.precision(),
        cm.accuracy(),
        cm.f1_score(),
        cm.balanced_accuracy(),
    ):
        assert 0.0 <= value <= 1.0
    assert -1.0 - 1e-9 <= cm.matthews_correlation() <= 1.0 + 1e-9
    assert cm.false_positive_rate() == 1.0 - cm.specificity()
    assert cm.false_negative_rate() == 1.0 - cm.sensitivity()


@given(st.lists(st.tuples(st.booleans(), st.booleans()), min_size=1, max_size=200))
@settings(max_examples=100, deadline=None)
def test_confusion_matrix_matches_manual_count(flags):
    """confusion_from_flags over label/alert columns agrees with direct counting."""
    from repro.core.framestats import confusion_from_flags

    labels = np.array([int(malicious) for malicious, _ in flags], dtype=np.int64)
    alerted = np.array([alert for _, alert in flags], dtype=bool)
    cm = confusion_from_flags(labels, alerted)
    assert cm.total == len(flags)
    assert cm.true_positives == sum(1 for malicious, alert in flags if malicious and alert)
    assert cm.false_positives == sum(1 for malicious, alert in flags if not malicious and alert)
    assert cm.false_negatives == sum(1 for malicious, alert in flags if malicious and not alert)
    assert cm.predicted_positives == int(alerted.sum())


# ----------------------------------------------------------------------
# Anomaly model sanity under arbitrary numeric input
# ----------------------------------------------------------------------
@given(
    st.integers(5, 60),
    st.integers(2, 6),
    st.integers(0, 2**31 - 1),
)
@settings(max_examples=30, deadline=None)
def test_robust_zscore_finite_on_arbitrary_matrices(rows, columns, seed):
    from repro.anomaly import RobustZScoreModel

    rng = np.random.default_rng(seed)
    X = rng.normal(0, 100, size=(rows, columns))
    scores = RobustZScoreModel().fit_score(X)
    assert scores.shape == (rows,)
    assert np.isfinite(scores).all()
    assert (scores >= 0).all()
