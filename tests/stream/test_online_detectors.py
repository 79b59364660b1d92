"""Unit tests for the online detector ports."""

from __future__ import annotations

import pytest

from repro.columns.frame import epoch_microseconds
from repro.logs.sessionization import Session
from repro.stream.detectors import (
    OnlineAnomalyDetector,
    OnlineFingerprintDetector,
    OnlineInHouseDetector,
    OnlineRateLimitDetector,
    OnlineRequestRateLimiter,
    _SessionRateState,
    default_online_detectors,
)
from repro.stream.engine import StreamEngine
from repro.stream.sessionizer import IncrementalSessionizer
from tests.helpers import (
    BROWSER_UA,
    SCRIPTED_UA,
    make_record,
    make_records,
    make_session,
    session_verdict,
)


def _feed(detector, records):
    """Feed records of one visitor as a growing live session."""
    session = Session(session_id="s0", client_ip=records[0].client_ip, user_agent=records[0].user_agent)
    verdicts = []
    for record in records:
        session.add(record)
        verdicts.append(detector.observe(record, session))
    return session, verdicts


class TestOnlineRequestRateLimiter:
    def test_flags_once_budget_exceeded(self):
        limiter = OnlineRequestRateLimiter(max_requests=10, window_seconds=60, penalty_seconds=0)
        verdicts = [limiter.observe(record) for record in make_records(20, gap_seconds=1)]
        assert not verdicts[5].alerted
        assert verdicts[11].alerted
        assert "exceeds" in verdicts[11].reason

    def test_alerts_are_final_at_observe_time(self):
        limiter = OnlineRequestRateLimiter(max_requests=5, window_seconds=60)
        for record in make_records(10, gap_seconds=1):
            limiter.observe(record)
        alerted = limiter.final_alert_set()
        assert len(alerted) > 0
        assert all(rid.startswith("r") for rid in alerted)

    def test_record_alerts_false_keeps_alert_set_empty(self):
        limiter = OnlineRequestRateLimiter(max_requests=5, window_seconds=60, record_alerts=False)
        verdicts = [limiter.observe(record) for record in make_records(10, gap_seconds=1)]
        assert any(verdict.alerted for verdict in verdicts)
        assert len(limiter.final_alert_set()) == 0

    def test_visitor_window_dropped_at_session_close(self):
        limiter = OnlineRequestRateLimiter(max_requests=5, window_seconds=60, penalty_seconds=0)
        records = make_records(3, gap_seconds=1)
        for record in records:
            limiter.observe(record)
        assert len(limiter._state) == 1
        limiter.on_session_close(make_session(records))
        assert len(limiter._state) == 0

    def test_visitor_window_kept_while_penalty_runs(self):
        limiter = OnlineRequestRateLimiter(max_requests=2, window_seconds=60, penalty_seconds=7200)
        records = make_records(5, gap_seconds=1)
        for record in records:
            limiter.observe(record)
        limiter.on_session_close(make_session(records))
        assert len(limiter._state) == 1  # penalty outlives the session


def _reference_rate(records) -> float:
    """The session rate as the batch feature defines it, from the records' datetimes."""
    if len(records) <= 1:
        return float(len(records))
    moments = sorted(record.timestamp for record in records)
    duration = (moments[-1] - moments[0]).total_seconds()
    return len(records) / max(duration / 60.0, 1.0 / 60.0)


class TestSessionRateState:
    """The rate-limit port's per-session counters (the session's rate, its peak window)."""

    @staticmethod
    def _rates(records):
        state = _SessionRateState()
        rates = []
        for record in records:
            state.update(epoch_microseconds(record.timestamp), 60.0)
            rates.append(state.requests_per_minute())
        return state, rates

    def test_rate_of_an_even_session(self):
        state, rates = self._rates(make_records(7, gap_seconds=10))
        assert rates[-1] == pytest.approx(7.0)
        assert state.count == 7

    def test_single_request_session_rate(self):
        _, rates = self._rates([make_record()])
        assert rates == [1.0]

    def test_rate_is_bit_identical_to_the_datetime_rate(self):
        # Uneven sub-second gaps, a one-second floor and a late arrival
        # that moves the session's first timestamp.
        gaps = [0.0, 0.333333, 0.1, 7.000001, 61.5, 0.000001, 1234.567891]
        records = [make_record(f"r{i}", seconds=sum(gaps[: i + 1])) for i in range(len(gaps))]
        records.append(make_record("late", seconds=-0.25))
        _, rates = self._rates(records)
        assert rates == [_reference_rate(records[: i + 1]) for i in range(len(records))]

    def test_peak_window_counts_the_busiest_minute(self):
        state, _ = self._rates(make_records(5, gap_seconds=1) + [make_record("r9", seconds=500)])
        assert state.peak == 5


class TestOnlineRateLimitDetector:
    def test_provisional_alert_fires_mid_session(self):
        detector = OnlineRateLimitDetector(threshold_rpm=30, min_requests=5)
        _, verdicts = _feed(detector, make_records(30, gap_seconds=0.5, user_agent=BROWSER_UA))
        assert any(verdict.alerted for verdict in verdicts)
        # Final alerts only exist once the session closes.
        assert len(detector.final_alert_set()) == 0

    def test_session_close_matches_batch_judgement(self):
        detector = OnlineRateLimitDetector(threshold_rpm=30, min_requests=5)
        session, _ = _feed(detector, make_records(30, gap_seconds=0.5, user_agent=BROWSER_UA))
        detector.on_session_close(session)
        batch_verdict = session_verdict(detector.batch, session.records)
        assert batch_verdict is not None
        assert detector.final_alert_set().request_ids() == set(session.request_ids())

    def test_slow_session_never_alerted(self):
        detector = OnlineRateLimitDetector(threshold_rpm=60, min_requests=5)
        session, verdicts = _feed(detector, make_records(20, gap_seconds=30, user_agent=BROWSER_UA))
        detector.on_session_close(session)
        assert not any(verdict.alerted for verdict in verdicts)
        assert len(detector.final_alert_set()) == 0

    def test_late_record_closed_by_its_own_sweep_counts_the_whole_session(self):
        # A record more than the timeout behind the watermark lands in its
        # visitor's lingering session, and the eviction sweep it runs
        # closes that session before the detectors observe the record.
        # The vote still judges every record the session holds.
        engine = StreamEngine([OnlineRateLimitDetector()])
        engine.sessionizer = IncrementalSessionizer(eviction_interval=13)
        early = make_records(11, gap_seconds=0.5)
        late = make_record("late", seconds=6.0)
        for record in early + [make_record("other", seconds=40 * 60, ip="10.16.0.2")]:
            engine.process(record)
        (verdict,) = engine.process(late)
        assert engine.sessionizer.open_sessions == 1  # only the other visitor's
        assert verdict.session_id == "s0"
        rate = _reference_rate(early + [late])
        vote = verdict.votes["rate-limit"]
        assert vote.alerted
        assert vote.reason == f"session rate {rate:.0f} req/min exceeds 60"
        assert vote.score == min(1.0, 0.5 + 0.5 * (rate - 60.0) / 60.0)


class TestOnlineFingerprintDetector:
    def test_scripted_agent_flagged_immediately(self):
        detector = OnlineFingerprintDetector()
        verdict = detector.observe(make_record(user_agent=SCRIPTED_UA))
        assert verdict.alerted
        assert "scripted" in verdict.reason
        assert "r0" in detector.final_alert_set()

    def test_browser_agent_passes(self):
        detector = OnlineFingerprintDetector()
        verdict = detector.observe(make_record(user_agent=BROWSER_UA))
        assert not verdict.alerted
        assert len(detector.final_alert_set()) == 0

    def test_rejects_conflicting_construction(self):
        from repro.detectors.fingerprint import UserAgentFingerprintDetector

        with pytest.raises(ValueError):
            OnlineFingerprintDetector(UserAgentFingerprintDetector(), flag_scripted=False)


class TestOnlineInHouseDetector:
    def test_scripted_session_alerted_online_and_at_close(self):
        detector = OnlineInHouseDetector()
        session, verdicts = _feed(detector, make_records(12, gap_seconds=1, user_agent=SCRIPTED_UA))
        assert any(verdict.alerted for verdict in verdicts)
        detector.on_session_close(session)
        assert detector.final_alert_set().request_ids() == set(session.request_ids())

    def test_reevaluates_as_session_doubles(self):
        # A session that only becomes suspicious later must still be
        # caught online once its request count doubles past the change.
        detector = OnlineInHouseDetector()
        slow = make_records(4, gap_seconds=20, user_agent=BROWSER_UA)
        burst = [
            make_record(f"b{i}", seconds=80 + i * 0.2, user_agent=BROWSER_UA)
            for i in range(60)
        ]
        _, verdicts = _feed(detector, slow + burst)
        assert any(verdict.alerted for verdict in verdicts)


class TestOnlineAnomalyDetector:
    def test_refits_and_scores_live_sessions(self):
        detector = OnlineAnomalyDetector(contamination=0.3, refit_interval=4)
        # Close a population of ordinary sessions to give the model a fit.
        for index in range(8):
            records = [
                make_record(f"n{index}-{i}", seconds=i * 20, ip=f"10.0.{index}.1")
                for i in range(6)
            ]
            detector.on_session_close(make_session(records, session_id=f"s{index}"))
        assert detector._live_model is not None

        hammering = [
            make_record(f"x{i}", seconds=i * 0.2, ip="10.9.9.9", path="/search?q=1", status=404)
            for i in range(64)
        ]
        _, verdicts = _feed(detector, hammering)
        assert any(verdict.alerted for verdict in verdicts)

    def test_finalize_alerts_most_anomalous_fraction(self):
        detector = OnlineAnomalyDetector(contamination=0.25, refit_interval=1000)
        total = 0
        for index in range(8):
            # Sessions of increasing pace and error rate, so scores differ.
            records = [
                make_record(
                    f"n{index}-{i}",
                    seconds=i * (20 - 2 * index),
                    ip=f"10.0.{index}.1",
                    status=404 if (index >= 6 and i % 2 == 0) else 200,
                )
                for i in range(4 + index)
            ]
            total += len(records)
            detector.on_session_close(make_session(records, session_id=f"s{index}"))
        detector.finalize()
        alerted = detector.final_alert_set()
        # 25% contamination over 8 distinct sessions: some, never all.
        assert 0 < len(alerted) < total

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            OnlineAnomalyDetector(contamination=0.0)
        with pytest.raises(ValueError):
            OnlineAnomalyDetector(refit_interval=1)


class TestDefaults:
    def test_default_ensemble_covers_four_families(self):
        detectors = default_online_detectors()
        assert [d.name for d in detectors] == ["rate-limit", "ua-fingerprint", "inhouse", "anomaly"]
        assert all(d.describe() for d in detectors)
