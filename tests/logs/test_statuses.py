"""Tests for :mod:`repro.logs.statuses`."""

from __future__ import annotations

import pytest

from repro.logs.statuses import STATUS_REGISTRY, describe_status, status_class


class TestStatuses:
    def test_describe_matches_paper_labels(self):
        assert describe_status(200) == "200 (OK)"
        assert describe_status(302) == "302 (Found)"
        assert describe_status(204) == "204 (No content)"
        assert describe_status(400) == "400 (Bad request)"
        assert describe_status(304) == "304 (Not modified)"
        assert describe_status(500) == "500 (Internal Server Error)"
        assert describe_status(404) == "404 (Not found)"
        assert describe_status(403) == "403 (Forbidden)"

    def test_unknown_code_falls_back_to_class(self):
        assert describe_status(299) == "299 (Success)"
        assert describe_status(599) == "599 (Server error)"

    def test_status_class(self):
        assert status_class(204) == 2
        assert status_class(499) == 4

    def test_status_class_rejects_invalid(self):
        with pytest.raises(ValueError):
            status_class(42)

    def test_registry_covers_paper_statuses(self):
        for code in (200, 302, 204, 400, 304, 500, 404, 403):
            assert code in STATUS_REGISTRY
