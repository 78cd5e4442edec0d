"""Regression tests for WOS truncation and its conservation sanitizer."""

import pytest

from repro.errors import InvariantViolation
from repro.lint import sanitizer
from repro.storage import HistoryRun
from repro.storage.wos import WriteOptimizedStore


def wos_with(epochs):
    wos = WriteOptimizedStore()
    for index, epoch in enumerate(epochs):
        wos.insert(HistoryRun({"k": [index]}, [epoch]))
    return wos


class TestTruncateAfterEpoch:
    def test_drops_only_rows_past_epoch(self):
        wos = wos_with([1, 2, 3, 2, 4])
        with sanitizer.override(True):
            dropped = wos.truncate_after_epoch(2)
        assert dropped == 2
        assert wos.run.epochs == [1, 2, 2]
        assert wos.run.columns == {"k": [0, 1, 3]}
        assert wos.run.delete_epochs == [None] * 3

    def test_empty_wos_is_a_noop(self):
        wos = WriteOptimizedStore()
        with sanitizer.override(True):
            assert wos.truncate_after_epoch(5) == 0
        assert wos.run.columns == {} and wos.run.epochs == []

    def test_all_rows_truncated(self):
        wos = wos_with([7, 8, 9])
        with sanitizer.override(True):
            assert wos.truncate_after_epoch(6) == 3
        assert wos.run.columns == {"k": []} and wos.run.epochs == []

    def test_nothing_truncated_when_all_at_or_below(self):
        wos = wos_with([1, 1, 2])
        with sanitizer.override(True):
            assert wos.truncate_after_epoch(2) == 0
        assert wos.row_count == 3


class TestSanitizer:
    def test_detects_miscounted_drop(self):
        with sanitizer.override(True):
            with pytest.raises(InvariantViolation):
                sanitizer.check_wos_truncate(2, 3, 2, [1, 2])

    def test_detects_surviving_future_row(self):
        with sanitizer.override(True):
            with pytest.raises(InvariantViolation):
                sanitizer.check_wos_truncate(2, 1, 1, [1, 3])

    def test_noop_when_disabled(self):
        with sanitizer.override(False):
            sanitizer.check_wos_truncate(2, 3, 2, [1, 3])  # no raise
