"""Tests for memory accounting."""

from repro.utils.memory import track_peak


class TestTrackPeak:
    def test_captures_allocation(self):
        with track_peak() as tracker:
            buffer = bytearray(4 * 1024 * 1024)
            del buffer
        assert tracker.peak_bytes >= 3 * 1024 * 1024
        assert tracker.peak_mib >= 3.0

    def test_nested_tracking(self):
        with track_peak() as outer:
            with track_peak() as inner:
                data = list(range(50_000))
                del data
        assert inner.peak_bytes > 0
        assert outer.peak_bytes >= 0

    def test_no_allocation_near_zero(self):
        with track_peak() as tracker:
            pass
        assert tracker.peak_bytes < 100_000
