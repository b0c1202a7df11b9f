"""Tests for utilization traces and counters."""

import numpy as np
import pytest

from repro.sim.stats import CounterSet, ThroughputResult, UtilizationTrace


class TestUtilizationTrace:
    def test_single_unit_full_busy(self):
        trace = UtilizationTrace(1)
        trace.add(0, 100)
        assert trace.average_utilization(100) == pytest.approx(1.0)

    def test_half_busy(self):
        trace = UtilizationTrace(2)
        trace.add(0, 100)
        assert trace.average_utilization(100) == pytest.approx(0.5)

    def test_window_start(self):
        trace = UtilizationTrace(1)
        trace.add(0, 50)
        assert trace.average_utilization(100, start=50) == 0.0
        assert trace.average_utilization(100, start=0) == pytest.approx(0.5)

    def test_end_before_start_raises(self):
        with pytest.raises(ValueError):
            UtilizationTrace(1).add(5, 4)

    def test_empty_interval_not_recorded(self):
        trace = UtilizationTrace(1)
        trace.add(7, 7)
        assert trace.intervals() == []

    def test_busy_cycles_counts_whole_intervals(self):
        """An interval recorded at dispatch may run past a cut-short run:
        ``busy_cycles`` counts it whole, the window readers clip it."""
        trace = UtilizationTrace(3)
        trace.add(0, 20)
        trace.add(10, 40)
        assert trace.busy_cycles == 20 + 30
        assert trace.average_utilization(20) == pytest.approx(30 / 60)

    def test_series_shape_and_values(self):
        trace = UtilizationTrace(1)
        trace.add(0, 50)
        series = trace.series(100, bins=10)
        assert series.shape == (10,)
        assert np.allclose(series[:5], 1.0)
        assert np.allclose(series[5:], 0.0)

    def test_series_partial_bin(self):
        trace = UtilizationTrace(1)
        trace.add(0, 25)
        series = trace.series(100, bins=2)
        assert series[0] == pytest.approx(0.5)

    def test_series_empty(self):
        assert np.all(UtilizationTrace(4).series(100) == 0)

    def test_series_out_of_order_intervals_not_dropped(self):
        """Regression: an interval ending past the window must not hide
        later-recorded intervals.

        Intervals are recorded in start order, not end order: unit 0 runs
        past the window and is recorded *first*, so its interval precedes
        unit 1's fully-in-window interval in the list.  An old
        ``series()`` broke out of its loop at the first interval with
        ``end > total_cycles`` and silently dropped everything recorded
        after it.
        """
        trace = UtilizationTrace(2)
        trace.add(0, 150)   # recorded first, ends beyond the window
        trace.add(10, 50)   # recorded second, fully inside the window
        series = trace.series(100, bins=10)
        # Unit 1's interval (cycles 10-50) must be present: bins 1-4
        # have both units busy.
        assert np.allclose(series[1:5], 1.0)
        # Unit 0's overlong interval is clipped, not discarded: bins
        # 5-9 still show it busy.
        assert np.allclose(series[5:], 0.5)
        assert series[0] == pytest.approx(0.5)
        # The binned series must agree with the closed-form average.
        assert np.mean(series) == pytest.approx(
            trace.average_utilization(100))

    def test_series_clips_interval_straddling_window_end(self):
        trace = UtilizationTrace(1)
        trace.add(80, 200)
        series = trace.series(100, bins=10)
        assert np.allclose(series[:8], 0.0)
        assert np.allclose(series[8:], 1.0)

    def test_intervals_snapshot(self):
        trace = UtilizationTrace(2)
        trace.add(5, 9)
        trace.add(0, 12)
        assert trace.intervals() == [(5, 9), (0, 12)]
        trace.intervals().append((99, 100))  # copies, does not alias
        assert trace.intervals() == [(5, 9), (0, 12)]

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            UtilizationTrace(0)


class TestCounterSet:
    def test_add_and_get(self):
        counters = CounterSet()
        counters.add("stalls")
        counters.add("stalls", 4)
        assert counters.get("stalls") == 5
        assert counters.get("unknown") == 0
        assert counters.as_dict() == {"stalls": 5}


class TestThroughputResult:
    def test_reads_per_second(self):
        result = ThroughputResult(reads=1000, cycles=1_000_000)
        # 1 Mcycle at 1 GHz = 1 ms -> 1e6 reads/s
        assert result.reads_per_second == pytest.approx(1e6)
        assert result.kreads_per_second == pytest.approx(1000.0)

    def test_zero_cycles(self):
        assert ThroughputResult(reads=10, cycles=0).reads_per_second == 0.0
