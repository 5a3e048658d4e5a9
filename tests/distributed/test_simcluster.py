"""Tests for the Table 2 cluster timing model (``benchmarks/cluster_model.py``)."""
from __future__ import annotations

import numpy as np
import pytest

from benchmarks.cluster_model import ScalabilityRow, makespan, scalability_table


class TestSimulatedCluster:
    def test_single_slave_is_serial_sum(self):
        durations = [1.0, 2.0, 3.0]
        assert makespan(durations, 1) == pytest.approx(6.0)

    def test_perfect_split_without_overheads(self):
        # 8 equal tasks over 4 slaves -> exactly 2 rounds.
        assert makespan([1.0] * 8, 4) == pytest.approx(2.0)

    def test_master_dispatch_serialises(self):
        # With huge dispatch cost the master is the bottleneck.
        assert makespan([0.001] * 10, 100, dispatch=1.0) >= 10.0

    def test_slave_speed_scaling(self):
        # Without overheads the makespan is linear in the task durations:
        # slaves twice as fast drain the queue in half the time.
        durations = np.array([4.0, 1.0, 2.5, 3.0])
        assert makespan(durations / 2, 2) == pytest.approx(0.5 * makespan(durations, 2))

    def test_empty_task_list(self):
        assert makespan([], 4, dispatch=1.0, latency=1.0) == 0.0

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            makespan([1.0], 0)
        with pytest.raises(ValueError):
            makespan([-1.0], 2)


class TestScalabilityTable:
    @pytest.fixture
    def durations(self, rng):
        """165 tasks (the paper's 5 t-points x 33 Euler evaluations)."""
        return rng.uniform(2.5, 4.0, size=165)

    def test_reproduces_table2_shape(self, durations):
        """Monotone speedup, decaying efficiency — the qualitative content of
        Table 2 (1.00 / 0.965 / 0.876 / 0.712 in the paper)."""
        rows = scalability_table(durations, (1, 8, 16, 32))
        assert [r.slaves for r in rows] == [1, 8, 16, 32]
        times = [r.time_seconds for r in rows]
        assert times == sorted(times, reverse=True)
        speedups = [r.speedup for r in rows]
        assert speedups[0] == pytest.approx(1.0)
        assert all(np.diff(speedups) > 0)
        efficiencies = [r.efficiency for r in rows]
        assert all(np.diff(efficiencies) < 1e-9)
        assert efficiencies[1] > 0.9          # 8 slaves stay very efficient
        assert 0.45 < efficiencies[3] < 1.0   # 32 slaves lose efficiency to imbalance

    def test_speedup_bounded_by_slave_count(self, durations):
        for row in scalability_table(durations, (2, 4, 8)):
            assert row.speedup <= row.slaves + 1e-9
            assert 0.0 < row.efficiency <= 1.0 + 1e-9

    def test_row_tuple_accessor(self, durations):
        row = scalability_table(durations, (4,))[0]
        assert isinstance(row, ScalabilityRow)
        slaves, time_s, speedup, efficiency = row
        assert slaves == 4 and time_s > 0
        assert (speedup, efficiency) == (row.speedup, row.efficiency)

    def test_invalid_slave_counts(self, durations):
        with pytest.raises(ValueError):
            scalability_table(durations, (0, 4))
