"""One-Cycle Read Allocator tests: equations, microarchitecture, Fig 5."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.allocator import OneCycleReadAllocator, ReadInBatchAllocator


class TestEquations:
    def test_all_idle_initial_allocation(self):
        alloc = OneCycleReadAllocator(num_units=4, total_reads=100)
        result = alloc.allocate([0, 0, 0, 0])
        assert result.assignments == {0: 0, 1: 1, 2: 2, 3: 3}
        assert alloc.offset == 3

    def test_paper_toy_example(self):
        """Fig 5(b) at cycle T1+2: units 1 and 2 idle, offset g=3 ->
        unit 1 gets read 4, unit 2 gets read 5."""
        alloc = OneCycleReadAllocator(num_units=4, total_reads=100)
        alloc.allocate([0, 0, 0, 0])  # reads 0-3, offset -> 3
        result = alloc.allocate([1, 0, 0, 1])
        assert result.assignments == {1: 4, 2: 5}
        assert alloc.offset == 5

    def test_all_busy_allocates_nothing(self):
        alloc = OneCycleReadAllocator(num_units=3, total_reads=10)
        result = alloc.allocate([1, 1, 1])
        assert result.assignments == {}
        assert alloc.offset == -1

    def test_priority_by_index(self):
        alloc = OneCycleReadAllocator(num_units=4, total_reads=10)
        result = alloc.allocate([1, 0, 1, 0])
        # lower index gets lower read index
        assert result.assignments == {1: 0, 3: 1}

    def test_stream_exhaustion(self):
        alloc = OneCycleReadAllocator(num_units=4, total_reads=2)
        result = alloc.allocate([0, 0, 0, 0])
        assert result.assignments == {0: 0, 1: 1}
        assert alloc.exhausted
        assert alloc.allocate([0, 0, 0, 0]).assignments == {}

    def test_status_validation(self):
        alloc = OneCycleReadAllocator(num_units=2, total_reads=5)
        with pytest.raises(ValueError):
            alloc.allocate([0])
        with pytest.raises(ValueError):
            alloc.allocate([0, 2])

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            OneCycleReadAllocator(0, 10)
        with pytest.raises(ValueError):
            OneCycleReadAllocator(4, -1)

    def test_single_cycle_timing_claim(self):
        """Paper: 64-512 units, tree depth 6-9, fits 1 GHz."""
        for units in (64, 128, 256, 512):
            alloc = OneCycleReadAllocator(units, 10)
            assert alloc.popcount_tree.depth in range(6, 10)
            assert alloc.single_cycle_at(1e9)


class TestMicroarchitecture:
    @given(st.integers(2, 64), st.integers(0, 1000))
    @settings(max_examples=60)
    def test_matches_equations(self, num_units, seed):
        """Fig 6's five hardware steps == Equations (1)-(2), always."""
        rng = np.random.RandomState(seed)
        eq = OneCycleReadAllocator(num_units, total_reads=10_000)
        hw = OneCycleReadAllocator(num_units, total_reads=10_000)
        for _ in range(5):
            status = rng.randint(0, 2, size=num_units)
            r_eq = eq.allocate(status)
            r_hw = hw.allocate_microarch(status)
            assert r_eq.assignments == r_hw.assignments
            assert eq.offset == hw.offset

    def test_no_duplicate_reads_ever(self):
        rng = np.random.RandomState(7)
        alloc = OneCycleReadAllocator(8, total_reads=200)
        seen = set()
        for _ in range(50):
            result = alloc.allocate(rng.randint(0, 2, size=8))
            for read in result.assignments.values():
                assert read not in seen
                seen.add(read)

    def test_reads_issued_in_order_without_gaps(self):
        rng = np.random.RandomState(11)
        alloc = OneCycleReadAllocator(8, total_reads=100)
        issued = []
        while not alloc.exhausted:
            result = alloc.allocate(rng.randint(0, 2, size=8))
            issued.extend(sorted(result.assignments.values()))
        assert issued == list(range(100))


class TestReadInBatch:
    def test_batch_only_when_all_idle(self):
        alloc = ReadInBatchAllocator(4, total_reads=10)
        assert alloc.allocate([0, 1, 0, 0]).assignments == {}
        result = alloc.allocate([0, 0, 0, 0])
        assert result.assignments == {0: 0, 1: 1, 2: 2, 3: 3}

    def test_sequential_batches(self):
        alloc = ReadInBatchAllocator(2, total_reads=5)
        assert alloc.allocate([0, 0]).assignments == {0: 0, 1: 1}
        assert alloc.allocate([0, 0]).assignments == {0: 2, 1: 3}
        assert alloc.allocate([0, 0]).assignments == {0: 4}
        assert alloc.exhausted

    def test_wrong_status_length_raises(self):
        with pytest.raises(ValueError):
            ReadInBatchAllocator(2, 4).allocate([0])

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            ReadInBatchAllocator(0, 5)
        with pytest.raises(ValueError):
            ReadInBatchAllocator(2, -1)
