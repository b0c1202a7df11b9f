"""Hybrid Units Strategy tests: Equation 5 and Fig 9(d)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.hybrid_units import (
    execute_on_pool,
    paper_unit_mix,
    solve_unit_mix,
)
from repro.genome.datasets import NA12878_INTERVAL_MASS


class TestEquation5:
    def test_reproduces_paper_design_point(self):
        """N=2880 over the NA12878 demand mass -> x=(28,20,16,6)."""
        mix = solve_unit_mix(NA12878_INTERVAL_MASS, (16, 32, 64, 128), 2880)
        assert mix == paper_unit_mix()

    def test_budget_exactly_met_for_paper_point(self):
        mix = solve_unit_mix(NA12878_INTERVAL_MASS, (16, 32, 64, 128), 2880)
        assert sum(pe * n for pe, n in mix.items()) == 2880

    def test_budget_never_exceeded(self):
        mix = solve_unit_mix((0.5, 0.3, 0.2), (8, 32, 64), 500)
        assert sum(pe * n for pe, n in mix.items()) <= 500

    def test_zero_mass_interval_gets_no_unit(self):
        mix = solve_unit_mix((1.0, 0.0), (16, 128), 160)
        assert mix[128] == 0

    def test_every_positive_interval_served(self):
        mix = solve_unit_mix((0.97, 0.01, 0.01, 0.01), (16, 32, 64, 128), 512)
        for pe in (16, 32, 64, 128):
            assert mix[pe] >= 1

    def test_validation(self):
        with pytest.raises(ValueError):
            solve_unit_mix((0.5,), (16, 32), 100)
        with pytest.raises(ValueError):
            solve_unit_mix((0.0, 0.0), (16, 32), 100)
        with pytest.raises(ValueError):
            solve_unit_mix((1.0,), (16,), 8)  # budget below largest class
        with pytest.raises(ValueError):
            solve_unit_mix((1.0, -0.1), (16, 32), 100)

    @given(st.lists(st.floats(0.01, 1.0), min_size=2, max_size=5),
           st.integers(1, 6))
    @settings(max_examples=40)
    def test_property_proportionality(self, masses, scale):
        """More mass never means fewer units (within one solution)."""
        classes = tuple(2 ** (4 + i) for i in range(len(masses)))
        budget = sum(classes) * scale * 4
        mix = solve_unit_mix(masses, classes, budget)
        ranked = sorted(zip(masses, classes), reverse=True)
        # exact-solution check: x_i ~ s_i * N / denom within rounding
        denom = sum(p * s for s, p in zip(masses, classes))
        for s, p in ranked:
            exact = s * budget / denom
            assert abs(mix[p] - exact) <= len(masses) + 1


class TestFig9Toy:
    """The Fig 9(d) walk-through: hybrid beats uniform on the toy hits."""

    HITS = (20, 40, 10, 65, 127)
    UNIFORM = (64, 64, 64, 64)
    HYBRID = (16, 16, 32, 64, 128)

    def test_paper_exact_cycle_counts(self):
        """Fig 9(d): 455 cycles uniform vs 257 hybrid, load at cycle 1."""
        uniform = execute_on_pool(self.HITS, self.UNIFORM, load_overhead=1)
        hybrid = execute_on_pool(self.HITS, self.HYBRID, load_overhead=1,
                                 policy="ranked")
        assert uniform.makespan == 455
        assert hybrid.makespan == 257

    def test_uniform_flow_details(self):
        """Figure narration: hit 10 done at 74, hit 20 done at 84."""
        uniform = execute_on_pool(self.HITS, self.UNIFORM, load_overhead=1)
        assert uniform.per_hit_latency[2] == 73   # hit 10: done cycle 74
        assert uniform.per_hit_latency[0] == 83   # hit 20: done cycle 84
        # hit 127 waits for the first free unit, reloaded at cycle 75
        assert uniform.per_hit_latency[4] == 380

    def test_hybrid_loads_all_hits_at_once(self):
        hybrid = execute_on_pool(self.HITS, self.HYBRID, load_overhead=1,
                                 policy="ranked")
        assert len(set(hybrid.per_hit_unit.values())) == 5

    def test_ranked_matches_length_order(self):
        hybrid = execute_on_pool(self.HITS, self.HYBRID, policy="ranked")
        # shortest hit (10) on a 16-PE unit, longest (127) on the 128-PE
        assert self.HYBRID[hybrid.per_hit_unit[2]] == 16
        assert self.HYBRID[hybrid.per_hit_unit[4]] == 128

    def test_greedy_hybrid_still_beats_uniform(self):
        uniform = execute_on_pool(self.HITS, self.UNIFORM)
        hybrid = execute_on_pool(self.HITS, self.HYBRID)
        assert hybrid.makespan < uniform.makespan

    def test_empty_pool_raises(self):
        with pytest.raises(ValueError):
            execute_on_pool(self.HITS, [])

    def test_invalid_hit_raises(self):
        with pytest.raises(ValueError):
            execute_on_pool([0], [16])

    def test_unknown_policy_raises(self):
        with pytest.raises(ValueError):
            execute_on_pool(self.HITS, self.HYBRID, policy="magic")
