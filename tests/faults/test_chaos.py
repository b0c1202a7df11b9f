"""The chaos harness end-to-end (the same run CI's chaos-smoke gates on)."""

import pytest

from repro.faults.chaos import run_chaos
from repro.faults.plan import FaultPlan, FaultSpec, SITE_CONN_WRITE, CONN_DROP

pytestmark = [pytest.mark.integration, pytest.mark.slow]


def test_ci_default_plan_passes():
    report = run_chaos(plan_name="ci-default", seed=7, requests=24,
                       parallelism=2)
    failed = [inv for inv in report.invariants if not inv.ok]
    assert report.passed, f"invariants failed: {failed}"
    # Every exact-scheduled kind actually fired — the run was a real
    # chaos run, not a quiet one.
    for kind in ("worker_crash", "latency_spike", "conn_drop",
                 "shard_kill"):
        assert report.fired.get(kind, 0) >= 1, f"{kind} never fired"
    # The service survived with exactly-once semantics.
    assert report.chaos["completed"] == 24
    assert report.chaos["dropped"] == 0
    assert report.chaos["retried"] >= 1  # drops forced client retries
    text = report.format()
    assert "PASS" in text and "FAIL" not in text


def test_custom_plan_override():
    """A caller-built plan runs under its own schedule determinism check."""
    plan = FaultPlan(seed=3, name="custom-drops", specs=(
        FaultSpec(CONN_DROP, SITE_CONN_WRITE, at_calls=(2,), param=0.5),))
    report = run_chaos(requests=8, parallelism=1, plan=plan)
    assert report.plan == "custom-drops"
    assert report.seed == 3
    failed = [inv for inv in report.invariants if not inv.ok]
    assert report.passed, f"invariants failed: {failed}"
    assert report.fired.get("conn_drop", 0) >= 1
