"""The chaos harness's cluster invariants, end to end.

This is the run CI's chaos cluster smoke gates on: a replicated gateway
cluster under load with plan-scheduled backend SIGKILLs, the supervisor
monitor restarting every victim with the gateway readmitting it (no
manual readmission anywhere), zero lost responses with byte-identical
SAM, and graceful typed-shed degradation under open-loop overload.
"""

import pytest

from repro.faults.chaos import run_chaos

pytestmark = [pytest.mark.integration, pytest.mark.slow]


@pytest.fixture(scope="module")
def cluster_chaos_report():
    return run_chaos(plan_name="cluster-restart", seed=7, requests=24,
                     parallelism=1, cluster_backends=2)


def _invariant(report, name):
    return {inv.name: inv for inv in report.invariants}[name]


def test_backend_kill_zero_loss(cluster_chaos_report):
    report = cluster_chaos_report
    invariant = _invariant(report, "backend_kill_zero_loss")
    assert invariant.ok, invariant.detail
    cluster = report.chaos["cluster"]
    assert cluster["completed"] == 24
    assert cluster["dropped"] == 0 and cluster["errors"] == 0
    # The plan scheduled kills and they landed mid-load.
    assert cluster["kills"], "cluster-restart plan must kill backends"
    assert all(0 < kill["responses_at_kill"] < 24
               for kill in cluster["kills"])


def test_backend_restart_zero_loss(cluster_chaos_report):
    report = cluster_chaos_report
    invariant = _invariant(report, "backend_restart_zero_loss")
    assert invariant.ok, invariant.detail
    cluster = report.chaos["cluster"]
    # The supervisor restarted every victim; nothing was ejected.
    victims = {kill["backend"] for kill in cluster["kills"]}
    for victim in victims:
        state = cluster["supervisor"][victim]
        assert state["restarts"] >= 1
        assert state["alive"] and not state["ejected"]
    # Recovery was gateway-reconciliation driven, and observable.
    assert cluster["backend_restarts"] >= len(victims)
    assert cluster["backend_reconciles"] >= len(victims)


def test_overload_graceful_degradation(cluster_chaos_report):
    report = cluster_chaos_report
    invariant = _invariant(report, "overload_graceful_degradation")
    assert invariant.ok, invariant.detail
    overload = report.chaos["cluster"]["overload"]
    assert overload["dropped"] == 0
    # The burst really overloaded the one-slot backend's queue.
    assert overload["shed"] > 0
    assert overload["peak_queue_depth"] <= 4
    # Everything that wasn't served was shed with a typed code.
    assert overload["completed"] + overload["shed"] == overload["requests"]


def test_plan_with_no_kills_still_gates_zero_loss():
    report = run_chaos(plan_name="none", seed=7, requests=12,
                       parallelism=1, cluster_backends=2)
    invariant = _invariant(report, "backend_kill_zero_loss")
    assert invariant.ok, invariant.detail
    assert "no backend_kill" in invariant.detail
    assert report.chaos["cluster"]["kills"] == []
    # No kills → no restart invariant to gate.
    names = {inv.name for inv in report.invariants}
    assert "backend_restart_zero_loss" not in names
    assert "overload_graceful_degradation" in names
