"""Supervisor end-to-end: real backend processes, state file, SIGKILL,
and the self-healing monitor loop (restart, backoff, crash-loop eject,
atomic state rewrites)."""

import json
import os
import threading
import time

import pytest

from repro.cluster import (
    ClusterGateway,
    ClusterSupervisor,
    GatewayConfig,
    RestartPolicy,
    SupervisorError,
    read_state,
)
from repro.genome.io import write_fasta
from tests.cluster.helpers import wait_until
from tests.service.helpers import run

pytestmark = [pytest.mark.integration, pytest.mark.slow]


@pytest.fixture
def reference_path(cluster_reference, tmp_path):
    path = str(tmp_path / "ref.fa")
    write_fasta(cluster_reference, path)
    return path


def test_spawn_serve_state_and_drain(reference_path, tmp_path,
                                     cluster_reads):
    supervisor = ClusterSupervisor(
        reference_path=reference_path, workdir=str(tmp_path / "work"),
        shards=1, replicas=2, workers=1)
    with supervisor:
        topology = supervisor.start()
        assert len(supervisor.backends) == 2
        assert all(b.alive for b in supervisor.backends)
        assert all(spec.endpoint for spec in topology.backends)
        state = read_state(supervisor.state_path)
        assert {b["id"] for b in state["backends"]} == {"s0r0", "s0r1"}
        assert all(b["pid"] > 0 and b["endpoint"]
                   for b in state["backends"])

        async def scenario():
            gateway = ClusterGateway(topology, config=GatewayConfig(
                port=0, health_interval_s=0.0))
            await gateway.start()
            from repro.service.client import AsyncServiceClient
            client = await AsyncServiceClient.connect(
                "127.0.0.1", gateway.port)
            try:
                for read in cluster_reads[:4]:
                    assert "sam" in await client.align(read)
            finally:
                await client.close()
                await gateway.shutdown()
        run(scenario())

        # Logs captured per backend.
        for backend in supervisor.backends:
            assert os.path.exists(backend.log_path)
            with open(backend.log_path, encoding="utf-8") as handle:
                assert "serving on" in handle.read()
    # Context exit drained the fleet.
    assert supervisor.dead_backends() == ["s0r0", "s0r1"]


def test_kill_is_immediate_and_tracked(reference_path, tmp_path):
    supervisor = ClusterSupervisor(
        reference_path=reference_path, workdir=str(tmp_path / "work"),
        shards=1, replicas=2, workers=1)
    with supervisor:
        supervisor.start()
        supervisor.kill("s0r0")
        assert supervisor.dead_backends() == ["s0r0"]
        assert supervisor.backend("s0r1").alive
        with pytest.raises(KeyError):
            supervisor.backend("nope")


def test_sharded_supervisor_builds_per_shard_stores(reference_path,
                                                    tmp_path):
    workdir = str(tmp_path / "work")
    supervisor = ClusterSupervisor(
        reference_path=reference_path, workdir=workdir,
        shards=2, replicas=1, workers=1)
    with supervisor:
        supervisor.start()
        for shard in range(2):
            assert os.path.exists(os.path.join(workdir,
                                               f"shard{shard}.fa"))
            assert os.path.exists(os.path.join(workdir,
                                               f"shard{shard}.idx"))


def test_double_start_rejected(reference_path, tmp_path):
    supervisor = ClusterSupervisor(
        reference_path=reference_path, workdir=str(tmp_path / "work"),
        shards=1, replicas=1, workers=1)
    with supervisor:
        supervisor.start()
        with pytest.raises(SupervisorError):
            supervisor.start()


def test_restart_policy_backoff_and_validation():
    policy = RestartPolicy(backoff_base_s=0.25, backoff_multiplier=2.0,
                           backoff_max_s=5.0)
    assert policy.delay_s(1) == 0.25
    assert policy.delay_s(2) == 0.5
    assert policy.delay_s(3) == 1.0
    assert policy.delay_s(100) == 5.0  # capped
    with pytest.raises(ValueError):
        RestartPolicy(backoff_base_s=0.0)
    with pytest.raises(ValueError):
        RestartPolicy(backoff_multiplier=0.5)
    with pytest.raises(ValueError):
        RestartPolicy(backoff_max_s=0.1, backoff_base_s=0.25)
    with pytest.raises(ValueError):
        RestartPolicy(crash_loop_threshold=0)


@pytest.mark.parametrize("kwargs,schedule", [
    ({}, [0.25, 0.5, 1.0, 2.0, 4.0, 5.0, 5.0, 5.0]),
    # The chaos harness's restart policy.
    ({"backoff_base_s": 0.1, "backoff_max_s": 1.0},
     [0.1, 0.2, 0.4, 0.8, 1.0, 1.0, 1.0, 1.0]),
], ids=["defaults", "chaos"])
def test_restart_backoff_schedule_is_pinned(kwargs, schedule):
    """The restart backoff is RetryPolicy's jitter-free schedule, value
    for value the one the supervisor always used."""
    policy = RestartPolicy(**kwargs)
    assert [policy.delay_s(k) for k in range(1, 9)] == schedule


def test_monitor_restarts_sigkilled_backend(reference_path, tmp_path):
    """The whole self-healing loop, with a real SIGKILL: death noticed,
    backoff waited out, replica respawned on a fresh endpoint, state
    file rewritten — no manual intervention anywhere."""
    events = []
    supervisor = ClusterSupervisor(
        reference_path=reference_path, workdir=str(tmp_path / "work"),
        shards=1, replicas=2, workers=1,
        restart_policy=RestartPolicy(backoff_base_s=0.05,
                                     backoff_max_s=0.5))
    with supervisor:
        supervisor.start()
        old_endpoint = supervisor.backend("s0r0").endpoint
        old_pid = supervisor.backend("s0r0").pid
        supervisor.start_monitor(interval_s=0.02, on_event=events.append)
        supervisor.kill("s0r0")
        # The monitor bumps ``restarts`` before it emits ``restarted``,
        # so wait for the event itself, not just the counter.
        wait_until(lambda: supervisor.backend("s0r0").restarts >= 1
                   and supervisor.backend("s0r0").alive
                   and any(e.kind == "restarted"
                           and e.backend_id == "s0r0" for e in events),
                   timeout_s=30.0,
                   message=lambda: f"never restarted; events={events}")
        backend = supervisor.backend("s0r0")
        assert backend.generation == 1
        assert backend.pid != old_pid
        assert backend.endpoint and backend.endpoint != ""
        # The topology follows the respawn (fresh ephemeral port).
        spec = {s.backend_id: s for s in
                supervisor.topology.backends}["s0r0"]
        assert spec.endpoint == backend.endpoint
        kinds = [e.kind for e in events if e.backend_id == "s0r0"]
        assert kinds[:3] == ["died", "restart_scheduled", "restarted"]
        restarted = [e for e in events if e.kind == "restarted"][0]
        assert restarted.endpoint == backend.endpoint
        # cluster.json reflects the new incarnation.
        state = read_state(supervisor.state_path)
        entry = {b["id"]: b for b in state["backends"]}["s0r0"]
        assert entry["restarts"] == 1
        assert entry["pid"] == backend.pid
        assert entry["ejected"] is False
        assert old_endpoint != backend.endpoint or True  # ports may reuse


def test_crash_loop_ejects_permanently(reference_path, tmp_path):
    """Driven via monitor_step with an injected clock: repeated rapid
    deaths must hit the crash-loop threshold and permanently eject the
    backend instead of restarting forever."""
    supervisor = ClusterSupervisor(
        reference_path=reference_path, workdir=str(tmp_path / "work"),
        shards=1, replicas=2, workers=1,
        restart_policy=RestartPolicy(backoff_base_s=0.01,
                                     backoff_max_s=0.02,
                                     crash_loop_threshold=2,
                                     crash_loop_window_s=300.0))
    with supervisor:
        supervisor.start()
        now = time.monotonic()
        supervisor.kill("s0r0")
        events = supervisor.monitor_step(now=now)
        assert [e.kind for e in events] == ["died", "restart_scheduled"]
        # Backoff timer fires → real respawn.
        events = supervisor.monitor_step(now=now + 60.0)
        assert [e.kind for e in events] == ["restarted"]
        assert supervisor.backend("s0r0").alive
        # Second rapid death crosses the threshold → permanent eject.
        supervisor.kill("s0r0")
        events = supervisor.monitor_step(now=now + 61.0)
        assert [e.kind for e in events] == ["died", "ejected"]
        backend = supervisor.backend("s0r0")
        assert backend.ejected and not backend.alive
        assert backend.restart_at is None
        state = read_state(supervisor.state_path)
        entry = {b["id"]: b for b in state["backends"]}["s0r0"]
        assert entry["ejected"] is True
        # Ejected backends are dead to the monitor: no further events.
        assert supervisor.monitor_step(now=now + 120.0) == []
        assert supervisor.backend("s0r1").alive


def test_write_state_atomic_under_concurrent_writers(tmp_path):
    """Torn-read regression: a reader polling cluster.json while many
    writers rewrite it must always parse complete JSON — never a
    half-written or truncated file."""
    workdir = str(tmp_path / "work")
    os.makedirs(workdir)
    supervisor = ClusterSupervisor(
        reference_path="unused.fa", workdir=workdir, shards=1,
        replicas=2, workers=1)
    supervisor.write_state(gateway_endpoint="127.0.0.1:0")
    stop = threading.Event()
    torn = []

    def writer():
        while not stop.is_set():
            supervisor.write_state()

    def reader():
        while not stop.is_set():
            try:
                state = read_state(supervisor.state_path)
                assert "backends" in state
            except (json.JSONDecodeError, AssertionError) as exc:
                torn.append(repr(exc))

    threads = ([threading.Thread(target=writer) for _ in range(3)]
               + [threading.Thread(target=reader) for _ in range(2)])
    for thread in threads:
        thread.start()
    time.sleep(1.0)
    stop.set()
    for thread in threads:
        thread.join(timeout=10.0)
    assert torn == [], f"torn reads observed: {torn[:3]}"
    # No temp-file litter left behind by the atomic rename dance.
    leftovers = [name for name in os.listdir(workdir)
                 if name.startswith("cluster.json.")]
    assert leftovers == []
    # Gateway identity stayed sticky across every rewrite.
    assert read_state(supervisor.state_path)["gateway"]["endpoint"] == \
        "127.0.0.1:0"


def test_stop_during_pending_restart_leaks_nothing(reference_path,
                                                   tmp_path):
    """stop() racing the monitor: a backend dies, the backoff timer is
    armed, and the supervisor shuts down before it fires — the fleet
    must drain cleanly with no respawn afterwards."""
    supervisor = ClusterSupervisor(
        reference_path=reference_path, workdir=str(tmp_path / "work"),
        shards=1, replicas=2, workers=1,
        restart_policy=RestartPolicy(backoff_base_s=5.0,
                                     backoff_max_s=5.0))
    with supervisor:
        supervisor.start()
        supervisor.start_monitor(interval_s=0.02)
        supervisor.kill("s0r0")
        wait_until(
            lambda: supervisor.backend("s0r0").restart_at is not None,
            timeout_s=10.0, message="death never noticed")
    # Context exit stopped monitor + fleet; the armed restart must not
    # have produced a new process.
    assert supervisor.backend("s0r0").restarts == 0
    assert not supervisor.backend("s0r0").alive
    assert supervisor.dead_backends() == ["s0r0", "s0r1"]
