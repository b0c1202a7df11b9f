"""Process supervision for `repro cluster`: spawn, watch, heal, drain.

The supervisor owns the backend fleet as real OS processes — each one a
stock ``python -m repro serve`` on an ephemeral port — because the whole
point of the tier is surviving backend *death*, and only a separate
process can actually be SIGKILLed.  The gateway runs in the supervisor's
own process (one event loop, no extra hop for the front door).

Startup sequence per backend:

1. materialize the backend's serving inputs in ``workdir`` — replicated
   mode reuses the full reference (and index store) for every backend;
   sharded mode writes one FASTA per shard via :func:`~repro.cluster.
   topology.shard_reference` and builds/attaches a per-shard index
   store, so every replica of a shard mmap-attaches one physical copy;
2. spawn ``repro serve --port 0`` with stdout tee'd to
   ``workdir/<backend_id>.log``;
3. poll the log for the ``serving on HOST:PORT`` line (the server
   prints it exactly once, after binding) to learn the endpoint.

Self-healing: :meth:`ClusterSupervisor.start_monitor` runs a background
loop that notices backend death and respawns the replica with
exponential backoff.  A backend that keeps dying — ``crash_loop_
threshold`` deaths inside ``crash_loop_window_s`` — is permanently
ejected instead of restarted forever (the supervisor emits an
``ejected`` event so the gateway can raise an alert metric).  Every
membership change rewrites the state file atomically.

The state file (``workdir/cluster.json``) records every backend's pid +
endpoint so out-of-process tooling — the CI chaos step, an operator —
can SIGKILL a specific backend mid-load without asking the supervisor.
"""

from __future__ import annotations

import json
import os
import re
import signal
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from repro.cluster.topology import ClusterTopology, shard_reference
from repro.faults.retry import RetryPolicy
from repro.genome.io import read_reference, write_fasta
from repro.genome.reference import ReferenceGenome

_ENDPOINT_RE = re.compile(r"serving on ([\w./:-]+:\d+|unix:\S+)")

#: How long a spawned backend may take to print its endpoint.
DEFAULT_SPAWN_TIMEOUT_S = 60.0


class SupervisorError(RuntimeError):
    """A backend failed to spawn, bind, or announce its endpoint."""


@dataclass(frozen=True)
class RestartPolicy:
    """When and how hard to try bringing a dead backend back.

    The k-th death inside the crash-loop window waits
    ``backoff_base_s * backoff_multiplier**(k-1)`` (capped at
    ``backoff_max_s``) before the respawn attempt — the jitter-free
    :class:`~repro.faults.retry.RetryPolicy` schedule; hitting
    ``crash_loop_threshold`` deaths inside ``crash_loop_window_s``
    permanently ejects the backend instead — a replica that cannot hold
    a process up is capacity the ring is better off without.
    """

    backoff_base_s: float = 0.25
    backoff_multiplier: float = 2.0
    backoff_max_s: float = 5.0
    crash_loop_threshold: int = 5
    crash_loop_window_s: float = 30.0
    _backoff: RetryPolicy = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        # RetryPolicy validates the multiplier; a restart schedule also
        # needs a real first wait and a cap that does not undercut it.
        if self.backoff_base_s <= 0:
            raise ValueError("backoff_base_s must be > 0")
        if self.backoff_max_s < self.backoff_base_s:
            raise ValueError("backoff_max_s must be >= backoff_base_s")
        if self.crash_loop_threshold < 1:
            raise ValueError("crash_loop_threshold must be >= 1")
        if self.crash_loop_window_s <= 0:
            raise ValueError("crash_loop_window_s must be > 0")
        object.__setattr__(self, "_backoff", RetryPolicy(
            base_delay_s=self.backoff_base_s,
            multiplier=self.backoff_multiplier,
            max_delay_s=self.backoff_max_s, jitter=0.0))

    def delay_s(self, recent_deaths: int) -> float:
        """Backoff before the respawn following the n-th recent death."""
        return self._backoff.delay_for(max(0, recent_deaths - 1))


@dataclass(frozen=True)
class SupervisorEvent:
    """One membership transition observed by the monitor loop.

    ``kind`` is one of ``died`` (process exit noticed),
    ``restart_scheduled`` (backoff timer armed), ``restarted`` (new
    process bound; ``endpoint`` carries the fresh address),
    ``restart_failed`` (respawn attempt itself died), ``ejected``
    (crash loop — the backend is permanently out).
    """

    kind: str
    backend_id: str
    endpoint: str = ""
    detail: str = ""


@dataclass
class BackendProcess:
    """One spawned backend: identity + OS process + serving endpoint."""

    backend_id: str
    shard: int
    replica: int
    process: subprocess.Popen
    log_path: str
    endpoint: str = ""
    generation: int = 0
    restarts: int = 0
    ejected: bool = False
    death_times: List[float] = field(default_factory=list)
    restart_at: Optional[float] = None

    @property
    def pid(self) -> int:
        return self.process.pid

    @property
    def alive(self) -> bool:
        return not self.ejected and self.process.poll() is None


@dataclass
class ClusterSupervisor:
    """Spawns and supervises the backend fleet for one cluster.

    Args:
        reference_path: FASTA every backend (or shard) serves.
        workdir: scratch directory for shard FASTAs, index stores,
            backend logs, and the state file.
        shards / replicas: cluster shape (see :mod:`~repro.cluster.
            topology`).
        index_path: prebuilt full-reference index store; used directly
            in replicated mode, ignored in sharded mode (shards need
            per-shard stores, built here).
        build_indexes: build/attach per-backend index stores so workers
            mmap instead of rebuilding (sharded mode always builds its
            shard stores; this also covers replicated mode when no
            ``index_path`` was given).
        workers / max_batch / max_wait_ms / queue_depth: forwarded to
            each backend.
        spawn_timeout_s: per-backend deadline for the endpoint line.
        restart_policy: backoff/crash-loop knobs for the monitor loop.
    """

    reference_path: str
    workdir: str
    shards: int = 1
    replicas: int = 3
    index_path: Optional[str] = None
    build_indexes: bool = True
    workers: int = 2
    max_batch: int = 64
    max_wait_ms: float = 2.0
    queue_depth: int = 1024
    spawn_timeout_s: float = DEFAULT_SPAWN_TIMEOUT_S
    restart_policy: RestartPolicy = field(default_factory=RestartPolicy)
    backends: List[BackendProcess] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.topology = ClusterTopology(shards=self.shards,
                                        replicas=self.replicas)
        self._reference: Optional[ReferenceGenome] = None
        self._inputs: Dict[int, Dict[str, Optional[str]]] = {}
        self._gateway_endpoint = ""
        self._gateway_pid: Optional[int] = None
        self._state_lock = threading.Lock()
        self._monitor_lock = threading.Lock()
        self._monitor_thread: Optional[threading.Thread] = None
        self._monitor_stop = threading.Event()
        self._on_event: Optional[Callable[[SupervisorEvent], None]] = None
        self._stopping = False

    @property
    def reference(self) -> ReferenceGenome:
        if self._reference is None:
            self._reference = read_reference(self.reference_path)
        return self._reference

    # ------------------------------------------------------------------ #
    # Materializing per-shard inputs
    # ------------------------------------------------------------------ #

    def _shard_inputs(self, shard: int) -> Dict[str, Optional[str]]:
        """The ``--reference``/``--index`` paths backend(s) of ``shard``
        serve, materializing shard FASTAs and index stores on demand."""
        if self.topology.shards == 1:
            index = self.index_path
            if index is None and self.build_indexes:
                index = os.path.join(self.workdir, "replica.idx")
                self._ensure_store(index, self.reference)
            return {"reference": self.reference_path, "index": index}
        fasta = os.path.join(self.workdir, f"shard{shard}.fa")
        sub = shard_reference(self.reference, self.topology.shards, shard)
        if not os.path.exists(fasta):
            write_fasta(sub, fasta)
        index: Optional[str] = None
        if self.build_indexes:
            index = os.path.join(self.workdir, f"shard{shard}.idx")
            self._ensure_store(index, sub)
        return {"reference": fasta, "index": index}

    @staticmethod
    def _ensure_store(path: str, reference: ReferenceGenome) -> None:
        from repro.seeding.store import attach_or_build

        attach_or_build(path, reference,
                        source=os.path.basename(path))

    # ------------------------------------------------------------------ #
    # Spawning
    # ------------------------------------------------------------------ #

    def start(self) -> ClusterTopology:
        """Spawn every backend; the topology with endpoints filled in."""
        if self.backends:
            raise SupervisorError("cluster already started")
        os.makedirs(self.workdir, exist_ok=True)
        inputs = {shard: self._shard_inputs(shard)
                  for shard in range(self.topology.shards)}
        self._inputs = inputs
        try:
            for spec in self.topology.backends:
                self.backends.append(
                    self._spawn(spec.backend_id, spec.shard, spec.replica,
                                inputs[spec.shard]))
            deadline = time.monotonic() + self.spawn_timeout_s
            for backend in self.backends:
                backend.endpoint = self._await_endpoint(backend, deadline)
        except Exception:
            self.stop(graceful=False)
            raise
        endpoints = {b.backend_id: b.endpoint for b in self.backends}
        self.topology = self.topology.with_endpoints(endpoints)
        self.write_state()
        return self.topology

    def _spawn(self, backend_id: str, shard: int, replica: int,
               inputs: Dict[str, Optional[str]]) -> BackendProcess:
        cmd = [sys.executable, "-m", "repro", "serve",
               "--reference", str(inputs["reference"]),
               "--port", "0",
               "--workers", str(self.workers),
               "--max-batch", str(self.max_batch),
               "--max-wait-ms", str(self.max_wait_ms),
               "--queue-depth", str(self.queue_depth),
               "--stats-interval", "0"]
        if inputs["index"]:
            cmd += ["--index", str(inputs["index"])]
        log_path = os.path.join(self.workdir, f"{backend_id}.log")
        # The child must import the same repro package we are running,
        # whether or not the parent was launched with PYTHONPATH set.
        import repro

        pkg_root = os.path.dirname(os.path.dirname(
            os.path.abspath(repro.__file__)))
        env = dict(os.environ)
        existing = env.get("PYTHONPATH", "")
        env["PYTHONPATH"] = (pkg_root + os.pathsep + existing
                             if existing else pkg_root)
        log = open(log_path, "wb")
        try:
            process = subprocess.Popen(cmd, stdout=log,
                                       stderr=subprocess.STDOUT,
                                       stdin=subprocess.DEVNULL,
                                       env=env)
        finally:
            # The child holds its own descriptor; ours would only leak.
            log.close()
        return BackendProcess(backend_id=backend_id, shard=shard,
                              replica=replica, process=process,
                              log_path=log_path)

    def _await_endpoint(self, backend: BackendProcess,
                        deadline: float) -> str:
        """Poll the backend's log for its ``serving on`` line."""
        while time.monotonic() < deadline:
            if not backend.alive:
                raise SupervisorError(
                    f"backend {backend.backend_id} exited with "
                    f"{backend.process.returncode} before binding "
                    f"(see {backend.log_path})")
            try:
                with open(backend.log_path, "r", encoding="utf-8",
                          errors="replace") as handle:
                    match = _ENDPOINT_RE.search(handle.read())
            except FileNotFoundError:
                match = None
            if match:
                return match.group(1)
            time.sleep(0.05)
        raise SupervisorError(
            f"backend {backend.backend_id} did not announce an endpoint "
            f"within {self.spawn_timeout_s}s (see {backend.log_path})")

    # ------------------------------------------------------------------ #
    # State + control
    # ------------------------------------------------------------------ #

    @property
    def state_path(self) -> str:
        return os.path.join(self.workdir, "cluster.json")

    def write_state(self, gateway_endpoint: Optional[str] = None,
                    gateway_pid: Optional[int] = None) -> str:
        """Write ``cluster.json`` so external tooling can find/kill us.

        Atomic on every call, not just the initial spawn: the payload
        lands in a uniquely named temp file in the same directory
        (``mkstemp``, so concurrent writers never truncate each other),
        is fsynced, then ``os.replace``d over the live path — a reader
        polling the file mid-restart sees either the old state or the
        new one, never a torn half-write.  Gateway identity is sticky:
        pass it once, every later membership rewrite preserves it.
        """
        with self._state_lock:
            if gateway_endpoint is not None:
                self._gateway_endpoint = gateway_endpoint
            if gateway_pid is not None:
                self._gateway_pid = gateway_pid
            state: Dict[str, Any] = {
                "gateway": {"endpoint": self._gateway_endpoint,
                            "pid": self._gateway_pid or os.getpid()},
                "shards": self.topology.shards,
                "replicas": self.topology.replicas,
                "backends": [
                    {"id": b.backend_id, "shard": b.shard,
                     "replica": b.replica, "pid": b.pid,
                     "endpoint": b.endpoint, "log": b.log_path,
                     "generation": b.generation, "restarts": b.restarts,
                     "ejected": b.ejected}
                    for b in self.backends
                ],
            }
            fd, tmp = tempfile.mkstemp(dir=self.workdir,
                                       prefix="cluster.json.",
                                       suffix=".tmp")
            try:
                with os.fdopen(fd, "w", encoding="utf-8") as handle:
                    json.dump(state, handle, indent=2)
                    handle.flush()
                    os.fsync(handle.fileno())
                os.replace(tmp, self.state_path)
            except BaseException:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
                raise
            return self.state_path

    def backend(self, backend_id: str) -> BackendProcess:
        for backend in self.backends:
            if backend.backend_id == backend_id:
                return backend
        raise KeyError(f"no backend {backend_id!r}")

    def dead_backends(self) -> List[str]:
        return [b.backend_id for b in self.backends if not b.alive]

    def kill(self, backend_id: str) -> None:
        """SIGKILL one backend (chaos/CI: simulate sudden death)."""
        backend = self.backend(backend_id)
        if backend.alive:
            backend.process.kill()
            backend.process.wait()

    # ------------------------------------------------------------------ #
    # Self-healing monitor
    # ------------------------------------------------------------------ #

    def monitor_step(self, now: Optional[float] = None
                     ) -> List[SupervisorEvent]:
        """One pass of the death-watch/restart state machine.

        Pure-ish and re-entrant-safe: callable from the background
        monitor thread or directly from tests (``now`` is injectable so
        backoff arithmetic is testable without sleeping).  Returns the
        membership events this pass produced; any event also triggers an
        atomic state-file rewrite.
        """
        events: List[SupervisorEvent] = []
        if self._stopping:
            return events
        with self._monitor_lock:
            if now is None:
                now = time.monotonic()
            for backend in self.backends:
                if backend.ejected or backend.alive:
                    continue
                if backend.restart_at is None:
                    # Freshly observed death: record it, then either
                    # eject (crash loop) or arm the backoff timer.
                    code = backend.process.returncode
                    backend.death_times.append(now)
                    self._prune_deaths(backend, now)
                    events.append(SupervisorEvent(
                        "died", backend.backend_id,
                        detail=f"exit code {code}"))
                    events.extend(self._schedule_or_eject(backend, now))
                    continue
                if now < backend.restart_at:
                    continue
                events.extend(self._attempt_restart(backend, now))
        if events:
            self.write_state()
        for event in events:
            self._emit(event)
        return events

    def _prune_deaths(self, backend: BackendProcess, now: float) -> None:
        window = self.restart_policy.crash_loop_window_s
        backend.death_times = [t for t in backend.death_times
                               if now - t <= window]

    def _schedule_or_eject(self, backend: BackendProcess,
                           now: float) -> List[SupervisorEvent]:
        policy = self.restart_policy
        recent = len(backend.death_times)
        if recent >= policy.crash_loop_threshold:
            backend.ejected = True
            backend.restart_at = None
            return [SupervisorEvent(
                "ejected", backend.backend_id,
                detail=(f"{recent} deaths within "
                        f"{policy.crash_loop_window_s}s"))]
        delay = policy.delay_s(recent)
        backend.restart_at = now + delay
        return [SupervisorEvent(
            "restart_scheduled", backend.backend_id,
            detail=f"attempt {backend.restarts + 1} in {delay:.2f}s")]

    def _attempt_restart(self, backend: BackendProcess,
                         now: float) -> List[SupervisorEvent]:
        """Respawn one dead backend whose backoff timer has fired."""
        if self._stopping:
            return []
        inputs = self._inputs.get(backend.shard)
        if inputs is None:
            inputs = self._shard_inputs(backend.shard)
            self._inputs[backend.shard] = inputs
        try:
            replacement = self._spawn(backend.backend_id, backend.shard,
                                      backend.replica, inputs)
            deadline = time.monotonic() + self.spawn_timeout_s
            endpoint = self._await_endpoint(replacement, deadline)
        except Exception as exc:
            # The respawn itself died: that counts as another death for
            # crash-loop accounting, with a longer backoff (or eject).
            backend.death_times.append(time.monotonic())
            self._prune_deaths(backend, time.monotonic())
            events = [SupervisorEvent("restart_failed",
                                      backend.backend_id,
                                      detail=str(exc))]
            backend.restart_at = None
            events.extend(self._schedule_or_eject(backend,
                                                  time.monotonic()))
            return events
        if self._stopping:
            # stop() won the race while we were respawning: don't adopt
            # (and don't leak) a child the drain pass will never see.
            replacement.process.kill()
            replacement.process.wait()
            return []
        backend.process = replacement.process
        backend.log_path = replacement.log_path
        backend.endpoint = endpoint
        backend.generation += 1
        backend.restarts += 1
        backend.restart_at = None
        self.topology = self.topology.with_endpoints(
            {b.backend_id: b.endpoint for b in self.backends})
        return [SupervisorEvent("restarted", backend.backend_id,
                                endpoint=endpoint,
                                detail=f"pid {backend.pid}")]

    def _emit(self, event: SupervisorEvent) -> None:
        callback = self._on_event
        if callback is None:
            return
        try:
            callback(event)
        except Exception:
            # A listener bug must never take down the monitor loop.
            pass

    def start_monitor(self, interval_s: float = 0.1,
                      on_event: Optional[
                          Callable[[SupervisorEvent], None]] = None
                      ) -> None:
        """Run :meth:`monitor_step` on a daemon thread until stopped.

        ``on_event`` fires on the monitor thread for every membership
        event — the gateway bridges it onto its event loop with
        ``call_soon_threadsafe`` to drive live ring reconciliation.
        """
        if self._monitor_thread is not None:
            raise SupervisorError("monitor already running")
        if interval_s <= 0:
            raise ValueError("interval_s must be > 0")
        self._on_event = on_event
        self._monitor_stop = threading.Event()
        self._monitor_thread = threading.Thread(
            target=self._monitor_loop, args=(interval_s,),
            name="cluster-monitor", daemon=True)
        self._monitor_thread.start()

    def _monitor_loop(self, interval_s: float) -> None:
        while not self._monitor_stop.wait(interval_s):
            try:
                self.monitor_step()
            except Exception:
                # Keep watching; one bad pass must not end supervision.
                continue

    def stop_monitor(self, join_timeout_s: float = 5.0) -> None:
        thread = self._monitor_thread
        if thread is None:
            return
        self._monitor_stop.set()
        thread.join(timeout=join_timeout_s)
        self._monitor_thread = None
        self._on_event = None

    def stop(self, graceful: bool = True,
             drain_timeout_s: float = 15.0) -> None:
        """Stop the fleet: SIGTERM (backends drain) then SIGKILL."""
        self._stopping = True
        self.stop_monitor()
        for backend in self.backends:
            if not backend.alive:
                continue
            try:
                backend.process.send_signal(
                    signal.SIGTERM if graceful else signal.SIGKILL)
            except (ProcessLookupError, OSError):
                continue
        deadline = time.monotonic() + (drain_timeout_s if graceful
                                       else 2.0)
        for backend in self.backends:
            remaining = max(0.1, deadline - time.monotonic())
            try:
                backend.process.wait(timeout=remaining)
            except subprocess.TimeoutExpired:
                backend.process.kill()
                backend.process.wait()

    def __enter__(self) -> "ClusterSupervisor":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.stop(graceful=True)


def read_state(path: str) -> Dict[str, Any]:
    """Load a supervisor state file (``cluster.json``)."""
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)
