"""NvWa accelerator top level: the execution-driven cycle simulation.

Wires the five architecture parts of Fig 4 — SUs behind the Seeding
Scheduler, EUs behind the Extension Scheduler, and the Coordinator between
them — over the discrete-event engine. Knobs in
:class:`~repro.core.config.NvWaConfig` swap each mechanism out, yielding
the SUs+EUs baseline and the Fig 11 ablations from the same model:

- ``use_ocra=False`` → Read-in-Batch seeding (Fig 5(a));
- ``eu_config`` of one class (``uniform_variant()``) → uniform EU pool
  (Fig 9(b));
- ``allocator_policy`` → hit dispatch: ``"grouped"`` (the Hits Allocator,
  Fig 10), ``"pooled"`` / ``"strict"`` (Sec. IV-D's basic methods (2) and
  (1)) or ``"fifo"`` (no length matching).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from heapq import heappush
from typing import Dict, List, Optional, Tuple

from repro.core.config import NvWaConfig
from repro.core.coordinator import (
    FIFOAllocator,
    HitsAllocator,
    HitsBuffer,
    PooledAllocator,
    StrictClassAllocator,
    idle_heaps,
)
from repro.core.extension_scheduler import AllocateTrigger
from repro.core.seeding_scheduler import SeedingScheduler
from repro.core.workload import HitTask, Workload
from repro.extension.systolic import optimal_pe_count
from repro.hw.extension_unit import ExtensionUnit
from repro.hw.seeding_unit import SeedingUnit
from repro.sim.engine import Engine
from repro.sim.memory import MemoryModel
from repro.sim.spm import Scratchpad
from repro.sim.stats import CounterSet, ThroughputResult, UtilizationTrace
from repro.sim.trace import ExecutionTrace

#: Cycles the PB is unavailable around a buffer switch (pointer swap,
#: offset reset, SU restart handshake). Small buffers switch often and
#: pay this repeatedly — one side of the Fig 13(a) trade-off.
SWITCH_OVERHEAD_CYCLES = 24


@dataclass(frozen=True)
class ExtensionOutput:
    """A functionally-executed extension (Table III EU output payload)."""

    read_idx: int
    hit_idx: int
    score: int
    cigar: str


@dataclass
class AssignmentQuality:
    """Fig 12(e/f): per optimal-class placement accuracy."""

    correct: Dict[int, int] = field(default_factory=dict)
    total: Dict[int, int] = field(default_factory=dict)

    def record(self, optimal_class: int, was_optimal: bool) -> None:
        self.total[optimal_class] = self.total.get(optimal_class, 0) + 1
        if was_optimal:
            self.correct[optimal_class] = \
                self.correct.get(optimal_class, 0) + 1

    def fraction(self, pe_class: int) -> float:
        total = self.total.get(pe_class, 0)
        if total == 0:
            return 0.0
        return self.correct.get(pe_class, 0) / total

    def overall_fraction(self) -> float:
        total = sum(self.total.values())
        if total == 0:
            return 0.0
        return sum(self.correct.values()) / total


@dataclass
class SimulationReport:
    """Everything a run produces: cycles, throughput, traces, quality."""

    config: NvWaConfig
    reads: int
    hits_processed: int
    cycles: int
    su_trace: UtilizationTrace
    eu_trace: UtilizationTrace
    assignment_quality: AssignmentQuality
    counters: CounterSet
    memory_energy_pj: float
    #: Mean PE-level efficiency of the EU pool while busy (useful DP cells
    #: per PE-cycle), the mismatch measure behind Fig 12(c/d).
    eu_pe_efficiency: float = 0.0
    #: Off-chip bytes moved / (cycles x peak bandwidth): the HBM headroom
    #: check (the paper's 256 GB/s HBM 1.0 must not be oversubscribed).
    memory_bandwidth_utilization: float = 0.0
    #: Optional event timeline (``record_trace=True``), Fig 3-style.
    trace: Optional[ExecutionTrace] = None
    #: Table III EU outputs (``functional_execution=True``), keyed by
    #: (read_idx, hit_idx).
    extension_results: Optional[Dict[Tuple[int, int], "ExtensionOutput"]] \
        = None

    @property
    def throughput(self) -> ThroughputResult:
        return ThroughputResult(reads=self.reads, cycles=self.cycles,
                                frequency_hz=self.config.frequency_hz)

    @property
    def su_utilization(self) -> float:
        return self.su_trace.average_utilization(self.cycles)

    @property
    def eu_utilization(self) -> float:
        return self.eu_trace.average_utilization(self.cycles)

    @property
    def eu_effective_utilization(self) -> float:
        """Busy fraction × PE efficiency — the Fig 12(c/d) utilization."""
        return self.eu_utilization * self.eu_pe_efficiency


class NvWaAccelerator:
    """The simulated accelerator. Construct once per run."""

    def __init__(self, config: Optional[NvWaConfig] = None):
        self.config = config if config is not None else NvWaConfig()

    def run(self, workload: Workload,
            max_cycles: Optional[int] = None) -> SimulationReport:
        """Simulate the workload end to end; returns the report."""
        sim = _Simulation(self.config, workload)
        return sim.run(max_cycles=max_cycles)


class _Simulation:
    """One run's mutable state (kept off the public accelerator object)."""

    def __init__(self, config: NvWaConfig, workload: Workload):
        self.config = config
        self.workload = workload
        self.engine = Engine()
        self.memory = MemoryModel(config.memory_spec)
        self.counters = CounterSet()

        self.sus = [SeedingUnit(unit_id=i, memory=self.memory)
                    for i in range(config.num_seeding_units)]
        # EUs are numbered in eu_config order; self.eus is indexed by id.
        pes = [pe for pe, count in config.eu_config for _ in range(count)]
        self.eus = [ExtensionUnit(unit_id=uid, pe_count=pe,
                                  datapath=config.eu_datapath)
                    for uid, pe in enumerate(pes)]
        #: The one record of which EUs are idle: PE class -> heap of ids.
        self.idle_eus = idle_heaps(dict(enumerate(pes)))
        #: SUs between ``start`` and ``on_su_finish``.
        self.busy_sus = 0

        self.scheduler = SeedingScheduler(
            num_units=config.num_seeding_units,
            total_reads=len(workload),
            use_ocra=config.use_ocra,
            spm=Scratchpad(capacity=config.spm_capacity_reads),
            prefetch=config.use_spm_prefetch)
        self.buffer = HitsBuffer(depth=config.hits_buffer_depth,
                                 switch_threshold=config.switch_threshold)
        allocator_types = {"grouped": HitsAllocator,
                           "pooled": PooledAllocator,
                           "strict": StrictClassAllocator,
                           "fifo": FIFOAllocator}
        self.allocator = allocator_types[config.allocator_policy](
            config.eu_classes)
        self.trigger = AllocateTrigger(
            num_units=config.num_extension_units,
            idle_fraction=config.idle_trigger_fraction)

        self.su_trace = UtilizationTrace(config.num_seeding_units, "SUs")
        self.eu_trace = UtilizationTrace(config.num_extension_units, "EUs")
        self.quality = AssignmentQuality()

        #: SU -> hits that did not fit the Store Buffer (suspended state).
        self.suspended: Dict[int, List[HitTask]] = {}
        self.hits_processed = 0
        #: PB unavailable until this cycle after a buffer switch.
        self.switch_ready_at = 0
        self.trace = ExecutionTrace() if config.record_trace else None
        self.extension_results: Dict[Tuple[int, int], ExtensionOutput] = {}

    def _trace(self, source: str, kind: str, **detail) -> None:
        if self.trace is not None:
            self.trace.record(self.engine.now, source, kind, **detail)

    # ------------------------------------------------------------------ #
    # Seeding side
    # ------------------------------------------------------------------ #

    def su_status_vector(self) -> List[int]:
        """0 idle / 1 otherwise (busy or suspended on a full buffer)."""
        return [0 if (su.idle and su.unit_id not in self.suspended) else 1
                for su in self.sus]

    def pump_seeding(self) -> None:
        if self.scheduler.exhausted:
            return
        status = self.su_status_vector()
        if all(status):
            return
        loads = self.scheduler.schedule(status)
        for load in loads:
            su = self.sus[load.unit_id]
            task = self.workload.tasks[load.read_idx]
            finish = su.start(task, self.engine.now,
                              load_latency=load.load_latency)
            self.busy_sus += 1
            self.su_trace.add(self.engine.now, finish)
            self.counters.add("reads_issued")
            self._trace(f"SU{load.unit_id}", "read_start",
                        read=load.read_idx, until=finish)
            self.engine.schedule(finish - self.engine.now,
                                 lambda u=load.unit_id, t=task:
                                 self.on_su_finish(u, t))

    def on_su_finish(self, unit_id: int, task) -> None:
        self.sus[unit_id].finish()
        self.busy_sus -= 1
        self._trace(f"SU{unit_id}", "read_finish", read=task.read_idx,
                    hits=len(task.hits))
        hits = list(task.hits)
        accepted = self.buffer.offer(hits)
        if accepted < len(hits):
            self.suspended[unit_id] = hits[accepted:]
            self.counters.add("su_suspensions")
            self._trace(f"SU{unit_id}", "suspend",
                        pending=len(hits) - accepted)
        self.try_switch()
        self.pump_seeding()
        self.pump_allocation()

    def producers_done(self) -> bool:
        """Every read is issued and no SU is still seeding one."""
        return self.scheduler.exhausted and not self.busy_sus

    def seeding_done(self) -> bool:
        return self.producers_done() and not self.suspended

    # ------------------------------------------------------------------ #
    # Coordinator side
    # ------------------------------------------------------------------ #

    def try_switch(self) -> None:
        if self.buffer.should_switch(producers_done=self.producers_done()):
            hits = self.buffer.switch()
            self._trace("Coordinator", "buffer_switch", hits=hits)
            self.switch_ready_at = self.engine.now + SWITCH_OVERHEAD_CYCLES
            self.engine.schedule(SWITCH_OVERHEAD_CYCLES, self.pump_allocation)
            self.retry_suspended()

    def retry_suspended(self) -> None:
        for unit_id in sorted(self.suspended):
            hits = self.suspended[unit_id]
            accepted = self.buffer.offer(hits)
            if accepted == len(hits):
                del self.suspended[unit_id]
            else:
                self.suspended[unit_id] = hits[accepted:]
        self.pump_seeding()

    def pump_allocation(self) -> None:
        while True:
            if self.engine.now < self.switch_ready_at:
                return  # a pump is already scheduled for switch completion
            if self.buffer.pb_drained:
                self.try_switch()
                if self.buffer.pb_drained or \
                        self.engine.now < self.switch_ready_at:
                    return
            idle = sum(map(len, self.idle_eus.values()))
            if not idle:
                return
            if not self.trigger.should_request(idle) \
                    and not self.seeding_done():
                return
            batch = self.buffer.next_batch(self.config.allocation_batch_size)
            if not batch:
                return
            placements, unallocated = self.allocator.allocate(
                batch, self.idle_eus)
            if not placements:
                self.counters.add("allocation_stalls")
                return
            if self.config.fragmentation_handling or not unallocated:
                self.buffer.writeback([p.hit for p in placements],
                                      unallocated)
            else:
                # Ablation: without the Fig 10 write-back fix the offset
                # cannot advance past a deferred hit — placed hits retire
                # but the stuck ones keep the window pinned (head-of-line
                # blocking, the fragmentation problem of Sec. IV-D).
                self.counters.add("head_of_line_stalls")
                placed_ids = {id(p.hit) for p in placements}
                remaining = [h for h in batch if id(h) not in placed_ids]
                self.buffer.writeback([], remaining, consumed=len(batch))
            # The Hybrid Units Manager: start each placed hit on its EU.
            now = self.engine.now
            for placement in placements:
                best = optimal_pe_count(placement.hit.hit_len,
                                        self.config.reference_classes)
                self.quality.record(best, placement.pe_count == best)
                self._trace(f"EU{placement.unit_id}", "hit_start",
                            hit_len=placement.hit.hit_len,
                            pe=placement.pe_count,
                            optimal=placement.optimal)
                finish = self.eus[placement.unit_id].start(placement.hit, now)
                self.eu_trace.add(now, finish)
                self.engine.schedule(finish - now,
                                     lambda u=placement.unit_id:
                                     self.on_eu_finish(u))

    def on_eu_finish(self, unit_id: int) -> None:
        unit = self.eus[unit_id]
        hit = unit.finish()
        heappush(self.idle_eus[unit.pe_count], unit_id)
        self.hits_processed += 1
        self._trace(f"EU{unit_id}", "hit_finish")
        if self.config.functional_execution and hit.has_sequences:
            from repro.extension.smith_waterman import smith_waterman
            local = smith_waterman(hit.query_seq, hit.ref_seq)
            self.extension_results[(hit.read_idx, hit.hit_idx)] = \
                ExtensionOutput(read_idx=hit.read_idx, hit_idx=hit.hit_idx,
                                score=local.score, cigar=str(local.cigar))
        self.pump_allocation()

    # ------------------------------------------------------------------ #
    # Run
    # ------------------------------------------------------------------ #

    def run(self, max_cycles: Optional[int] = None) -> SimulationReport:
        self.engine.schedule(0, self.pump_seeding)
        self.engine.run(max_cycles=max_cycles)
        cycles = self.engine.now
        for name, value in self.buffer.counters.as_dict().items():
            self.counters.add(f"buffer_{name}", value)
        for name, value in self.allocator.counters.as_dict().items():
            self.counters.add(f"alloc_{name}", value)
        total_capacity = sum(u.busy_cycles * u.pe_count for u in self.eus)
        total_useful = sum(u.useful_cells for u in self.eus)
        pe_efficiency = (min(1.0, total_useful / total_capacity)
                         if total_capacity else 0.0)
        peak_bytes = cycles * self.config.memory_spec.bandwidth_bytes_per_cycle
        bandwidth_util = (self.memory.stats.bytes_transferred / peak_bytes
                          if peak_bytes else 0.0)
        return SimulationReport(
            config=self.config,
            reads=len(self.workload),
            hits_processed=self.hits_processed,
            cycles=cycles,
            su_trace=self.su_trace,
            eu_trace=self.eu_trace,
            assignment_quality=self.quality,
            counters=self.counters,
            memory_energy_pj=self.memory.stats.energy_pj,
            eu_pe_efficiency=pe_efficiency,
            memory_bandwidth_utilization=bandwidth_util,
            trace=self.trace,
            extension_results=(self.extension_results
                               if self.config.functional_execution else None),
        )
