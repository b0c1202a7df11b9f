"""Parallel execution layer.

The experiment sweeps behind the paper's headline exhibits (Figs 11-14)
and the offline aligner push independent units of work — reads through
one aligner, configurations through one sweep loop.  This package fans
them out without touching the cycle-accurate reference semantics:

- :mod:`repro.runtime.sharded` — :class:`~repro.runtime.sharded.ShardedRunner`,
  which splits a read set into contiguous shards and aligns them across
  ``multiprocessing`` workers, each with its own ``SoftwareAligner``,
  merging SAM-ready results identically regardless of worker count; and
  :func:`~repro.runtime.sharded.run_resilient`, the worker pool both
  parallel paths share.
- :mod:`repro.runtime.sweep` — :func:`~repro.runtime.sweep.simulate_many`,
  the one parallel path into the simulator, used by the Fig 11/13/14
  sweeps: independent ``(config, workload)`` simulations across workers,
  bit-identical to the serial loop.
- :mod:`repro.runtime.batch` — the batch front-end every aligner call
  extends its hits through: each distinct (read, window) pair is filled
  once per call, and same-shaped jobs are stacked into single calls of
  the vectorized ``fill_matrices`` kernel.

The serial path stays the default-on reference everywhere: with
``parallelism=1`` every caller behaves bit-identically to the
pre-runtime code paths.  The parallel paths are resilient: worker death
replays only the lost shards/jobs (see
:func:`~repro.runtime.sharded.run_resilient` and docs/RESILIENCE.md).
The one persisted artifact is the FM-index store of
:mod:`repro.seeding.store`.
"""

from repro.runtime.batch import extend_batch, smith_waterman_batch
from repro.runtime.sharded import ShardedRunner, WorkerLostError, run_resilient
from repro.runtime.sweep import SimJob, SweepResult, simulate_many

__all__ = [
    "ShardedRunner",
    "SimJob",
    "SweepResult",
    "WorkerLostError",
    "run_resilient",
    "extend_batch",
    "simulate_many",
    "smith_waterman_batch",
]
