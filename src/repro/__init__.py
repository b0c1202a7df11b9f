"""repro — a from-scratch reproduction of NvWa (HPCA 2023).

NvWa is a hardware-scheduling accelerator for seed-and-extend sequence
alignment. This package contains the full stack the paper depends on:

- ``repro.genome`` — references, reads, IO, dataset profiles.
- ``repro.seeding`` — BWT/FM-index/SMEM seeding algorithms.
- ``repro.extension`` — Smith-Waterman family + systolic-array cycle model.
- ``repro.align`` — the end-to-end software aligner (functional ground truth).
- ``repro.sim`` — cycle-driven simulation kernel and memory models.
- ``repro.hw`` — SU/EU hardware unit cycle models.
- ``repro.core`` — the paper's contribution: One-Cycle Read Allocator,
  Seeding/Extension Schedulers, Hybrid Units Strategy, and the Coordinator,
  wired into the NvWa accelerator top level.
- ``repro.baselines`` — analytic CPU/GPU/FPGA/ASIC comparison platforms.
- ``repro.power`` — area/power/energy models (Table II).
- ``repro.analysis`` — distributions, breakdowns, design-space exploration.
- ``repro.experiments`` — one module per paper table/figure.
"""

__version__ = "1.0.0"
