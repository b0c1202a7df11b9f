#!/usr/bin/env python3
"""Quickstart: align reads in software, then accelerate them on NvWa.

Walks the full public API surface in one page:

1. synthesise a reference genome and simulate reads from it,
2. align the reads with the BWA-MEM-shaped software pipeline,
3. convert the measured work into an accelerator workload,
4. simulate NvWa and the unscheduled SUs+EUs baseline,
5. print throughput, utilization, and the scheduling win.

Run:  python examples/quickstart.py
"""

from repro.align import SoftwareAligner
from repro.analysis.distributions import workload_interval_stats
from repro.core import NvWaAccelerator, baseline, workload_from_pipeline
from repro.genome import ErrorModel, ReadSimulator, SyntheticReference


def main() -> None:
    print("=== 1. Reference genome and reads ===")
    reference = SyntheticReference(length=80_000, chromosomes=2,
                                   seed=7).build()
    # Mix clean and noisy reads: error-bearing reads fragment their seed
    # chains, which is what gives real datasets the per-read diversity the
    # schedulers exploit (paper Fig 2).
    clean = ReadSimulator(reference, read_length=101, seed=7).simulate(60)
    noisy = ReadSimulator(reference, read_length=101, seed=8,
                          error_model=ErrorModel(0.03, 0.003, 0.003),
                          ).simulate(60)
    reads = [r for pair in zip(clean, noisy) for r in pair]
    print(f"reference: {len(reference):,} bp over {len(reference.names)} "
          f"chromosomes; reads: {len(reads)} x ~{len(reads[0])} bp "
          f"(half clean, half 3% error)")

    print("\n=== 2. Software alignment (the functional ground truth) ===")
    aligner = SoftwareAligner(reference, occ_interval=128)
    results = aligner.align_all(reads)
    aligned = [r for r in results if r.aligned]
    correct = 0
    for result in aligned:
        truth = reference.offsets[result.read.chrom] + result.read.position
        if abs(result.best.ref_start - truth) < 150:
            correct += 1
    print(f"aligned {len(aligned)}/{len(reads)} reads; "
          f"{correct} of those mapped within 150 bp of their true origin")
    sample = aligned[0]
    print(f"example: {sample.read.read_id} -> ref:{sample.best.ref_start} "
          f"strand={'-' if sample.best.reverse else '+'} "
          f"cigar={sample.best.cigar} score={sample.best.score}")

    print("\n=== 3. Accelerator workload from the measured work ===")
    workload = workload_from_pipeline(results)
    print(f"{len(workload)} read tasks, {workload.total_hits} extension "
          f"hits; interval histogram "
          f"{list(workload_interval_stats(workload).counts)}")

    print("\n=== 4. Cycle simulation: NvWa vs unscheduled SUs+EUs ===")
    # A quarter-scale accelerator so this 120-read demo spans many read
    # batches (the full design has 128 SUs; with fewer reads than SUs the
    # batch baseline would trivially tie).
    from dataclasses import replace
    from repro.core import NvWaConfig
    demo = replace(NvWaConfig(), num_seeding_units=16,
                   eu_config=((16, 7), (32, 5), (64, 4), (128, 2)))
    nvwa = NvWaAccelerator(baseline.nvwa(demo)).run(workload)
    base = NvWaAccelerator(baseline.sus_eus_baseline(demo)).run(workload)
    for name, report in (("NvWa", nvwa), ("SUs+EUs", base)):
        print(f"{name:>8}: {report.cycles:>8,} cycles  "
              f"{report.throughput.kreads_per_second:>10,.0f} Kreads/s  "
              f"SU util {report.su_utilization:.1%}  "
              f"EU util {report.eu_utilization:.1%}")

    print(f"\nscheduling speedup: {base.cycles / nvwa.cycles:.2f}x "
          f"(same computing units, only the three NvWa schedulers added)")


if __name__ == "__main__":
    main()
