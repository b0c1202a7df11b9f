"""Workload inputs: a fixed reference genome and reads drawn from ``--seed``.

The reference plays the part of GRCh38 in a real deployment: the same
genome in every run, so run-to-run differences come from the reads and
the machine, not from a different genome per seed. The reads are drawn
from the benchmark's ``--seed``; the program under test receives the
generated inputs and never the seed.

- *unique*: the default-repeat ``SyntheticReference`` (~200 kbp) and
  101 bp Illumina-model reads drawn uniformly from it, as ``repro
  simulate`` makes them. Most reads hit one locus: seeding dominates.
- *repeat*: a reference planted with two near-identical repeat
  families, reads sampled only from the planted copies. Each read
  chains to several copies, so extension does more work than seeding.
"""

from __future__ import annotations

import random
from typing import Dict, List, Tuple

from repro.analysis.accuracy import evaluate
from repro.genome import sequence as seq
from repro.genome.reads import ILLUMINA, Read, ReadSimulator
from repro.genome.reference import ReferenceGenome, RepeatFamily, SyntheticReference

REFERENCE_BP = 200_000
REFERENCE_SEED = 2023
READ_LENGTH = 101
#: Recall is scored on reads 0..RECALL_READS-1 of a pool, whatever a
#: timed window reached, so a faster or slower program is scored on the
#: same reads.
RECALL_READS = 256

#: (consensus length, copies, per-copy divergence) of the planted
#: families. Only copies identical to the read's origin over the read
#: yield full-length seeds. A read whose origin carries a private
#: mutation has one hit and costs a third of one with eight (the
#: aligner's chain cap); these divergences keep such reads near 10 %, so
#: per-read cost is close to uniform and the median latency sits well
#: inside the eight-hit mode. The copy counts keep every seed under the
#: aligner's 64-occurrence repeat mask.
REPEAT_FAMILIES = ((1200, 40, 0.0005), (400, 60, 0.001))


def unique_reference() -> ReferenceGenome:
    return SyntheticReference(length=REFERENCE_BP, seed=REFERENCE_SEED).build()


def unique_reads(reference: ReferenceGenome, seed: int, count: int) -> List[Read]:
    return ReadSimulator(reference, read_length=READ_LENGTH,
                         seed=seed).simulate(count)


def repeat_reference() -> ReferenceGenome:
    rng = random.Random(REFERENCE_SEED)
    families = [RepeatFamily(seq.random_sequence(length, rng), copies, divergence)
                for length, copies, divergence in REPEAT_FAMILIES]
    return SyntheticReference(length=REFERENCE_BP, seed=REFERENCE_SEED,
                              repeat_families=families).build()


def repeat_reads(reference: ReferenceGenome, seed: int, count: int) -> List[Read]:
    """Reads whose every base comes from one planted repeat copy.

    Read ``i`` comes from span ``i mod n`` at a seeded offset, so every
    prefix of the list covers the planted copies evenly and the recall
    of a window depends little on which copies the draw happened to
    favour. Copies planted later may overwrite earlier ones; a read is
    still taken wholly from the genome, so its true origin is exact.
    """
    rng = random.Random(seed + 1)
    spans: List[Tuple[str, int, int]] = [
        span for span in reference.repeat_annotations
        if span[2] - span[1] >= READ_LENGTH]
    reads = []
    for idx in range(count):
        chrom, start, end = spans[idx % len(spans)]
        pos = rng.randrange(start, end - READ_LENGTH + 1)
        fragment = reference.fetch(chrom, pos, pos + READ_LENGTH)
        reverse = rng.random() < 0.5
        if reverse:
            fragment = seq.reverse_complement(fragment)
        observed = ILLUMINA.apply(fragment, rng) or fragment
        reads.append(Read(read_id=f"rep_{idx}", sequence=observed,
                          quality="I" * len(observed), chrom=chrom,
                          position=pos, reverse=reverse))
    return reads


def recall(aligner, reference: ReferenceGenome, reads: List[Read],
           aligned: Dict[int, object]) -> float:
    """Recall over reads 0..RECALL_READS-1 of the pool.

    ``aligned`` maps pool positions to results a run already has; the
    positions it lacks are aligned now, outside any timed window.
    """
    for pos in range(RECALL_READS):
        if pos not in aligned:
            aligned[pos] = aligner.align(reads[pos], pos)
    return evaluate([aligned[pos] for pos in range(RECALL_READS)],
                    reference).recall
