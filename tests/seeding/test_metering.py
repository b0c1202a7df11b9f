"""Seeding-phase metering pinned to fixed values.

The SU cycle model (``hw/seeding_unit.py``) and the Fig 2 breakdown
(``analysis/breakdown.py``) are computed from ``work.seeding_accesses``,
so any change to these counts is a change to the hardware model and must
be stated as one. The values below are for one SMEM pass over the read on
the FMD-index (both strands at once), as BWA-MEM seeds. A store-attached
index must meter exactly what an in-memory one does.
"""

import pytest

from repro.align.pipeline import SoftwareAligner
from repro.genome.reads import ReadSimulator
from repro.genome.reference import SyntheticReference
from repro.seeding.bidirectional import BidirectionalFMIndex
from repro.seeding.store import IndexStore, write_index_store

#: Per-read ``work.seeding_steps``: the summed SMEM lengths, or the read
#: length when no SMEM survives.
SEEDING_STEPS = [95, 101, 101, 101, 101, 101, 88, 101]

#: Per-read ``work.seeding_accesses`` for a full suffix array (SMEM
#: extensions only) and for a 4x-sampled one (extensions plus the LF steps
#: that locate walks to reach a sample).
SEEDING_ACCESSES = {
    1: [264, 202, 202, 202, 202, 202, 338, 202],
    4: [264, 203, 205, 205, 205, 203, 338, 202],
}


@pytest.fixture(scope="module")
def substrate():
    reference = SyntheticReference(length=30_000, chromosomes=1, seed=21).build()
    reads = ReadSimulator(reference, read_length=101, seed=22).simulate(8)
    return reference, reads


@pytest.mark.parametrize("sa_sample", sorted(SEEDING_ACCESSES))
def test_per_read_work_is_pinned(substrate, sa_sample, tmp_path):
    reference, reads = substrate
    index = BidirectionalFMIndex(reference.concatenated(), occ_interval=64, sa_sample=sa_sample)
    path = tmp_path / "ref.idx"
    write_index_store(path, index, reference)
    for aligner in (SoftwareAligner(reference, index=index),
                    SoftwareAligner(reference, index=IndexStore.open(path).fmindex())):
        results = [aligner.align(read, idx) for idx, read in enumerate(reads)]
        assert [r.work.seeding_accesses for r in results] == SEEDING_ACCESSES[sa_sample]
        assert [r.work.seeding_steps for r in results] == SEEDING_STEPS
