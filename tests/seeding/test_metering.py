"""Seeding-phase metering pinned to fixed values.

The SU cycle model (``hw/seeding_unit.py``) and the Fig 2 breakdown
(``analysis/breakdown.py``) are computed from ``work.seeding_accesses``,
so a change to how the FM-index answers Occ queries must leave the
per-read access counts exactly where they were. The values below were
recorded from the numpy Occ implementation the rank kernel replaced.
"""

import pytest

from repro.align.pipeline import SoftwareAligner
from repro.genome.reads import ReadSimulator
from repro.genome.reference import SyntheticReference
from repro.seeding.bidirectional import BidirectionalFMIndex

SEEDING_STEPS = [196, 202, 202, 202, 202, 202, 189, 202]

#: Per-read ``work.seeding_accesses`` for a full suffix array (SMEM
#: extensions only) and for a 4x-sampled one (extensions plus the LF steps
#: that locate walks to reach a sample).
SEEDING_ACCESSES = {
    1: [1200, 1238, 1166, 1166, 1172, 1142, 1328, 1154],
    4: [1201, 1239, 1166, 1166, 1172, 1144, 1328, 1154],
}


@pytest.fixture(scope="module")
def substrate():
    reference = SyntheticReference(length=30_000, chromosomes=1, seed=21).build()
    reads = ReadSimulator(reference, read_length=101, seed=22).simulate(8)
    return reference, reads


@pytest.mark.parametrize("sa_sample", sorted(SEEDING_ACCESSES))
def test_per_read_work_is_pinned(substrate, sa_sample):
    reference, reads = substrate
    index = BidirectionalFMIndex(reference.concatenated(), occ_interval=64, sa_sample=sa_sample)
    aligner = SoftwareAligner(reference, index=index)
    results = [aligner.align(read, idx) for idx, read in enumerate(reads)]
    assert [r.work.seeding_accesses for r in results] == SEEDING_ACCESSES[sa_sample]
    assert [r.work.seeding_steps for r in results] == SEEDING_STEPS
