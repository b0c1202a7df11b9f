"""Every aligner entry point extends its hits exactly as an oracle would.

The oracle is the pipeline written out by hand: ``collect_anchors`` and
``build_hits`` for the hits, one scalar-front-end ``smith_waterman`` per
hit for the extension, and the first hit to reach the best score wins.
The genome carries exact planted repeat copies, so many reads tie on
score across several hits, and the tie-break is checked, not assumed.
"""

import hashlib
import io
import random

import pytest

from repro.align.pipeline import PhaseWork, SoftwareAligner
from repro.align.sam import write_sam
from repro.extension.smith_waterman import smith_waterman
from repro.genome import sequence as seq
from repro.genome.reads import Read, ReadSimulator
from repro.genome.reference import RepeatFamily, SyntheticReference
from repro.runtime.sharded import ShardedRunner

READ_LENGTH = 101

#: SHA-256 of ``write_sam`` over this module's genome and reads, taken
#: from one scalar ``smith_waterman`` per hit: batching the extension
#: must not move a byte, equal-score ties included.
SAM_SHA256 = "c17660224ea281eeee3bf19f8a336ea2a33e746bed6713bc880b004e1714a6b7"


@pytest.fixture(scope="module")
def repeat_genome():
    rng = random.Random(41)
    families = [RepeatFamily(seq.random_sequence(300, rng), 6, 0.0),
                RepeatFamily(seq.random_sequence(160, rng), 4, 0.0)]
    reference = SyntheticReference(length=30_000, chromosomes=2, seed=41,
                                   repeat_families=families).build()
    pick = random.Random(42)
    reads = []
    spans = [span for span in reference.repeat_annotations
             if span[2] - span[1] >= READ_LENGTH]
    for idx in range(24):
        chrom, start, end = spans[idx % len(spans)]
        pos = pick.randrange(start, end - READ_LENGTH + 1)
        fragment = reference.fetch(chrom, pos, pos + READ_LENGTH)
        reverse = pick.random() < 0.5
        if reverse:
            fragment = seq.reverse_complement(fragment)
        reads.append(Read(read_id=f"rep_{idx}", sequence=fragment,
                          quality="I" * READ_LENGTH, chrom=chrom,
                          position=pos, reverse=reverse))
    reads += ReadSimulator(reference, read_length=READ_LENGTH,
                           seed=43).simulate(16)
    return reference, reads


def oracle(aligner, read, read_idx):
    """(best alignment summary or None, full-window cells, hit count,
    every hit's score)."""
    anchors = aligner.collect_anchors(read.sequence, PhaseWork())
    hits = aligner.build_hits(read_idx, len(read.sequence), anchors)
    best, cells, scores = None, 0, []
    for hit in hits:
        oriented = (seq.reverse_complement(read.sequence) if hit.reverse
                    else read.sequence)
        local = smith_waterman(oriented,
                               aligner.text[hit.ref_start:hit.ref_end],
                               scoring=aligner.scoring)
        cells += local.cells
        scores.append(local.score)
        if best is None or local.score > best[0].score:
            best = (local, hit)
    if best is None or best[0].score <= 0:
        return None, cells, len(hits), scores
    local, hit = best
    return (local.score, local.cigar, hit.ref_start + local.ref_start,
            hit.reverse), cells, len(hits), scores


def observed(result):
    best = result.best
    summary = None if best is None else (best.score, best.cigar,
                                         best.ref_start, best.reverse)
    return summary, result.work.extension_cells, result.work.hit_count


@pytest.fixture(scope="module")
def expected(repeat_genome):
    reference, reads = repeat_genome
    aligner = SoftwareAligner(reference)
    return [oracle(aligner, read, idx) for idx, read in enumerate(reads)]


def test_genome_has_equal_score_ties(expected):
    """Guards the test itself: several reads must tie across hits."""
    tied = [scores for *_, scores in expected
            if len(scores) > 1 and scores.count(max(scores)) > 1]
    assert len(tied) >= 10


def test_every_entry_point_matches_the_oracle(repeat_genome, expected):
    reference, reads = repeat_genome
    want = [entry[:3] for entry in expected]
    aligner = SoftwareAligner(reference)
    runs = {
        "align": [aligner.align(read, idx) for idx, read in enumerate(reads)],
        "align_all": aligner.align_all(reads),
        "sharded-1": ShardedRunner(parallelism=1, shard_size=7).align(
            reference, reads),
        "sharded-2": ShardedRunner(parallelism=2, shard_size=7).align(
            reference, reads),
    }
    for name, results in runs.items():
        assert [observed(r) for r in results] == want, name


def test_sam_text_is_pinned(repeat_genome):
    reference, reads = repeat_genome
    buffer = io.StringIO()
    write_sam(SoftwareAligner(reference).align_all(reads), reference, buffer)
    digest = hashlib.sha256(buffer.getvalue().encode()).hexdigest()
    assert digest == SAM_SHA256
