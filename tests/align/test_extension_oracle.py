"""Every aligner entry point extends its hits as the full-window oracle does.

The oracle is the pipeline written out by hand: ``collect_anchors`` and
``build_hits`` for the hits, one full-window ``smith_waterman`` per hit
for the extension, and the first hit to reach the best score wins.  The
aligner instead extends each hit from its longest seed, DP on the two
flanks only.  The contract: every read's best score, reference start and
strand equal the oracle's, and a CIGAR differs only where the two place
a gap differently at equal score; each such read is listed in ``TIES``.
The genome carries exact planted repeat copies, so many reads tie on
score across several hits, and the tie-break is checked, not assumed.
"""

import hashlib
import io
import random

import pytest

from repro.align.pipeline import PhaseWork, SoftwareAligner
from repro.align.sam import sam_record, validate_record, write_sam
from repro.extension.smith_waterman import smith_waterman
from repro.genome import sequence as seq
from repro.genome.reads import ErrorModel, Read, ReadSimulator
from repro.genome.reference import RepeatFamily, SyntheticReference
from repro.runtime.sharded import ShardedRunner

READ_LENGTH = 101

#: Reads whose CIGAR differs from the oracle's, with the class of the
#: difference (:func:`classify`).  In each, the seed-anchored traceback
#: places a gap a few bases from where the oracle's traceback does, at
#: the same score, read span and reference start.
TIES = {
    "indel_0": "equal-score tie",
    "indel_8": "equal-score tie",
    "indel_9": "equal-score tie",
}

#: SHA-256 of ``write_sam`` over this module's genome and reads, from the
#: seed-anchored extension: batching and sharding must not move a byte.
SAM_SHA256 = "7fa7af0254a63ffbf7d62f15b03f5c07599e44aa1448f6e21b8794eff51aaf58"


@pytest.fixture(scope="module")
def repeat_genome():
    rng = random.Random(41)
    families = [RepeatFamily(seq.random_sequence(300, rng), 6, 0.0),
                RepeatFamily(seq.random_sequence(160, rng), 4, 0.0)]
    reference = SyntheticReference(length=30_000, chromosomes=2, seed=41,
                                   repeat_families=families).build()
    pick = random.Random(42)
    indels = ErrorModel(substitution_rate=0.01, insertion_rate=0.01,
                        deletion_rate=0.01)
    reads = []
    spans = [span for span in reference.repeat_annotations
             if span[2] - span[1] >= READ_LENGTH]
    for idx in range(36):
        chrom, start, end = spans[idx % len(spans)]
        pos = pick.randrange(start, end - READ_LENGTH + 1)
        fragment = reference.fetch(chrom, pos, pos + READ_LENGTH)
        reverse = pick.random() < 0.5
        if reverse:
            fragment = seq.reverse_complement(fragment)
        # The last twelve carry indels, so gap placement is exercised.
        name = f"rep_{idx}" if idx < 24 else f"indel_{idx - 24}"
        if idx >= 24:
            fragment = indels.apply(fragment, pick) or fragment
        reads.append(Read(read_id=name, sequence=fragment,
                          quality="I" * len(fragment), chrom=chrom,
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


def contract(entry):
    """An ``observed``/``oracle`` entry without the CIGAR: (score,
    ref_start, strand) or None, full-window cells, hit count."""
    summary, cells, hits = entry[:3]
    if summary is not None:
        score, _, ref_start, reverse = summary
        summary = (score, ref_start, reverse)
    return summary, cells, hits


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
    want = [contract(entry) for entry in expected]
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
        assert [contract(observed(r)) for r in results] == want, name
        assert [observed(r) for r in results] == \
            [observed(r) for r in runs["align_all"]], name


def classify(want, got):
    """Class of a difference between oracle and aligner summaries."""
    if want is None or got is None or want[0] != got[0]:
        return "other"
    if want[1].query_length != got[1].query_length or want[2:] != got[2:]:
        return "end clip vs. extension"
    return "equal-score tie"


def test_cigars_differ_only_for_listed_ties(repeat_genome, expected):
    reference, reads = repeat_genome
    results = SoftwareAligner(reference).align_all(reads)
    differing = {read.read_id: classify(entry[0], observed(result)[0])
                 for read, result, entry in zip(reads, results, expected)
                 if entry[0] != observed(result)[0]}
    assert differing == TIES


def test_every_record_is_valid(repeat_genome):
    reference, reads = repeat_genome
    contigs = {chrom.name: len(chrom) for chrom in reference.chromosomes}
    for read, result in zip(reads,
                            SoftwareAligner(reference).align_all(reads)):
        validate_record(sam_record(result, reference), contigs,
                        read.sequence)


def test_sam_text_is_pinned(repeat_genome):
    reference, reads = repeat_genome
    buffer = io.StringIO()
    write_sam(SoftwareAligner(reference).align_all(reads), reference, buffer)
    digest = hashlib.sha256(buffer.getvalue().encode()).hexdigest()
    assert digest == SAM_SHA256
