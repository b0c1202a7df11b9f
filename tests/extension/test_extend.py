"""Seed extension: the anchored-start, free-end flank kernel.

The oracle is written from the definition: the best extension of a
flank is the best global alignment of any query prefix against any
target prefix, and clipping the whole flank (score 0) is always allowed.
"""

import random

import pytest

from repro import obs
from repro.align.pipeline import SoftwareAligner
from repro.extension.needleman_wunsch import extend, needleman_wunsch
from repro.extension.scoring import BWA_MEM_SCORING, DARWIN_SCORING
from repro.genome import sequence as seq
from repro.genome.reads import Read
from repro.genome.reference import RepeatFamily, SyntheticReference
from repro.runtime import batch
from repro.runtime.batch import extend_batch

SCHEMES = (BWA_MEM_SCORING, DARWIN_SCORING)


def oracle_score(query, target, scoring):
    """max over prefixes (i, j) of the global score, floored at 0."""
    return max(0, max(needleman_wunsch(query[:i], target[:j], scoring).score
                      for i in range(len(query) + 1)
                      for j in range(len(target) + 1)))


def rescore(query, target, cigar, scoring):
    """Affine score of ``cigar`` walked over ``query`` and ``target``."""
    score = i = j = 0
    for length, op in cigar.ops:
        if op == "M":
            score += sum(scoring.substitution(seq.encode(a)[0],
                                              seq.encode(b)[0])
                         for a, b in zip(query[i:i + length],
                                         target[j:j + length]))
            i, j = i + length, j + length
        else:
            score += scoring.gap_cost(length)
            i, j = (i + length, j) if op == "I" else (i, j + length)
    assert (i, j) == (len(query), len(target))
    return score


def check(query, target, scoring):
    got = extend(query, target, scoring)
    assert got.score == oracle_score(query, target, scoring)
    assert (got.read_start, got.ref_start) == (0, 0)
    assert got.cigar.query_length == got.read_end <= len(query)
    assert got.cigar.reference_length == got.ref_end <= len(target)
    assert rescore(query[:got.read_end], target[:got.ref_end], got.cigar,
                   scoring) == got.score
    return got


@pytest.mark.parametrize("scoring", SCHEMES, ids=("bwa", "darwin"))
def test_random_pairs_match_the_prefix_oracle(scoring):
    rng = random.Random(3)
    for _ in range(60):
        query = seq.random_sequence(rng.randrange(0, 9), rng)
        # Targets are mostly the query with a few edits, so real
        # extensions, gaps included, compete with clipping.
        target = "".join(base for base in query if rng.random() > 0.15)
        target = "".join(rng.choice("ACGT") if rng.random() < 0.15 else base
                         for base in target)
        target += seq.random_sequence(rng.randrange(0, 4), rng)
        check(query, target, scoring)


@pytest.mark.parametrize("scoring", SCHEMES, ids=("bwa", "darwin"))
def test_empty_flanks_need_no_fill(scoring):
    for query, target in (("", ""), ("", "ACGT"), ("ACGT", "")):
        got = check(query, target, scoring)
        assert (got.score, got.read_end, got.ref_end, got.cells) == \
            (0, 0, 0, 0)
        assert not got.cigar.ops


@pytest.mark.parametrize("scoring", SCHEMES, ids=("bwa", "darwin"))
def test_extension_through_a_gap(scoring):
    body = "ACGTTGCAAGCTTACGGATCCATGACTGGTACCTAGGCAT"
    inserted = check(body[:8] + "GG" + body[8:], body, scoring)
    assert "I" in str(inserted.cigar)
    deleted = check(body[:8] + body[11:], body, scoring)
    assert "D" in str(deleted.cigar)
    assert inserted.read_end == len(body) + 2
    assert deleted.ref_end == len(body)


@pytest.mark.parametrize("scoring", SCHEMES, ids=("bwa", "darwin"))
def test_a_flank_whose_best_is_to_clip(scoring):
    # Mismatches up front outweigh the matches behind them.
    got = check("TTTTA", "GGGGA", scoring)
    assert got.score == 0 and not got.cigar.ops
    # A tie between clipping and extending keeps the shorter extension.
    tie = extend("ACT", "ACA", BWA_MEM_SCORING)
    assert (tie.score, tie.read_end) == (2, 2)


def test_batch_equals_single_pairs():
    rng = random.Random(11)
    pairs = [(seq.random_sequence(rng.randrange(0, 12), rng),
              seq.random_sequence(rng.randrange(0, 16), rng))
             for _ in range(40)]
    pairs += [("ACGTACGT", "ACGTACGA")] * 3
    for scoring in SCHEMES:
        assert extend_batch(pairs, scoring) == \
            [extend(q, t, scoring) for q, t in pairs]


def test_identical_flanks_are_filled_once(monkeypatch):
    """Duplicates share one fill and one result object; empty flanks are
    answered without a fill; the span counts the cells executed."""
    rows = []
    real_fill = batch.fill_matrices

    def counting_fill(read_stack, ref_stack, scoring, local=True):
        assert local is False
        rows.append(read_stack.shape[0])
        return real_fill(read_stack, ref_stack, scoring, local=local)

    monkeypatch.setattr(batch, "fill_matrices", counting_fill)
    pairs = [("ACGTT", "ACGTTGA"), ("", "ACG"), ("acgtt", "acgttga"),
             ("GATTACA", "GATTACAT"), ("ACGTT", "ACGTTGA"), ("", "ACG")]
    tracer = obs.configure(enabled=True)
    try:
        got = extend_batch(pairs)
    finally:
        obs.configure(enabled=False)
    assert sum(rows) == 2
    assert got[0] is got[2] is got[4] and got[1] is got[5]
    [span] = [e for e in tracer.events() if e["name"] == "extension_fill"]
    assert (span["args"]["pairs"], span["args"]["distinct"],
            span["args"]["cells_filled"]) == (6, 3, 5 * 7 + 7 * 8)


def test_pipeline_fills_only_distinct_flanks():
    """Reads from byte-identical repeat copies: every copy's flanks are
    the same pair, so one call fills each once; a read its seed covers
    whole is filled not at all.  ``extension_fill`` counts the flank
    cells executed, while ``work.extension_cells`` keeps the full
    window's count."""
    rng = random.Random(71)
    family = RepeatFamily(seq.random_sequence(400, rng), 6, 0.0)
    reference = SyntheticReference(length=30_000, chromosomes=1, seed=71,
                                   repeat_families=[family]).build()
    aligner = SoftwareAligner(reference)
    chrom, start, _ = reference.repeat_annotations[0]
    exact = reference.fetch(chrom, start + 100, start + 201)
    # One substitution mid-read: the longest seed leaves one flank.
    edited = exact[:70] + ("A" if exact[70] != "A" else "C") + exact[71:]
    reads = [Read("exact", exact, "I" * 101), Read("edited", edited,
                                                   "I" * 101)]
    tracer = obs.configure(enabled=True)
    try:
        results = aligner.align_all(reads)
    finally:
        obs.configure(enabled=False)
    [span] = [e for e in tracer.events() if e["name"] == "extension_fill"]
    hits = [hit for result in results for hit in result.hits]
    assert len(results[1].hits) > 1
    flanks = set()
    for read, result in zip(reads, results):
        assert result.best.score == (101 if read.read_id == "exact" else 96)
        assert result.work.extension_cells == 101 * sum(
            hit.ref_len for hit in result.hits)
        for hit in result.hits:
            read_pos, ref_pos, length = hit.seed
            query = (seq.reverse_complement(read.sequence) if hit.reverse
                     else read.sequence)
            flanks.add((query[:read_pos][::-1],
                        aligner.text[hit.ref_start:ref_pos][::-1]))
            flanks.add((query[read_pos + length:],
                        aligner.text[ref_pos + length:hit.ref_end]))
    filled = {pair for pair in flanks if pair[0] and pair[1]}
    assert span["args"]["pairs"] == 2 * len(hits)
    assert span["args"]["distinct"] == len(flanks) < 2 * len(hits)
    assert span["args"]["cells_filled"] == sum(
        len(q) * len(t) for q, t in filled) > 0
