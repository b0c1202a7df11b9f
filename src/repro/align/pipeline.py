"""End-to-end software read aligner (the functional ground truth).

This is the BWA-MEM-shaped pipeline of the paper's Fig 1: Find Seeds →
Filter and Chain → Seeds Extension → Get Result, built on the repro
substrates (FMD-index SMEMs over both strands, greedy chaining, affine-gap
seed extension). Extension follows the EUs' flank model, as BWA-MEM's
``ksw_extend`` does: each hit carries its chain's longest seed, which is
taken as exact, and DP runs only on the read before and after it, so a
seed that covers the whole read needs no DP. NvWa's computing units "are
faithful to the standard read alignment software, which allows us to have
no loss of accuracy" — in this reproduction that statement is checkable:
the accelerator simulation executes *this* pipeline's work items, and
tests verify this aligner recovers the simulated reads' true origins.

It also produces the per-read phase work measurements (seeding memory
accesses, extension DP cells) that drive Fig 2's breakdown and the cycle
simulator's timing. Extension cells keep their full-window meaning (read
× reference window per hit); the cells actually filled are reported on
the ``extension_fill`` trace span.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import islice
from typing import List, Optional, Sequence, Tuple

from repro import obs
from repro.genome import sequence as seq
from repro.genome.reads import Read
from repro.genome.reference import ReferenceGenome
from repro.seeding.bidirectional import BidirectionalFMIndex
from repro.seeding.chaining import Anchor, chain_anchors, filter_anchors, top_chains
from repro.seeding.smem import find_smems
from repro.extension.alignment import Alignment, Cigar
from repro.extension.scoring import BWA_MEM_SCORING, ScoringScheme
from repro.core.interface import Hit
from repro.runtime.batch import extend_batch


@dataclass
class PhaseWork:
    """Work performed in each phase for one read (Fig 2's raw material)."""

    seeding_accesses: int = 0
    seeding_steps: int = 0
    extension_cells: int = 0
    hit_count: int = 0


@dataclass
class ReadAlignment:
    """Full pipeline output for one read."""

    read: Read
    best: Optional[Alignment]
    hits: List[Hit] = field(default_factory=list)
    work: PhaseWork = field(default_factory=PhaseWork)

    @property
    def aligned(self) -> bool:
        return self.best is not None

    @property
    def mapped_ref_start(self) -> Optional[int]:
        """Linear reference coordinate where the read's alignment begins."""
        if self.best is None:
            return None
        return self.best.ref_start


class SoftwareAligner:
    """Seed-and-extend aligner over a reference genome.

    Args:
        reference: genome to align against.
        min_seed_length: SMEMs shorter than this are filtered (Step ❷).
        max_seed_occurrences: repeat masking threshold for seeds.
        max_chains: extend at most this many top chains per strand.
        window_pad: reference bases added around a chain for extension.
        scoring: affine scheme for extension (BWA-MEM defaults).
        occ_interval: FM-index checkpoint spacing (paper: 128).
        index: optional prebuilt :class:`BidirectionalFMIndex` over this
            reference (e.g. memory-mapped from an index store); skips
            index construction, by far the most expensive part of setup.
    """

    def __init__(self, reference: ReferenceGenome,
                 min_seed_length: int = 19,
                 max_seed_occurrences: int = 64,
                 max_chains: int = 8,
                 window_pad: int = 24,
                 scoring: ScoringScheme = BWA_MEM_SCORING,
                 occ_interval: int = 128,
                 index: Optional[BidirectionalFMIndex] = None):
        self.reference = reference
        self.text = reference.concatenated()
        self.index = index if index is not None else \
            BidirectionalFMIndex(self.text, occ_interval=occ_interval)
        self.min_seed_length = min_seed_length
        self.max_seed_occurrences = max_seed_occurrences
        self.max_chains = max_chains
        self.window_pad = window_pad
        self.scoring = scoring

    # ------------------------------------------------------------------ #
    # Pipeline steps
    # ------------------------------------------------------------------ #

    def collect_anchors(self, read_seq: str, work: PhaseWork) -> List[Anchor]:
        """Step ❶: SMEM anchors on both strands in one pass; a reverse-strand
        anchor's span is on the reverse-complement read."""
        before = self.index.occ_accesses
        smems = find_smems(self.index, read_seq,
                           min_length=self.min_seed_length,
                           max_occurrences=self.max_seed_occurrences)
        read_len = len(read_seq)
        work.seeding_steps += sum(m.length for m in smems) or read_len
        anchors: List[Anchor] = []
        for smem in smems:
            mirrored = (read_len - smem.read_end, read_len - smem.read_start)
            for pos, reverse in self.index.locate(
                    smem.interval, smem.length,
                    max_hits=self.max_seed_occurrences):
                start, end = mirrored if reverse else (smem.read_start,
                                                       smem.read_end)
                anchors.append(Anchor(read_start=start, read_end=end,
                                      ref_start=pos, reverse=reverse))
        work.seeding_accesses += self.index.occ_accesses - before
        return anchors

    def build_hits(self, read_idx: int, read_len: int,
                   anchors: Sequence[Anchor]) -> List[Hit]:
        """Step ❷: filter + chain, then emit Table III hit records, each
        carrying its chain's longest anchor as the seed to extend from."""
        filtered = filter_anchors(anchors, self.min_seed_length)
        chains = top_chains(chain_anchors(filtered), self.max_chains) \
            if filtered else []
        hits = []
        for hit_idx, chain in enumerate(chains):
            window_start = max(0, chain.ref_start - chain.read_start
                               - self.window_pad)
            window_end = min(len(self.text),
                             chain.ref_end + (read_len - chain.read_end)
                             + self.window_pad)
            seed = max(chain.anchors, key=lambda anchor: anchor.length)
            hits.append(Hit(read_idx=read_idx, hit_idx=hit_idx,
                            reverse=chain.reverse,
                            read_start=chain.read_start,
                            read_end=chain.read_end,
                            ref_start=window_start, ref_end=window_end,
                            seed=(seed.read_start, seed.ref_start,
                                  seed.length)))
        return hits

    def extend_hit(self, jobs: Sequence[Tuple[str, Hit]]) -> List[Alignment]:
        """Step ❸: extend each hit from its seed to both sides of it.

        ``jobs`` are ``(read_seq, hit)`` pairs.  The seed is taken as
        exact; the left flank (the read before it, reversed, against the
        window before it, reversed) and the right flank (the read after
        it against the window after it) each get an anchored-start,
        free-end extension, and whatever read end a flank does not reach
        is left for a soft clip.  All flanks go through one
        :func:`~repro.runtime.batch.extend_batch` call, which fills each
        distinct flank once and skips empty ones, so a seed covering the
        whole read costs no DP.  Alignments come back in job order, in
        reference coordinates; ``cells`` stays the full window's
        read × window count, the work a full-window fill would charge.
        """
        flanks = []
        for read_seq, hit in jobs:
            if hit.seed is None:
                raise ValueError(f"hit {hit.hit_idx} of read {hit.read_idx} "
                                 "carries no seed to extend from")
            query = seq.encode(read_seq)
            if hit.reverse:
                query = seq.reverse_complement_code(query)
            window = seq.encode(self.text[hit.ref_start:hit.ref_end])
            read_pos, ref_pos, length = hit.seed
            seed_at = ref_pos - hit.ref_start
            flanks.append((query[:read_pos][::-1], window[:seed_at][::-1]))
            flanks.append((query[read_pos + length:],
                           window[seed_at + length:]))
        extended = extend_batch(flanks, scoring=self.scoring)
        alignments = []
        for (read_seq, hit), left, right in zip(jobs, extended[0::2],
                                                extended[1::2]):
            read_pos, ref_pos, length = hit.seed
            alignments.append(Alignment(
                score=self.scoring.match * length + left.score + right.score,
                cigar=Cigar.from_runs((*reversed(left.cigar.ops),
                                       (length, "M"), *right.cigar.ops)),
                read_start=read_pos - left.read_end,
                read_end=read_pos + length + right.read_end,
                ref_start=ref_pos - left.ref_end,
                ref_end=ref_pos + length + right.ref_end,
                reverse=hit.reverse, cells=len(read_seq) * hit.ref_len))
        return alignments

    # ------------------------------------------------------------------ #
    # Public API
    # ------------------------------------------------------------------ #

    def align(self, read: Read, read_idx: int = 0) -> ReadAlignment:
        """Run the full pipeline for one read (Steps ❶-❹)."""
        return self.align_all([read], read_idx)[0]

    def align_all(self, reads: Sequence[Read],
                  start_index: int = 0) -> List[ReadAlignment]:
        """Align reads indexed ``start_index..start_index+n-1``.

        Every read is seeded and chained first; then all of the call's
        hits are extended together (:meth:`extend_hit`) and each read
        keeps its best hit, the lowest hit index winning a tied score.

        Args:
            start_index: global index of the first read (sharded callers
                keep per-read indices global across shards).
        """
        staged = []
        for offset, read in enumerate(reads):
            work = PhaseWork()
            with obs.span("align_read", "pipeline", read_id=read.read_id):
                with obs.span("seeding", "pipeline"):
                    anchors = self.collect_anchors(read.sequence, work)
                with obs.span("chain", "pipeline", anchors=len(anchors)):
                    hits = self.build_hits(start_index + offset,
                                           len(read.sequence), anchors)
            work.hit_count = len(hits)
            staged.append((read, hits, work))
        jobs = [(read.sequence, hit) for read, hits, _ in staged
                for hit in hits]
        with obs.span("extension", "pipeline", reads=len(reads),
                      hits=len(jobs)):
            alignments = iter(self.extend_hit(jobs))
        results = []
        for read, hits, work in staged:
            best: Optional[Alignment] = None
            for candidate in islice(alignments, len(hits)):
                work.extension_cells += candidate.cells
                if best is None or candidate.score > best.score:
                    best = candidate
            if best is not None and best.score <= 0:
                best = None
            results.append(ReadAlignment(read=read, best=best, hits=hits,
                                         work=work))
        return results
