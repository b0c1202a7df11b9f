"""SAM output for the alignment pipeline.

The deliverable a downstream user actually consumes: standard SAM records
(header + one line per read) from :class:`~repro.align.pipeline.
SoftwareAligner` results. MAPQ follows the BWA-style heuristic of scaling the gap between
the best and second-best alignment scores.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import List, Mapping, Optional, Sequence, TextIO, Union

from repro import obs
from repro.genome import sequence as seq
from repro.extension.alignment import Cigar
from repro.genome.reference import ReferenceGenome
from repro.align.pipeline import ReadAlignment

#: SAM flags used here.
FLAG_UNMAPPED = 0x4
FLAG_REVERSE = 0x10

PathOrHandle = Union[str, os.PathLike, TextIO]


def mapq_estimate(best_score: int, second_score: Optional[int],
                  read_length: int, match_score: int = 1) -> int:
    """BWA-style mapping quality from the best/second score gap.

    A unique full-score alignment gets 60; ties get 0; the gap scales the
    range in between.
    """
    if read_length <= 0:
        raise ValueError("read_length must be positive")
    if best_score <= 0:
        return 0
    ceiling = read_length * match_score
    if second_score is None or second_score <= 0:
        base = 60.0 * best_score / ceiling
        return max(0, min(60, int(round(base))))
    if second_score >= best_score:
        return 0
    gap = (best_score - second_score) / best_score
    return max(0, min(60, int(round(60.0 * gap * best_score / ceiling + 20
                                    * gap))))


def sam_header(reference: ReferenceGenome,
               program: str = "repro-nvwa") -> List[str]:
    """@HD/@SQ/@PG header lines."""
    lines = ["@HD\tVN:1.6\tSO:unsorted"]
    for chrom in reference.chromosomes:
        lines.append(f"@SQ\tSN:{chrom.name}\tLN:{len(chrom)}")
    lines.append(f"@PG\tID:{program}\tPN:{program}")
    return lines


def sam_record(result: ReadAlignment, reference: ReferenceGenome,
               mapq: Optional[int] = None) -> str:
    """One SAM line for a pipeline result."""
    read = result.read
    if not result.aligned:
        quality = read.quality or "*"
        return "\t".join([read.read_id, str(FLAG_UNMAPPED), "*", "0", "0",
                          "*", "*", "0", "0", read.sequence, quality])
    best = result.best
    chrom, local = reference.locate(best.ref_start)
    flag = FLAG_REVERSE if best.reverse else 0
    cigar = _clipped_cigar(best, len(read.sequence))
    sequence = (seq.reverse_complement(read.sequence) if best.reverse
                else read.sequence)
    quality = read.quality or "*"
    if best.reverse and quality != "*":
        quality = quality[::-1]
    if mapq is None:
        mapq = mapq_estimate(best.score, _second_best(result),
                             len(read.sequence))
    return "\t".join([read.read_id, str(flag), chrom, str(local + 1),
                      str(mapq), cigar, "*", "0", "0", sequence, quality])


def _second_best(result: ReadAlignment) -> Optional[int]:
    """Second-best extension score, if the pipeline produced several hits."""
    scores = getattr(result, "all_scores", None)
    if scores and len(scores) > 1:
        return sorted(scores, reverse=True)[1]
    return None


def _clipped_cigar(best, read_length: int) -> str:
    """Soft-clip the unaligned read flanks around the local alignment."""
    lead = best.read_start
    tail = read_length - best.read_end
    parts = []
    if lead:
        parts.append(f"{lead}S")
    parts.append(str(best.cigar) if best.cigar.ops else f"{best.read_span}M")
    if tail:
        parts.append(f"{tail}S")
    return "".join(parts)


def validate_record(line: str, contigs: Mapping[str, int],
                    read_sequence: Optional[str] = None) -> None:
    """Raise ``ValueError`` unless ``line`` is a structurally valid record.

    ``contigs`` maps each reference name to its length.  A mapped
    record's CIGAR, soft clips included, must consume SEQ exactly, with
    clips only at its ends, and ``POS`` plus its reference span must lie
    inside the contig.  An unmapped record carries no locus (``*``, 0,
    ``*``) and no reverse flag.  Given the read as sequenced, SEQ must be
    it, reverse-complemented exactly when the reverse flag is set.
    """
    fields = line.rstrip("\n").split("\t")
    if len(fields) < 11:
        raise ValueError(f"{len(fields)} fields, expected at least 11")
    qname, rname, cigar, sequence, quality = (fields[0], fields[2],
                                               fields[5], fields[9],
                                               fields[10])
    flag, pos, mapq = int(fields[1]), int(fields[3]), int(fields[4])
    if quality != "*" and len(quality) != len(sequence):
        raise ValueError(f"{qname}: QUAL length {len(quality)} "
                         f"!= SEQ length {len(sequence)}")
    unmapped = bool(flag & FLAG_UNMAPPED)
    if unmapped and (rname, pos, mapq, cigar) != ("*", 0, 0, "*"):
        raise ValueError(f"{qname}: unmapped record with a locus")
    if unmapped and flag & FLAG_REVERSE:
        raise ValueError(f"{qname}: unmapped record with a strand")
    if read_sequence is not None:
        oriented = (seq.reverse_complement(read_sequence)
                    if flag & FLAG_REVERSE else read_sequence)
        if sequence != oriented:
            raise ValueError(f"{qname}: SEQ is not the read on the strand "
                             "its flag names")
    if unmapped:
        return
    if rname not in contigs:
        raise ValueError(f"{qname}: unknown contig {rname!r}")
    ops = Cigar.parse(cigar).ops
    if not any(op == "M" for _, op in ops):
        raise ValueError(f"{qname}: CIGAR {cigar} aligns no base")
    if any(op == "S" for _, op in ops[1:-1]):
        raise ValueError(f"{qname}: CIGAR {cigar} clips inside the read")
    consumed = sum(length for length, op in ops if op in "MIS")
    if consumed != len(sequence):
        raise ValueError(f"{qname}: CIGAR {cigar} consumes {consumed} "
                         f"of {len(sequence)} bases")
    span = sum(length for length, op in ops if op in "MD")
    if pos < 1 or pos + span - 1 > contigs[rname]:
        raise ValueError(f"{qname}: span {pos}+{span} outside {rname} "
                         f"({contigs[rname]} bp)")


@dataclass(frozen=True)
class SamRecord:
    """A parsed SAM alignment line (the fields this library emits)."""

    qname: str
    flag: int
    rname: str
    pos: int
    mapq: int
    cigar: str
    sequence: str
    quality: str

    @property
    def is_unmapped(self) -> bool:
        return bool(self.flag & FLAG_UNMAPPED)

    @property
    def is_reverse(self) -> bool:
        return bool(self.flag & FLAG_REVERSE)


def parse_sam(source: PathOrHandle):
    """Yield :class:`SamRecord` for each alignment line (header skipped).

    Round-trip companion of :func:`write_sam`; enough SAM for the
    pipelines here, not a general-purpose SAM parser.
    """
    own = isinstance(source, (str, os.PathLike))
    handle = open(source, "r", encoding="ascii") if own else source
    try:
        for line in handle:
            line = line.rstrip("\n")
            if not line or line.startswith("@"):
                continue
            fields = line.split("\t")
            if len(fields) < 11:
                raise ValueError(f"truncated SAM line: {line!r}")
            yield SamRecord(qname=fields[0], flag=int(fields[1]),
                            rname=fields[2], pos=int(fields[3]),
                            mapq=int(fields[4]), cigar=fields[5],
                            sequence=fields[9], quality=fields[10])
    finally:
        if own:
            handle.close()


def write_sam(results: Sequence[ReadAlignment],
              reference: ReferenceGenome,
              target: PathOrHandle) -> int:
    """Write header + records; returns the number of mapped reads."""
    own = isinstance(target, (str, os.PathLike))
    handle = open(target, "w", encoding="ascii") if own else target
    mapped = 0
    try:
        with obs.span("sam_emit", "pipeline", records=len(results)):
            for line in sam_header(reference):
                handle.write(line + "\n")
            for result in results:
                handle.write(sam_record(result, reference) + "\n")
                if result.aligned:
                    mapped += 1
    finally:
        if own:
            handle.close()
    return mapped
