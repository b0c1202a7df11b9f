"""Read simulation (DWGSIM substitute).

The paper samples 200 k real NA12878 reads and, for the sensitivity study
(Fig 14), generates reads with DWGSIM over six NCBI genomes. We reproduce
the relevant statistics with a sampler that draws reads uniformly from a
reference, optionally reverse-complements them, and applies an Illumina-like
error model (substitutions dominating, rare short indels) plus a Phred
quality string. The per-read diversity the schedulers exploit comes from
where the read lands (repeat vs unique region) and which errors it carries.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Iterator, List, Optional

from repro.genome import sequence as seq
from repro.genome.reference import ReferenceGenome


@dataclass(frozen=True)
class Read:
    """A sequencing read with its (simulation-known) ground truth.

    Attributes:
        read_id: stable identifier, unique within a dataset.
        sequence: the base string as sequenced (errors applied).
        quality: Phred+33 quality string, same length as ``sequence``.
        chrom / position: true origin on the reference (forward strand
            coordinates of the leftmost base), or ``None`` for real data.
        reverse: True if the read was sampled from the reverse strand.
    """

    read_id: str
    sequence: str
    quality: str = ""
    chrom: Optional[str] = None
    position: Optional[int] = None
    reverse: bool = False

    def __post_init__(self) -> None:
        if self.quality and len(self.quality) != len(self.sequence):
            raise ValueError("quality string length must match sequence length")

    def __len__(self) -> int:
        return len(self.sequence)


@dataclass(frozen=True)
class ErrorModel:
    """Illumina-like sequencing error model.

    Attributes:
        substitution_rate: per-base substitution probability.
        insertion_rate / deletion_rate: per-base indel probabilities.
        max_indel_length: indels are 1..max_indel_length bases, geometric.
    """

    substitution_rate: float = 0.001
    insertion_rate: float = 0.0001
    deletion_rate: float = 0.0001
    max_indel_length: int = 3

    def __post_init__(self) -> None:
        for name in ("substitution_rate", "insertion_rate", "deletion_rate"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")

    def apply(self, sequence: str, rng: random.Random) -> str:
        """Return ``sequence`` with errors applied (length may change)."""
        out: List[str] = []
        i = 0
        while i < len(sequence):
            roll = rng.random()
            if roll < self.deletion_rate:
                length = self._indel_length(rng)
                i += length  # skip deleted bases
                continue
            if roll < self.deletion_rate + self.insertion_rate:
                length = self._indel_length(rng)
                out.append(seq.random_sequence(length, rng))
            base = sequence[i]
            if rng.random() < self.substitution_rate:
                base = rng.choice([b for b in seq.ALPHABET if b != base])
            out.append(base)
            i += 1
        return "".join(out)

    def _indel_length(self, rng: random.Random) -> int:
        length = 1
        while length < self.max_indel_length and rng.random() < 0.3:
            length += 1
        return length


#: Error model matching 2nd-generation (Illumina) characteristics.
ILLUMINA = ErrorModel(substitution_rate=0.001, insertion_rate=0.0001,
                      deletion_rate=0.0001)

#: Noisier model approximating 3rd-generation (long-read) characteristics.
LONG_READ = ErrorModel(substitution_rate=0.02, insertion_rate=0.005,
                       deletion_rate=0.005, max_indel_length=5)


@dataclass
class ReadSimulator:
    """Samples reads from a reference genome with a given error model.

    Example:
        >>> from repro.genome.reference import SyntheticReference
        >>> ref = SyntheticReference(length=50_000, seed=1).build()
        >>> reads = ReadSimulator(ref, read_length=101, seed=1).simulate(10)
        >>> len(reads) == 10 and all(len(r) > 0 for r in reads)
        True
    """

    reference: ReferenceGenome
    read_length: int = 101
    error_model: ErrorModel = field(default_factory=lambda: ILLUMINA)
    seed: int = 0
    both_strands: bool = True
    quality_base: int = 35

    def __post_init__(self) -> None:
        if self.read_length <= 0:
            raise ValueError(f"read_length must be positive, got {self.read_length}")
        max_chrom = max(len(c) for c in self.reference.chromosomes)
        if self.read_length > max_chrom:
            raise ValueError(
                f"read_length {self.read_length} exceeds longest chromosome "
                f"({max_chrom})")

    def simulate(self, count: int) -> List[Read]:
        """Generate ``count`` reads deterministically from the seed."""
        return list(self.iter_reads(count))

    def iter_reads(self, count: int) -> Iterator[Read]:
        """Lazily generate ``count`` reads."""
        rng = random.Random(self.seed)
        eligible = [c for c in self.reference.chromosomes
                    if len(c) >= self.read_length]
        weights = [len(c) for c in eligible]
        for idx in range(count):
            chrom = rng.choices(eligible, weights=weights, k=1)[0]
            pos = rng.randrange(0, len(chrom) - self.read_length + 1)
            fragment = chrom.sequence[pos:pos + self.read_length]
            reverse = self.both_strands and rng.random() < 0.5
            if reverse:
                fragment = seq.reverse_complement(fragment)
            observed = self.error_model.apply(fragment, rng)
            if not observed:
                observed = fragment  # pathological all-deleted draw
            quality = self._quality_string(len(observed), rng)
            yield Read(read_id=f"read_{idx}", sequence=observed,
                       quality=quality, chrom=chrom.name, position=pos,
                       reverse=reverse)

    def _quality_string(self, length: int, rng: random.Random) -> str:
        """Phred+33 qualities with a mild 3'-end droop, like Illumina."""
        chars = []
        for i in range(length):
            droop = int(4 * i / max(1, length - 1))
            q = max(2, self.quality_base - droop + rng.randint(-2, 2))
            chars.append(chr(33 + min(q, 41)))
        return "".join(chars)
