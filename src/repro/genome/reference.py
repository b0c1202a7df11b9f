"""Synthetic reference genomes.

The paper evaluates on GRCh38 (3.1 Gbp). A pure-Python reproduction cannot
index gigabase genomes in reasonable time, and scheduler dynamics do not
depend on absolute genome size — they depend on the *statistics* the seeding
phase sees: repeat content (which controls hit multiplicity and seeding
work), GC composition, and chromosome structure. ``SyntheticReference``
generates genomes with controllable versions of exactly those statistics.

A genome is built as random background sequence into which mutated copies of
a small library of "repeat family" elements are planted. Repeats are what
make real seeding interesting: a read sampled from a repeat region produces
many candidate hits, stressing the Coordinator, while unique regions produce
one or two hits.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.genome import sequence as seq


@dataclass(frozen=True)
class RepeatFamily:
    """A repeat element planted throughout the genome.

    Attributes:
        consensus: the family's consensus sequence.
        copies: how many (mutated) copies are planted.
        divergence: per-base substitution rate applied to each copy.
    """

    consensus: str
    copies: int
    divergence: float


@dataclass(frozen=True)
class Chromosome:
    """One named contiguous sequence of the reference."""

    name: str
    sequence: str

    def __len__(self) -> int:
        return len(self.sequence)


@dataclass
class ReferenceGenome:
    """A multi-chromosome reference genome.

    ``offsets`` maps each chromosome to its start in the concatenated
    coordinate space, mirroring how linear aligners address GRCh38.
    """

    chromosomes: List[Chromosome]
    repeat_annotations: List[Tuple[str, int, int]] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.offsets: Dict[str, int] = {}
        offset = 0
        for chrom in self.chromosomes:
            self.offsets[chrom.name] = offset
            offset += len(chrom)
        self._total_length = offset

    def __len__(self) -> int:
        return self._total_length

    @property
    def names(self) -> List[str]:
        return [chrom.name for chrom in self.chromosomes]

    def concatenated(self) -> str:
        """The genome as one linear string (index coordinate space)."""
        return "".join(chrom.sequence for chrom in self.chromosomes)

    def fetch(self, name: str, start: int, end: int) -> str:
        """Substring ``[start, end)`` of chromosome ``name``."""
        chrom = self.chromosome(name)
        if not 0 <= start <= end <= len(chrom):
            raise IndexError(
                f"range [{start}, {end}) outside chromosome {name!r} "
                f"of length {len(chrom)}")
        return chrom.sequence[start:end]

    def fetch_linear(self, start: int, end: int) -> str:
        """Substring ``[start, end)`` in concatenated coordinates."""
        if not 0 <= start <= end <= len(self):
            raise IndexError(
                f"range [{start}, {end}) outside genome of length {len(self)}")
        pieces = []
        for chrom in self.chromosomes:
            base = self.offsets[chrom.name]
            lo = max(start, base)
            hi = min(end, base + len(chrom))
            if lo < hi:
                pieces.append(chrom.sequence[lo - base:hi - base])
        return "".join(pieces)

    def chromosome(self, name: str) -> Chromosome:
        for chrom in self.chromosomes:
            if chrom.name == name:
                return chrom
        raise KeyError(f"no chromosome named {name!r}")

    def locate(self, linear_pos: int) -> Tuple[str, int]:
        """Map a concatenated coordinate to ``(chromosome, local_pos)``."""
        if not 0 <= linear_pos < len(self):
            raise IndexError(f"position {linear_pos} outside genome")
        for chrom in self.chromosomes:
            base = self.offsets[chrom.name]
            if base <= linear_pos < base + len(chrom):
                return chrom.name, linear_pos - base
        raise IndexError(f"position {linear_pos} outside genome")  # pragma: no cover


def default_repeat_families(rng: random.Random,
                            genome_length: int) -> List[RepeatFamily]:
    """A small library of repeat families scaled to the genome length.

    Mimics (in miniature) the mix found in mammalian genomes: a few highly
    abundant short elements (Alu-like), some mid-length elements (LINE-like)
    and rare long segmental duplications.
    """
    density = max(1, genome_length // 20_000)
    return [
        RepeatFamily(seq.random_sequence(150, rng), copies=8 * density,
                     divergence=0.08),
        RepeatFamily(seq.random_sequence(400, rng), copies=2 * density,
                     divergence=0.12),
        RepeatFamily(seq.random_sequence(1200, rng), copies=max(1, density // 2),
                     divergence=0.03),
    ]


class SyntheticReference:
    """Builder for synthetic reference genomes (GRCh38 substitute).

    Example:
        >>> ref = SyntheticReference(length=100_000, seed=7).build()
        >>> len(ref) >= 100_000
        True
    """

    def __init__(self, length: int = 1_000_000, chromosomes: int = 2,
                 gc_content: float = 0.41, seed: int = 0,
                 repeat_families: Optional[List[RepeatFamily]] = None):
        if length <= 0:
            raise ValueError(f"length must be positive, got {length}")
        if chromosomes <= 0:
            raise ValueError(f"chromosomes must be positive, got {chromosomes}")
        self.length = length
        self.n_chromosomes = chromosomes
        self.gc_content = gc_content
        self.seed = seed
        self.repeat_families = repeat_families

    def build(self) -> ReferenceGenome:
        """Generate the genome deterministically from the seed."""
        rng = random.Random(self.seed)
        families = (self.repeat_families
                    if self.repeat_families is not None
                    else default_repeat_families(rng, self.length))

        per_chrom = self.length // self.n_chromosomes
        chroms = []
        annotations: List[Tuple[str, int, int]] = []
        for idx in range(self.n_chromosomes):
            name = f"chr{idx + 1}"
            body = list(seq.random_sequence(per_chrom, rng, self.gc_content))
            for family in families:
                copies = max(1, family.copies // self.n_chromosomes)
                for _ in range(copies):
                    copy = seq.mutate(family.consensus, family.divergence, rng)
                    if len(copy) >= per_chrom:
                        continue
                    pos = rng.randrange(0, per_chrom - len(copy))
                    body[pos:pos + len(copy)] = list(copy)
                    annotations.append((name, pos, pos + len(copy)))
            chroms.append(Chromosome(name, "".join(body)))
        return ReferenceGenome(chroms, annotations)
