"""LFMapBit index block layout and SRAM sizing (Wang et al. [65]).

The paper instantiates its SUs with "a bitwise and vectorized
implementation of the FM-index search algorithm [65], and the FM-index
interval is set to 128". The LFMapBit layout interleaves, per interval of
BWT symbols, the four cumulative occurrence counters with the 2-bit-packed
BWT payload, so one block fetch answers any Occ query inside the interval
— the one-access-per-step property the SU cycle model charges.

This module computes the block geometry, the index footprint for a genome,
and the on-chip SRAM area it costs at 14 nm, connecting the functional
substrate to the Table II area numbers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from repro.units import BITS_PER_BYTE, UM2_PER_MM2
from repro.genome.sequence import ALPHABET_SIZE

#: 14 nm 6T SRAM density including array overheads, square microns per bit
#: (high-density compiled macro; the scaling literature the paper cites
#: lands in the 0.08-0.12 um^2/bit range).
SRAM_UM2_PER_BIT_14NM = 0.10

#: Table II: the SU pool's Table SRAM area.
PAPER_SU_TABLE_SRAM_MM2 = 2.16


@dataclass(frozen=True)
class LFMapBitLayout:
    """Geometry of the interleaved checkpoint-plus-payload block.

    Args:
        interval: BWT symbols covered per block (paper: 128).
        count_bits: width of each of the four occurrence counters.
    """

    interval: int = 128
    count_bits: int = 32

    def __post_init__(self) -> None:
        if self.interval <= 0:
            raise ValueError(f"interval must be positive, got {self.interval}")
        if self.count_bits <= 0:
            raise ValueError("count_bits must be positive")

    @property
    def payload_bits(self) -> int:
        """2-bit-packed BWT symbols in one block."""
        return 2 * self.interval

    @property
    def counter_bits(self) -> int:
        """One cumulative Occ counter per base at the block head."""
        return ALPHABET_SIZE * self.count_bits

    @property
    def block_bits(self) -> int:
        return self.counter_bits + self.payload_bits

    @property
    def block_bytes(self) -> int:
        return -(-self.block_bits // BITS_PER_BYTE)

    def blocks_for(self, genome_length: int) -> int:
        """Blocks needed to cover a genome's BWT (plus sentinel)."""
        if genome_length <= 0:
            raise ValueError("genome_length must be positive")
        return math.ceil((genome_length + 1) / self.interval)

    def index_bits(self, genome_length: int) -> int:
        """Total index payload for a genome."""
        return self.blocks_for(genome_length) * self.block_bits

    def overhead_fraction(self) -> float:
        """Counter bits as a fraction of the block (the checkpoint tax).

        Larger intervals amortise the counters over more payload but make
        the in-block popcount wider — the paper's 128 keeps the overhead
        at ⅓ while the 256-bit payload still scans in one cycle.
        """
        return self.counter_bits / self.block_bits


def sram_area_mm2(bits: int,
                  um2_per_bit: float = SRAM_UM2_PER_BIT_14NM) -> float:
    """On-chip SRAM area for ``bits`` at the given density."""
    if bits < 0:
        raise ValueError("bits must be >= 0")
    if um2_per_bit <= 0:
        raise ValueError("density must be positive")
    return bits * um2_per_bit / UM2_PER_MM2


def cached_genome_span(area_budget_mm2: float = PAPER_SU_TABLE_SRAM_MM2,
                       layout: Optional[LFMapBitLayout] = None,
                       um2_per_bit: float = SRAM_UM2_PER_BIT_14NM) -> int:
    """Genome symbols whose index fits in an SRAM area budget.

    With Table II's 2.16 mm² the SU pool caches the index of a few
    megabases — the hot working set — which is why the SU model's default
    SRAM miss rate is small but non-zero.
    """
    if layout is None:
        layout = LFMapBitLayout()
    if area_budget_mm2 <= 0:
        raise ValueError("area budget must be positive")
    bits = area_budget_mm2 * UM2_PER_MM2 / um2_per_bit
    blocks = int(bits // layout.block_bits)
    return blocks * layout.interval
