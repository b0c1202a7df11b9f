"""PopCount-tree model (the OCRA's critical-path component, Fig 6).

Sec. IV-B: "Obtain the exact number of 1's using a PopCount Tree ... The
latency of the design depends on the depth of the PopCount tree. In
practice, the number of seeding units is from 64 to 512, and the depth of
the tree is from 6 to 9, which makes the hardware latency requirements can
be easily satisfied at 1 GHz."

The model provides both the combinational function (masked popcount) and
the structural properties (tree depth, estimated delay) the one-cycle
claim rests on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.units import PS_PER_S


@dataclass(frozen=True)
class PopCountTree:
    """A balanced adder tree counting 1s over ``width`` input bits.

    Attributes:
        width: number of input bits (= number of seeding units).
        adder_delay_ps: delay of one adder stage in picoseconds (14 nm
            full-adder chain estimate used for the 0.9 ns critical path).
    """

    width: int
    adder_delay_ps: float = 95.0

    def __post_init__(self) -> None:
        if self.width <= 0:
            raise ValueError(f"width must be positive, got {self.width}")
        if self.adder_delay_ps <= 0:
            raise ValueError("adder_delay_ps must be positive")

    @property
    def depth(self) -> int:
        """Number of adder levels: ceil(log2(width)); width 1 needs none."""
        if self.width == 1:
            return 0
        return math.ceil(math.log2(self.width))

    @property
    def delay_ps(self) -> float:
        """Estimated combinational delay through the tree."""
        return self.depth * self.adder_delay_ps

    def meets_frequency(self, frequency_hz: float = 1e9,
                        margin: float = 0.9) -> bool:
        """True when the tree fits in one cycle at ``frequency_hz``.

        ``margin`` reserves part of the period for the surrounding mux and
        adder logic of Fig 6 (the paper reports a 0.9 ns critical path).
        """
        if frequency_hz <= 0:
            raise ValueError("frequency must be positive")
        period_ps = PS_PER_S / frequency_hz
        return self.delay_ps <= period_ps * margin

    def count(self, bits: np.ndarray) -> int:
        """Combinational result: number of 1s in ``bits``."""
        bits = np.asarray(bits)
        if bits.size != self.width:
            raise ValueError(
                f"expected {self.width} bits, got {bits.size}")
        if not np.all((bits == 0) | (bits == 1)):
            raise ValueError("inputs must be 0/1")
        return int(bits.sum())

    def masked_count(self, bits: np.ndarray, mask: np.ndarray) -> int:
        """Fig 6 step ❷+❸: AND with a unit-mark mask, then popcount."""
        bits = np.asarray(bits)
        mask = np.asarray(mask)
        if mask.size != self.width:
            raise ValueError(
                f"mask width {mask.size} != tree width {self.width}")
        return self.count(bits & mask)


def unit_mark_table(width: int) -> np.ndarray:
    """The mask table of Fig 6: row ``i`` has 1s strictly below index ``i``.

    ``unit 0 corresponds to a mask of 0000, and unit 3 corresponds to
    1110`` — i.e. row i selects units 0..i-1.
    """
    if width <= 0:
        raise ValueError(f"width must be positive, got {width}")
    table = np.zeros((width, width), dtype=np.int8)
    for i in range(width):
        table[i, :i] = 1
    return table
