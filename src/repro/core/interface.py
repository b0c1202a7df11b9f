"""The Unified Interface of NvWa (paper Table III).

Sec. VI: "The multifarious algorithms can benefit from NvWa if they follow
the defined unified interface. ... The data interface specifies the format
standards for input and output to be followed by SUs and EUs. The control
interface defines the states that the SU and EU need to support."

This module is deliberately dependency-free: it is the contract between the
seeding/extension substrates and the scheduling core, exactly as the paper's
loosely coupled design decouples the data path from the control path.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional, Tuple


class UnitState(enum.Enum):
    """Control-interface states (Table III: ``[idle, busy, stop]``)."""

    IDLE = "idle"
    BUSY = "busy"
    STOP = "stop"


@dataclass(frozen=True)
class ReadDescriptor:
    """SU data input: ``[read_idx, read_metadata]``."""

    read_idx: int
    length: int
    metadata: Tuple = ()

    def __post_init__(self) -> None:
        if self.read_idx < 0:
            raise ValueError(f"read_idx must be >= 0, got {self.read_idx}")
        if self.length <= 0:
            raise ValueError(f"read length must be positive, got {self.length}")


@dataclass(frozen=True)
class Hit:
    """SU data output / EU data input (Table III ``[sus_output]``):
    ``[read_idx, hit_idx, direction, read_pos, ref_pos]``.

    ``read_pos`` is the half-open span on the read; ``ref_pos`` the span on
    the reference (linear coordinates). ``hit_len`` — "the difference
    between the end coordinate and the start coordinate of the read_pos"
    (Fig 10 step ❷) — is the statistic the Coordinator schedules on.

    ``seed`` is ``(read_pos, ref_pos, length)`` of the chain's longest
    exact seed, the origin the EU extends left and right from (BWA-MEM's
    extension model); ``None`` on records that carry no seed, such as
    synthetic workloads that only need the spans.
    """

    read_idx: int
    hit_idx: int
    reverse: bool
    read_start: int
    read_end: int
    ref_start: int
    ref_end: int
    seed: Optional[Tuple[int, int, int]] = None

    def __post_init__(self) -> None:
        if self.read_end <= self.read_start:
            raise ValueError(
                f"hit read span [{self.read_start}, {self.read_end}) is empty")
        if self.ref_end < self.ref_start:
            raise ValueError(
                f"hit ref span [{self.ref_start}, {self.ref_end}) is negative")
        if self.seed is not None:
            read_pos, ref_pos, length = self.seed
            if not (length > 0 and self.read_start <= read_pos
                    and read_pos + length <= self.read_end
                    and self.ref_start <= ref_pos
                    and ref_pos + length <= self.ref_end):
                raise ValueError(f"seed {self.seed} lies outside the hit")

    @property
    def hit_len(self) -> int:
        return self.read_end - self.read_start

    @property
    def ref_len(self) -> int:
        return self.ref_end - self.ref_start


@dataclass(frozen=True)
class ExtensionResult:
    """EU data output (Table III): ``[sus_output, alignment_result]``."""

    hit: Hit
    score: int
    cigar: str = ""
    aligned_ref_start: Optional[int] = None
    aligned_ref_end: Optional[int] = None


@dataclass(frozen=True)
class SUControl:
    """SU control signals: ``[idle, busy, stop]``."""

    state: UnitState = UnitState.IDLE


@dataclass(frozen=True)
class EUControl:
    """EU control signals: ``[idle, busy, stop, pe_number]``.

    ``pe_number`` is what lets the Coordinator match hit lengths to unit
    scales without knowing the EU's internals — the loose coupling.
    """

    state: UnitState = UnitState.IDLE
    pe_number: int = 0

    def __post_init__(self) -> None:
        if self.pe_number < 0:
            raise ValueError(f"pe_number must be >= 0, got {self.pe_number}")
