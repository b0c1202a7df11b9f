"""Convenience constructors for the baseline and ablation configurations.

Fig 11 stacks the mechanisms cumulatively: SUs+EUs (nothing), +HUS, +OCRA,
+HA, full NvWa. A hybrid pool is only meaningful with length-matched
dispatch (Fig 9(d) assumes it), so the "+HUS" step pairs the hybrid pool
with the paper's *basic* shared-pool matching (method (2) of Sec. IV-D);
the final "+HA" step upgrades dispatch to the grouped greedy Hits
Allocator of Fig 10.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, Optional

from repro.core.config import NvWaConfig

#: Hit-FIFO depth of designs without the Coordinator's deep double buffer.
#: Prior accelerators decouple the two phases with only a small queue
#: (SeedEx's producer-consumer buffer, ERT's walk queue), so the phases
#: block/starve each other — the Fig 3(a) behaviour. The full 1024-deep
#: double buffer arrives with the Coordinator in the "+HA" step.
SMALL_FIFO_DEPTH = 64


def nvwa(base: Optional[NvWaConfig] = None) -> NvWaConfig:
    """Full NvWa: all three mechanisms on."""
    base = base or NvWaConfig()
    return replace(base, use_ocra=True, allocator_policy="grouped")


def sus_eus_baseline(base: Optional[NvWaConfig] = None) -> NvWaConfig:
    """The non-scheduled SUs+EUs design: Read-in-Batch, uniform EUs, FIFO."""
    base = base or NvWaConfig()
    return replace(base.baseline_variant(),
                   hits_buffer_depth=SMALL_FIFO_DEPTH)


def with_hybrid_units(base: Optional[NvWaConfig] = None) -> NvWaConfig:
    """Baseline + Hybrid Units Strategy (Fig 11 '+HUS').

    Hybrid pool with the basic shared-pool matched dispatch; seeding still
    Read-in-Batch.
    """
    base = base or NvWaConfig()
    return replace(base, use_ocra=False, allocator_policy="pooled",
                   hits_buffer_depth=SMALL_FIFO_DEPTH)


def with_ocra(base: Optional[NvWaConfig] = None) -> NvWaConfig:
    """+HUS + One-Cycle Read Allocator (Fig 11 '+OCRA')."""
    base = base or NvWaConfig()
    return replace(base, use_ocra=True, allocator_policy="pooled",
                   hits_buffer_depth=SMALL_FIFO_DEPTH)


def with_hits_allocator(base: Optional[NvWaConfig] = None) -> NvWaConfig:
    """+OCRA + grouped greedy Hits Allocator = full NvWa (Fig 11 '+HA')."""
    return nvwa(base)


def ablation_ladder(base: Optional[NvWaConfig] = None,
                    ) -> Dict[str, NvWaConfig]:
    """The Fig 11 configuration ladder, in presentation order."""
    base = base or NvWaConfig()
    return {
        "SUs+EUs": sus_eus_baseline(base),
        "+HUS": with_hybrid_units(base),
        "+OCRA": with_ocra(base),
        "+HA (NvWa)": with_hits_allocator(base),
    }
