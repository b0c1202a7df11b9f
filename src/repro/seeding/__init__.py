"""Seeding-phase substrate: BWT, FM-index, the two-strand FMD-index and its
SMEMs, the on-disk index store, chaining."""

from repro.seeding.bwt import (
    SENTINEL,
    bwt,
    bwt_from_suffix_array,
    extended_suffix_array,
    inverse_bwt,
    suffix_array,
)
from repro.seeding.fmindex import AccessStats, FMIndex, SAInterval
from repro.seeding.bidirectional import BidirectionalFMIndex, BiInterval
from repro.seeding.smem import SMEM, find_smems, smems_covering
from repro.seeding.chaining import (
    Anchor,
    Chain,
    chain_anchors,
    filter_anchors,
    top_chains,
)
from repro.seeding.store import (
    FORMAT_VERSION,
    IndexChecksumError,
    IndexFormatError,
    IndexStore,
    IndexStoreError,
    IndexVersionError,
    attach_or_build,
    build_index_store,
    write_index_store,
)

__all__ = [
    "SENTINEL",
    "bwt",
    "bwt_from_suffix_array",
    "extended_suffix_array",
    "inverse_bwt",
    "suffix_array",
    "AccessStats",
    "FMIndex",
    "SAInterval",
    "BidirectionalFMIndex",
    "BiInterval",
    "SMEM",
    "find_smems",
    "smems_covering",
    "Anchor",
    "Chain",
    "chain_anchors",
    "filter_anchors",
    "top_chains",
    "FORMAT_VERSION",
    "IndexChecksumError",
    "IndexFormatError",
    "IndexStore",
    "IndexStoreError",
    "IndexVersionError",
    "attach_or_build",
    "build_index_store",
    "write_index_store",
]
