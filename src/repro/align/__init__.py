"""End-to-end alignment pipelines (short-read and long-read)."""

from repro.align.pipeline import (
    PhaseWork,
    ReadAlignment,
    SoftwareAligner,
)
from repro.align.long_read import (
    LongReadAligner,
    LongReadAlignment,
    LongReadWork,
)
from repro.align.paired import PairedAligner, PairedResult
from repro.align.sam import (
    SamRecord,
    parse_sam,
    sam_header,
    sam_record,
    validate_record,
    write_sam,
)

__all__ = [
    "PhaseWork", "ReadAlignment", "SoftwareAligner",
    "LongReadAligner", "LongReadAlignment", "LongReadWork",
    "PairedAligner", "PairedResult",
    "SamRecord", "parse_sam", "sam_header", "sam_record",
    "validate_record", "write_sam",
]
