"""The end-to-end short-read alignment pipeline, paired-end pairing and SAM."""

from repro.align.pipeline import (
    PhaseWork,
    ReadAlignment,
    SoftwareAligner,
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
    "PairedAligner", "PairedResult",
    "SamRecord", "parse_sam", "sam_header", "sam_record",
    "validate_record", "write_sam",
]
