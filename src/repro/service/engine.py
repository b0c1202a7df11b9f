"""Batch execution engine: protocol requests → SAM response payloads.

One :class:`AlignmentEngine` owns one :class:`~repro.align.pipeline.
SoftwareAligner` (the expensive part is its FM-index, built once) plus a
:class:`~repro.align.paired.PairedAligner` sharing it. ``execute`` takes
the mixed batch the dynamic batcher assembled — single reads and pairs
interleaved — aligns all single reads in one ``align_all`` call, so
their hits share the batch extension kernels of
:mod:`repro.runtime.batch`, aligns pairs through the mate-rescue
pipeline, and renders every result with
:func:`repro.align.sam.sam_record`.

Because the engine calls the *same* pipeline objects and the *same* SAM
renderer as the offline ``repro align`` path, service responses are
bit-identical to offline output by construction; the round-trip tests
pin this.

The engine is deliberately crash-transparent: it holds no queue state,
so the server can discard a crashed engine, build a fresh one from the
factory, and replay the batch without losing accepted requests.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence

from repro import obs
from repro.align.paired import PairedAligner
from repro.align.pipeline import SoftwareAligner
from repro.align.sam import sam_record
from repro.genome.pairs import ReadPair
from repro.genome.reference import ReferenceGenome
from repro.service.protocol import (
    ERR_INTERNAL,
    TYPE_ALIGN,
    TYPE_ALIGN_PAIR,
    AlignRequest,
    ServiceError,
)


class EngineError(ServiceError):
    """Execution failed for one request after the server's retries."""

    def __init__(self, message: str):
        super().__init__(ERR_INTERNAL, message)


class AlignmentEngine:
    """Aligns protocol request batches against a fixed reference.

    Args:
        reference: genome every request is aligned to.
        insert_mean / insert_sd: paired-library model for proper-pair
            detection and mate rescue.
        aligner_kwargs: forwarded to :class:`SoftwareAligner` (seeding
            mode, scoring, prebuilt index, ...).
    """

    def __init__(self, reference: ReferenceGenome,
                 insert_mean: float = 400.0,
                 insert_sd: float = 50.0,
                 aligner_kwargs: Optional[Dict[str, Any]] = None):
        self.reference = reference
        self.aligner = SoftwareAligner(reference, **(aligner_kwargs or {}))
        self.paired = PairedAligner(reference, insert_mean=insert_mean,
                                    insert_sd=insert_sd,
                                    aligner=self.aligner)

    # ------------------------------------------------------------------ #

    def execute(self, requests: Sequence[AlignRequest]
                ) -> List[Dict[str, Any]]:
        """Align a mixed batch; payload dicts in request order.

        Single-read requests across the whole batch are aligned in one
        ``align_all`` call so their hits share vectorized kernel
        invocations; pairs go through mate rescue individually
        (rescue is data-dependent and cheap relative to the mates'
        primary alignments).
        """
        singles = [(idx, req) for idx, req in enumerate(requests)
                   if req.type == TYPE_ALIGN]
        payloads: List[Optional[Dict[str, Any]]] = [None] * len(requests)

        with obs.span("engine_execute", "service", size=len(requests),
                      singles=len(singles),
                      pairs=len(requests) - len(singles)):
            if singles:
                reads = [req.reads[0] for _, req in singles]
                results = self.aligner.align_all(reads)
                with obs.span("sam_emit", "pipeline",
                              records=len(results)):
                    for (idx, _), result in zip(singles, results):
                        payloads[idx] = {
                            "sam": [sam_record(result, self.reference)],
                            "mapped": result.aligned,
                            "score": (result.best.score
                                      if result.best is not None else None),
                        }

            for idx, req in enumerate(requests):
                if req.type != TYPE_ALIGN_PAIR:
                    continue
                payloads[idx] = self._execute_pair(req)

        missing = [i for i, p in enumerate(payloads) if p is None]
        if missing:
            raise EngineError(
                f"unhandled request types at batch positions {missing}")
        return payloads  # type: ignore[return-value]

    def _execute_pair(self, request: AlignRequest) -> Dict[str, Any]:
        pair = ReadPair(pair_id=request.pair_id or request.reads[0].read_id,
                        mate1=request.reads[0], mate2=request.reads[1])
        outcome = self.paired.align_pair(pair)
        scores = [result.best.score
                  for result in (outcome.result1, outcome.result2)
                  if result.best is not None]
        return {
            "sam": [sam_record(outcome.result1, self.reference),
                    sam_record(outcome.result2, self.reference)],
            "mapped": outcome.both_mapped,
            "proper": outcome.proper,  # repro-lint: disable=PROTO501 -- documented pair field for external consumers
            "insert_size": outcome.insert_size,  # repro-lint: disable=PROTO501 -- documented pair field for external consumers
            "rescued_mate": outcome.rescued_mate,  # repro-lint: disable=PROTO501 -- documented pair field for external consumers
            "score": sum(scores) if scores else None,
        }


__all__ = ["AlignmentEngine", "EngineError"]
