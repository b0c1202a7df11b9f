"""Wire protocol for the online alignment service.

Newline-delimited JSON (NDJSON) over a TCP or UNIX-domain stream: each
line is one JSON object, requests flow client→server and responses flow
back tagged with the request's ``id``, so a single connection can carry
many in-flight requests and responses may arrive out of submission order
(they complete batch by batch, exactly like reads retiring from NvWa's
unit pool).

Request types::

    {"id": "1", "type": "align", "read_id": "r0",
     "sequence": "ACGT...", "quality": "IIII..."}        # one read
    {"id": "2", "type": "align_pair", "pair_id": "p0",
     "mate1": {"read_id": "p0/1", "sequence": ...},
     "mate2": {"read_id": "p0/2", "sequence": ...}}      # one FR pair
    {"id": "3", "type": "stats"}                         # metrics snapshot
    {"id": "4", "type": "ping"}                          # liveness probe

Responses::

    {"id": "1", "ok": true, "sam": ["<SAM line>"]}                # align
    {"id": "2", "ok": true, "sam": [..., ...], "proper": true,
     "insert_size": 401, "rescued_mate": 0}                       # pair
    {"id": "3", "ok": true, "stats": {...}}                       # stats
    {"id": "4", "ok": true, "pong": true}                         # ping
    {"id": "1", "ok": false, "error": "overloaded",
     "message": "..."}                                            # failure

Error codes: ``overloaded`` (admission control rejected the request —
back off and retry, the moral 429), ``busy`` (the server is in degraded
mode — its circuit breaker tripped on worker crashes — and is shedding;
back off and retry), ``queue_timeout`` (the request's ``budget_ms``
expired while it sat in an admission queue; it never executed, but the
budget is spent, so retrying is pointless), ``timeout`` (the per-request
deadline expired while queued or executing), ``bad_request`` (malformed
JSON or fields), ``internal`` (execution failed after retries),
``shutting_down`` (server is draining).

Align requests may carry an optional ``budget_ms`` field: a client-side
latency budget in milliseconds, a positive finite number.  Both front
ends honour it.  A single server sheds the request with
``queue_timeout`` if the budget expires before the request leaves its
admission queue, and caps execution at the remaining budget, so a
client never waits much past its own deadline for an answer that is
already useless.  The cluster gateway forwards the remaining budget to
the backend on every attempt and passes its ``queue_timeout`` through.

Align requests may carry an optional ``idem`` field (a client-chosen
idempotency key). A retried request with the same key is answered from
the server's completed-payload cache instead of being recomputed, so
client retries after a dropped connection are exactly-once (see
:mod:`repro.faults` and docs/RESILIENCE.md). SAM lines are produced by
:func:`repro.align.sam.sam_record` on the very same pipeline objects the
offline path writes, so service output is bit-identical to
``repro align --out``.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.genome.reads import Read

#: Request type tags.
TYPE_ALIGN = "align"
TYPE_ALIGN_PAIR = "align_pair"
TYPE_STATS = "stats"
TYPE_PING = "ping"

ALIGN_TYPES = (TYPE_ALIGN, TYPE_ALIGN_PAIR)
REQUEST_TYPES = ALIGN_TYPES + (TYPE_STATS, TYPE_PING)

#: Error codes a response may carry.
ERR_OVERLOADED = "overloaded"
ERR_BUSY = "busy"
ERR_QUEUE_TIMEOUT = "queue_timeout"
ERR_TIMEOUT = "timeout"
ERR_BAD_REQUEST = "bad_request"
ERR_INTERNAL = "internal"
ERR_SHUTTING_DOWN = "shutting_down"

#: Codes a client may safely retry with backoff (the request was never
#: executed, or an idempotency key makes re-execution a dedup hit).
#: ``queue_timeout`` is deliberately NOT here: the request never ran,
#: but its latency budget is spent — a retry would just be shed again.
RETRYABLE_ERRORS = (ERR_OVERLOADED, ERR_BUSY)

#: Typed load-shedding codes: the server refused work it never executed.
#: Distinct from ``timeout``/``internal``, where work was attempted.
SHED_ERRORS = (ERR_OVERLOADED, ERR_BUSY, ERR_QUEUE_TIMEOUT)

#: Defensive cap on one NDJSON line (64 MB would mean a pathological read).
MAX_LINE_BYTES = 8 * 1024 * 1024

#: Exactly the bases :func:`repro.genome.sequence.encode` accepts: a read
#: the aligner cannot encode is a ``bad_request``, not a worker crash.
_VALID_BASES = frozenset("ACGT")


class ProtocolError(ValueError):
    """Raised when a line cannot be decoded into a valid request.

    ``request_id`` is the line's ``id`` once that much has decoded, so the
    ``bad_request`` answer reaches the caller waiting on that id.
    """

    request_id: Optional[str] = None


class ServiceError(RuntimeError):
    """A request that failed with a protocol error code.

    Clients raise it for an ``ok: false`` response; on the serving side
    every typed refusal or failure is one, so the front end answers it
    with ``code`` and ``message`` unchanged.
    """

    def __init__(self, code: str, message: str = ""):
        super().__init__(f"{code}: {message}" if message else code)
        self.code = code
        self.message = message


@dataclass(frozen=True)
class AlignRequest:
    """A decoded alignment request (single read or pair)."""

    request_id: str
    type: str
    reads: List[Read] = field(default_factory=list)
    pair_id: Optional[str] = None
    idempotency_key: Optional[str] = None
    budget_ms: Optional[float] = None

    @property
    def is_pair(self) -> bool:
        return self.type == TYPE_ALIGN_PAIR


def _decode_read(obj: Dict[str, Any], where: str) -> Read:
    if not isinstance(obj, dict):
        raise ProtocolError(f"{where} must be an object")
    read_id = obj.get("read_id")
    sequence = obj.get("sequence")
    if not isinstance(read_id, str) or not read_id:
        raise ProtocolError(f"{where}.read_id must be a non-empty string")
    if not isinstance(sequence, str) or not sequence:
        raise ProtocolError(f"{where}.sequence must be a non-empty string")
    sequence = sequence.upper()
    bad = set(sequence) - _VALID_BASES
    if bad:
        raise ProtocolError(
            f"{where}.sequence contains invalid bases: {sorted(bad)}")
    quality = obj.get("quality", "")
    if not isinstance(quality, str):
        raise ProtocolError(f"{where}.quality must be a string")
    if quality and len(quality) != len(sequence):
        raise ProtocolError(
            f"{where}.quality length {len(quality)} != sequence length "
            f"{len(sequence)}")
    return Read(read_id=read_id, sequence=sequence, quality=quality)


def decode_request(line: str) -> AlignRequest:
    """Parse one NDJSON line into an :class:`AlignRequest`.

    ``stats`` and ``ping`` decode to requests with no reads; the server
    answers them inline without queueing.
    """
    if len(line) > MAX_LINE_BYTES:
        raise ProtocolError(f"request line exceeds {MAX_LINE_BYTES} bytes")
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ProtocolError(f"invalid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise ProtocolError("request must be a JSON object")
    request_id = obj.get("id")
    if not isinstance(request_id, str) or not request_id:
        raise ProtocolError("request id must be a non-empty string")
    try:
        return _decode_fields(obj, request_id)
    except ProtocolError as exc:
        exc.request_id = request_id
        raise


def _decode_fields(obj: Dict[str, Any], request_id: str) -> AlignRequest:
    rtype = obj.get("type")
    if rtype not in REQUEST_TYPES:
        raise ProtocolError(
            f"unknown request type {rtype!r}; expected one of "
            f"{sorted(REQUEST_TYPES)}")
    idem = obj.get("idem")
    if idem is not None and (not isinstance(idem, str) or not idem):
        raise ProtocolError("idem must be a non-empty string")
    budget_ms = obj.get("budget_ms")
    if budget_ms is not None:
        # json.loads accepts NaN, Infinity, 1e400 (inf) and integers
        # too big for a float: the chained comparison refuses them all.
        if isinstance(budget_ms, bool) or \
                not isinstance(budget_ms, (int, float)) or \
                not 0 < budget_ms <= sys.float_info.max:
            raise ProtocolError("budget_ms must be a positive finite "
                                "number")
        budget_ms = float(budget_ms)
    if rtype == TYPE_ALIGN:
        return AlignRequest(request_id=request_id, type=rtype,
                            reads=[_decode_read(obj, "request")],
                            idempotency_key=idem, budget_ms=budget_ms)
    if rtype == TYPE_ALIGN_PAIR:
        pair_id = obj.get("pair_id")
        if pair_id is not None and not isinstance(pair_id, str):
            raise ProtocolError("pair_id must be a string")
        mate1 = _decode_read(obj.get("mate1"), "mate1")
        mate2 = _decode_read(obj.get("mate2"), "mate2")
        return AlignRequest(request_id=request_id, type=rtype,
                            reads=[mate1, mate2],
                            pair_id=pair_id or mate1.read_id,
                            idempotency_key=idem, budget_ms=budget_ms)
    return AlignRequest(request_id=request_id, type=rtype)


# --------------------------------------------------------------------- #
# Request encoding (client side) and response framing (both sides)
# --------------------------------------------------------------------- #

def encode_align(request_id: str, read: Read,
                 idempotency_key: Optional[str] = None,
                 budget_ms: Optional[float] = None) -> str:
    """One NDJSON line for a single-read alignment request."""
    obj: Dict[str, Any] = {"id": request_id, "type": TYPE_ALIGN,
                           "read_id": read.read_id,
                           "sequence": read.sequence}
    if read.quality:
        obj["quality"] = read.quality
    if idempotency_key is not None:
        obj["idem"] = idempotency_key
    if budget_ms is not None:
        obj["budget_ms"] = budget_ms
    return json.dumps(obj, separators=(",", ":"))


def encode_align_pair(request_id: str, mate1: Read, mate2: Read,
                      pair_id: Optional[str] = None,
                      idempotency_key: Optional[str] = None,
                      budget_ms: Optional[float] = None) -> str:
    """One NDJSON line for a paired-read alignment request."""
    def mate(read: Read) -> Dict[str, str]:
        obj = {"read_id": read.read_id, "sequence": read.sequence}
        if read.quality:
            obj["quality"] = read.quality
        return obj
    obj: Dict[str, Any] = {"id": request_id, "type": TYPE_ALIGN_PAIR,
                           "mate1": mate(mate1), "mate2": mate(mate2)}
    if pair_id is not None:
        obj["pair_id"] = pair_id
    if idempotency_key is not None:
        obj["idem"] = idempotency_key
    if budget_ms is not None:
        obj["budget_ms"] = budget_ms
    return json.dumps(obj, separators=(",", ":"))


def encode_control(request_id: str, rtype: str) -> str:
    """One NDJSON line for a ``stats`` or ``ping`` request."""
    if rtype not in (TYPE_STATS, TYPE_PING):
        raise ValueError(f"not a control request type: {rtype!r}")
    return json.dumps({"id": request_id, "type": rtype},
                      separators=(",", ":"))


def success_response(request_id: str, **payload: Any) -> str:
    """An ``ok: true`` response line carrying ``payload`` fields."""
    obj: Dict[str, Any] = {"id": request_id, "ok": True}
    obj.update(payload)
    return json.dumps(obj, separators=(",", ":"))


def error_response(request_id: Optional[str], error: str,
                   message: str = "") -> str:
    """An ``ok: false`` response line with an error code."""
    obj: Dict[str, Any] = {"id": request_id or "", "ok": False,
                           "error": error}
    if message:
        obj["message"] = message
    return json.dumps(obj, separators=(",", ":"))


def decode_response(line: str) -> Dict[str, Any]:
    """Parse a response line (client side); returns the raw object."""
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ProtocolError(f"invalid response JSON: {exc}") from exc
    if not isinstance(obj, dict) or "id" not in obj or "ok" not in obj:
        raise ProtocolError(f"malformed response: {line!r}")
    return obj
