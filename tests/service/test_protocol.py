"""Wire-format round trips and validation for the NDJSON protocol."""

import json

import pytest

from repro.genome.reads import Read
from repro.service.protocol import (
    MAX_LINE_BYTES,
    ProtocolError,
    decode_request,
    decode_response,
    encode_align,
    encode_align_pair,
    encode_control,
    error_response,
    success_response,
)


def test_align_round_trip():
    read = Read(read_id="r1", sequence="ACGTACGT", quality="IIIIIIII")
    request = decode_request(encode_align("42", read))
    assert request.request_id == "42"
    assert request.type == "align"
    assert not request.is_pair
    assert request.reads == [read]


def test_align_without_quality():
    read = Read(read_id="r1", sequence="ACGT")
    request = decode_request(encode_align("1", read))
    assert request.reads[0].quality == ""


def test_pair_round_trip():
    m1 = Read(read_id="p0/1", sequence="ACGTAC", quality="IIIIII")
    m2 = Read(read_id="p0/2", sequence="TTGGCC", quality="JJJJJJ")
    request = decode_request(encode_align_pair("7", m1, m2, pair_id="p0"))
    assert request.is_pair
    assert request.pair_id == "p0"
    assert request.reads == [m1, m2]


def test_pair_id_defaults_to_mate1():
    m1 = Read(read_id="x/1", sequence="ACGT")
    m2 = Read(read_id="x/2", sequence="ACGT")
    request = decode_request(encode_align_pair("7", m1, m2))
    assert request.pair_id == "x/1"


def test_control_round_trip():
    for rtype in ("stats", "ping"):
        request = decode_request(encode_control("9", rtype))
        assert request.type == rtype
        assert request.reads == []


def test_sequence_uppercased():
    line = json.dumps({"id": "1", "type": "align", "read_id": "r",
                       "sequence": "acgt"})
    assert decode_request(line).reads[0].sequence == "ACGT"


@pytest.mark.parametrize("line", [
    "not json at all",
    "[]",
    json.dumps({"type": "align", "read_id": "r", "sequence": "ACGT"}),
    json.dumps({"id": "1", "type": "nope"}),
    json.dumps({"id": "1", "type": "align", "read_id": "", "sequence": "A"}),
    json.dumps({"id": "1", "type": "align", "read_id": "r",
                "sequence": "AXGT"}),
    json.dumps({"id": "1", "type": "align", "read_id": "r",
                "sequence": "ACGT", "quality": "II"}),
    json.dumps({"id": "1", "type": "align_pair",
                "mate1": {"read_id": "a", "sequence": "ACGT"}}),
])
def test_bad_requests_rejected(line):
    with pytest.raises(ProtocolError) as excinfo:
        decode_request(line)
    assert excinfo.value.request_id in (None, "1")


@pytest.mark.parametrize("line", [
    json.dumps({"id": "1", "type": "align", "read_id": "r",
                "sequence": "ACGNT"}),
    json.dumps({"id": "1", "type": "align", "read_id": "r",
                "sequence": "acgnt"}),
    json.dumps({"id": "1", "type": "align_pair",
                "mate1": {"read_id": "a", "sequence": "ACGT"},
                "mate2": {"read_id": "b", "sequence": "NNNN"}}),
])
def test_non_acgt_bases_rejected(line):
    """The wire admits exactly what the aligner can encode, and the
    refusal names the request it answers."""
    with pytest.raises(ProtocolError, match="invalid bases") as excinfo:
        decode_request(line)
    assert excinfo.value.request_id == "1"


def test_oversized_line_rejected():
    with pytest.raises(ProtocolError):
        decode_request("x" * (MAX_LINE_BYTES + 1))


def test_response_round_trip():
    ok = decode_response(success_response("3", sam=["line"], mapped=True))
    assert ok["ok"] and ok["sam"] == ["line"] and ok["mapped"]
    err = decode_response(error_response("3", "overloaded", "queue full"))
    assert not err["ok"]
    assert err["error"] == "overloaded"
    assert err["message"] == "queue full"


def test_malformed_response_rejected():
    with pytest.raises(ProtocolError):
        decode_response("{}")
    with pytest.raises(ProtocolError):
        decode_response("garbage")


def test_idempotency_key_round_trips():
    read = Read(read_id="r1", sequence="ACGTACGT")
    line = encode_align("7", read, idempotency_key="sess-42")
    assert json.loads(line)["idem"] == "sess-42"
    request = decode_request(line)
    assert request.idempotency_key == "sess-42"
    # Absent by default — the field costs nothing when unused.
    bare = encode_align("8", read)
    assert "idem" not in json.loads(bare)
    assert decode_request(bare).idempotency_key is None


def test_idempotency_key_validated():
    read = Read(read_id="r1", sequence="ACGT")
    payload = json.loads(encode_align("9", read))
    payload["idem"] = ""
    with pytest.raises(ProtocolError, match="idem"):
        decode_request(json.dumps(payload))
    payload["idem"] = 123
    with pytest.raises(ProtocolError, match="idem"):
        decode_request(json.dumps(payload))


def test_budget_ms_round_trips():
    read = Read(read_id="r1", sequence="ACGT")
    request = decode_request(encode_align("1", read, budget_ms=250.0))
    assert request.budget_ms == 250.0
    m2 = Read(read_id="r2", sequence="TTGG")
    request = decode_request(
        encode_align_pair("2", read, m2, budget_ms=1500))
    assert request.budget_ms == 1500.0
    assert isinstance(request.budget_ms, float)


def test_budget_ms_defaults_to_none():
    read = Read(read_id="r1", sequence="ACGT")
    line = encode_align("1", read)
    assert "budget_ms" not in json.loads(line)
    assert decode_request(line).budget_ms is None


@pytest.mark.parametrize("bad", [0, -5, "fast", True])
def test_budget_ms_validated(bad):
    obj = {"id": "1", "type": "align", "read_id": "r",
           "sequence": "ACGT", "budget_ms": bad}
    with pytest.raises(ProtocolError, match="budget_ms"):
        decode_request(json.dumps(obj))


def test_budget_ms_null_reads_as_absent():
    obj = {"id": "1", "type": "align", "read_id": "r",
           "sequence": "ACGT", "budget_ms": None}
    assert decode_request(json.dumps(obj)).budget_ms is None
