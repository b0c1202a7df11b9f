"""Scatter/gather merge rule: mapped desc, score desc, shard asc."""

import pytest

from repro.cluster.merge import MergeError, merge_align_payloads


def payload(mapped, score, tag):
    return {"mapped": mapped, "score": score, "sam": [tag]}


def test_mapped_beats_unmapped_regardless_of_score():
    merged = merge_align_payloads([
        (0, payload(False, 99.0, "unmapped")),
        (1, payload(True, 1.0, "mapped")),
    ])
    assert merged["sam"] == ["mapped"]
    assert merged["shard"] == 1


def test_higher_score_wins():
    merged = merge_align_payloads([
        (0, payload(True, 40.0, "low")),
        (1, payload(True, 75.0, "high")),
        (2, payload(True, 60.0, "mid")),
    ])
    assert merged["sam"] == ["high"] and merged["shard"] == 1


def test_score_tie_breaks_to_lowest_shard():
    candidates = [
        (2, payload(True, 50.0, "shard2")),
        (1, payload(True, 50.0, "shard1")),
    ]
    merged = merge_align_payloads(candidates)
    assert merged["shard"] == 1
    # Order of arrival must not matter.
    assert merge_align_payloads(list(reversed(candidates))) == merged


def test_missing_score_sorts_below_any_present_score():
    merged = merge_align_payloads([
        (0, {"mapped": True, "sam": ["scoreless"]}),
        (1, payload(True, 0.0, "scored")),
    ])
    assert merged["sam"] == ["scored"]


def test_winner_passes_through_verbatim():
    rich = {"mapped": True, "score": 9.0, "sam": ["line"],
            "pair": {"proper": True}}
    merged = merge_align_payloads([(0, rich), (1, payload(False, None,
                                                          "no"))])
    assert merged["pair"] == {"proper": True}
    assert merged["shard"] == 0
    # The input payload is not mutated.
    assert "shard" not in rich


def test_merge_rejects_empty_and_duplicate_shards():
    with pytest.raises(MergeError):
        merge_align_payloads([])
    with pytest.raises(MergeError):
        merge_align_payloads([(0, payload(True, 1, "a")),
                              (0, payload(True, 2, "b"))])
