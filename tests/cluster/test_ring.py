"""Consistent-hash ring: determinism, balance, minimal remap on skip."""

import hashlib

import pytest

from repro.cluster.ring import DEFAULT_VNODES, HashRing, stable_hash

KEYS = [f"read_{i}" for i in range(400)]


def test_stable_hash_is_sha256_derived_not_process_salted():
    digest = hashlib.sha256(b"read_0").digest()
    expected = int.from_bytes(digest[:8], "big")
    assert stable_hash("read_0") == expected
    # Re-deriving gives the same answer (unlike builtin hash() across
    # interpreter runs).
    assert stable_hash("read_0") == stable_hash("read_0")


def test_route_is_deterministic_across_instances():
    a = HashRing(["s0r0", "s0r1", "s0r2"])
    b = HashRing(["s0r2", "s0r0", "s0r1"])  # insertion order irrelevant
    assert [a.route(k) for k in KEYS] == [b.route(k) for k in KEYS]


def test_vnodes_validation_and_empty_ring():
    with pytest.raises(ValueError):
        HashRing(vnodes=0)
    ring = HashRing()
    with pytest.raises(LookupError):
        ring.route("x")
    with pytest.raises(LookupError):
        ring.preference("x")


def test_duplicate_members_rejected():
    with pytest.raises(ValueError):
        HashRing(["a", "b", "a"])


def test_preference_is_distinct_and_starts_at_route():
    ring = HashRing(["a", "b", "c", "d"])
    for key in KEYS[:50]:
        order = ring.preference(key)
        assert order[0] == ring.route(key)
        assert sorted(order) == ["a", "b", "c", "d"]  # all, no dups
    assert len(ring.preference(KEYS[0], count=2)) == 2


def test_removal_remaps_only_the_removed_members_keys():
    """A ring built without a member orders every key exactly as the
    full ring does with that member filtered out, for every key and
    every member: only the removed member's keys move, each to the next
    distinct member clockwise.  The gateway relies on this — it never
    edits its rings, it skips unroutable members while walking the
    preference order, and gets the failover order removal would give."""
    members = ["a", "b", "c", "d"]
    full = HashRing(members)
    for skipped in members:
        without = HashRing([m for m in members if m != skipped])
        for key in KEYS:
            assert without.preference(key) == [
                m for m in full.preference(key) if m != skipped]


def test_spread_is_roughly_even():
    ring = HashRing(["a", "b", "c", "d"], vnodes=DEFAULT_VNODES)
    counts = ring.spread(KEYS)
    assert sum(counts.values()) == len(KEYS)
    # 400 keys over 4 members: each should land within a loose band of
    # the 100-key ideal (vnode placement keeps skew small, not zero).
    for member, count in counts.items():
        assert 40 <= count <= 180, (member, counts)
