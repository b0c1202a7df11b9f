"""Consistent hashing for backend selection.

The gateway routes each request onto one backend out of a replica group;
the mapping must be (a) deterministic — the same read id always lands on
the same backend, so caches and idempotency state stay warm — and
(b) stable when a member is unavailable — skipping one backend must
remap only the keys that backend owned, not reshuffle the whole keyspace
the way ``hash(key) % n`` would.

Classic consistent hashing: every member owns ``vnodes`` points on a
2^64 ring (SHA-256-derived, so placement is identical across processes
and Python versions — builtin ``hash`` is salted per process and must
never be used here).  A key routes to the first member point clockwise
from the key's own point.  :meth:`HashRing.preference` walks further
clockwise to yield a deterministic failover order over the
*distinct* members, which is how the gateway picks the next replica.
"""

from __future__ import annotations

import bisect
import hashlib
from typing import Dict, List, Sequence, Tuple

#: Virtual nodes per member: enough that 2-8 members split the keyspace
#: within a few percent of even, small enough that building the ring
#: stays trivially cheap.
DEFAULT_VNODES = 64

_RING_BITS = 64
_RING_MASK = (1 << _RING_BITS) - 1


def stable_hash(key: str) -> int:
    """A process-independent 64-bit hash of ``key`` (SHA-256 prefix)."""
    digest = hashlib.sha256(key.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") & _RING_MASK


class HashRing:
    """A consistent-hash ring over a fixed set of named members.

    The sorted point list is built once, at construction; routing is a
    binary search.  Membership never changes: the gateway walks
    :meth:`preference` and skips the members it cannot route to right
    now, which yields exactly the order a ring without them would.
    """

    def __init__(self, members: Sequence[str] = (),
                 vnodes: int = DEFAULT_VNODES):
        if vnodes < 1:
            raise ValueError(f"vnodes must be >= 1, got {vnodes}")
        if len(set(members)) != len(members):
            raise ValueError(f"duplicate ring members: {list(members)}")
        self.vnodes = vnodes
        self._members: List[str] = list(members)
        self._points: List[Tuple[int, str]] = sorted(
            (stable_hash(f"{member}#{vnode}"), member)
            for member in self._members for vnode in range(vnodes))
        self._keys = [point for point, _ in self._points]

    def route(self, key: str) -> str:
        """The member owning ``key`` (first ring point clockwise)."""
        if not self._members:
            raise LookupError("ring has no members")
        index = bisect.bisect_right(self._keys, stable_hash(key))
        if index == len(self._points):
            index = 0
        return self._points[index][1]

    def preference(self, key: str, count: int = 0) -> List[str]:
        """Distinct members in clockwise order from ``key``'s point.

        The first entry is :meth:`route`'s answer; the rest are the
        deterministic failover order.  ``count`` truncates (0 = all
        members).
        """
        if not self._members:
            raise LookupError("ring has no members")
        want = len(self._members) if count <= 0 else min(count,
                                                         len(self._members))
        start = bisect.bisect_right(self._keys, stable_hash(key))
        seen: Dict[str, None] = {}
        for step in range(len(self._points)):
            _, member = self._points[(start + step) % len(self._points)]
            if member not in seen:
                seen[member] = None
                if len(seen) == want:
                    break
        return list(seen)

    def spread(self, keys: Sequence[str]) -> Dict[str, int]:
        """Keys per member for ``keys`` (balance diagnostics/tests)."""
        counts = {member: 0 for member in self._members}
        for key in keys:
            counts[self.route(key)] += 1
        return counts
