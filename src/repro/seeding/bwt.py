"""Suffix array and Burrows-Wheeler transform construction.

These are the index-building primitives under the FM-index (Sec. II-B of the
paper: "The FM-index search algorithm realizes a fast search ... by
retrieving a BWT-based compression index structure").

The suffix array is built with the prefix-doubling algorithm vectorised over
numpy, O(n log² n) — comfortably fast for the multi-megabase synthetic
references this reproduction indexes. The BWT is derived from the suffix
array over the text extended with a terminal sentinel, which is the form the
FM-index consumes.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

#: Code used for the sentinel character in BWT arrays (bases are 0..3).
SENTINEL = 4

#: Largest ``base`` with ``base * base`` inside int64 (see :func:`suffix_array`).
_MAX_KEY_BASE = 3_037_000_499


def suffix_array(codes: np.ndarray) -> np.ndarray:
    """Suffix array of a code array (no sentinel), prefix doubling.

    Returns an ``int64`` array ``sa`` with ``sa[r]`` = start position of the
    rank-``r`` suffix. Suffix comparison treats the end of text as smaller
    than any symbol, which matches sentinel-terminated semantics.
    """
    codes = np.asarray(codes)
    n = codes.size
    if n == 0:
        return np.empty(0, dtype=np.int64)
    rank = codes.astype(np.int64)
    # Each round sorts (rank[i], rank[i + k] + 1 or 0 past the end) as one
    # int64 key; tied suffixes get one new rank, so their order is free.
    base = max(n, int(rank.max()) + 1) + 1
    if base > _MAX_KEY_BASE:
        raise ValueError(f"{base - 1} distinct ranks overflow int64 sort keys")
    k = 1
    while True:
        key = rank * base
        if k < n:
            key[: n - k] += rank[k:] + 1
        order = np.argsort(key)
        sorted_key = key[order]
        changed = np.empty(n, dtype=np.int64)
        changed[0] = 0
        np.not_equal(sorted_key[1:], sorted_key[:-1], out=changed[1:])
        rank = np.empty(n, dtype=np.int64)
        rank[order] = np.cumsum(changed)
        if rank[order[-1]] == n - 1:
            return order.astype(np.int64)
        k *= 2


def extended_suffix_array(codes: np.ndarray) -> np.ndarray:
    """Suffix array of ``codes`` + sentinel: length n+1, ``sa[0] == n``."""
    n = int(np.asarray(codes).size)
    sa = suffix_array(codes)
    out = np.empty(n + 1, dtype=np.int64)
    out[0] = n
    out[1:] = sa
    return out


def bwt_from_suffix_array(codes: np.ndarray, sa_ext: np.ndarray) -> np.ndarray:
    """BWT over the sentinel-extended text.

    ``bwt[r] = text[sa_ext[r] - 1]``; the row whose suffix starts at position
    0 gets :data:`SENTINEL`. Output dtype is ``uint8`` with values 0..4.
    """
    codes = np.asarray(codes, dtype=np.uint8)
    n = codes.size
    if sa_ext.size != n + 1:
        raise ValueError(f"suffix array length {sa_ext.size} != text length + 1 ({n + 1})")
    bwt = np.empty(n + 1, dtype=np.uint8)
    prev = sa_ext - 1
    zero_rows = sa_ext == 0
    bwt[zero_rows] = SENTINEL
    bwt[~zero_rows] = codes[prev[~zero_rows]]
    return bwt


def bwt(codes: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Convenience: ``(bwt, extended_sa)`` of a code array."""
    sa_ext = extended_suffix_array(codes)
    return bwt_from_suffix_array(codes, sa_ext), sa_ext


def inverse_bwt(bwt_codes: np.ndarray) -> np.ndarray:
    """Recover the original code array from a sentinel-extended BWT.

    Used only for verification — it proves the transform is lossless.
    """
    bwt_codes = np.asarray(bwt_codes, dtype=np.uint8)
    m = bwt_codes.size
    if m == 0:
        return np.empty(0, dtype=np.uint8)
    sentinels = int(np.count_nonzero(bwt_codes == SENTINEL))
    if sentinels != 1:
        raise ValueError(f"BWT must contain exactly one sentinel, got {sentinels}")
    # LF mapping: stable rank of each symbol occurrence. The sentinel must
    # sort before every base, so remap it below zero for the sort key.
    keys = bwt_codes.astype(np.int64)
    keys[keys == SENTINEL] = -1
    order = np.argsort(keys, kind="stable")
    lf = np.empty(m, dtype=np.int64)
    lf[order] = np.arange(m)
    # Row 0 holds the sentinel suffix; its BWT symbol is the last text char.
    # Following LF walks the text right to left.
    out = np.empty(m - 1, dtype=np.uint8)
    row = 0
    for i in range(m - 2, -1, -1):
        out[i] = bwt_codes[row]
        row = int(lf[row])
    return out
