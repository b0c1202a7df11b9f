"""Bit-parallel approximate string matching (the GenASM/GenAx datapath).

Sec. II-B: "Several other algorithms, such as Bitap [GenASM] and Automata
[GenAx], can also be used to perform this phase", and Sec. IV-C discusses
how the Hybrid Units Strategy applies to those designs too. This module
implements both families from scratch:

- :func:`bitap_search` — Wu-Manber Bitap with up to ``k`` errors (the
  algorithm GenASM's hardware parallelises);
- :func:`myers_distances` — Myers' 1999 bit-vector algorithm computing,
  for every text position, the best edit distance of the pattern against a
  substring ending there (semi-global matching). Python's arbitrary-width
  integers serve as the bit vectors, so patterns longer than a machine
  word need no blocking.
- :func:`genasm_latency` — a GenASM-style cycle model (per-text-character
  vector updates over ``ceil(m/W)`` words), the alternative EU timing the
  paper's discussion contemplates.

Everything is oracle-tested against a plain DP edit-distance implementation.
"""

from __future__ import annotations

import math
from typing import Dict, List, Tuple

import numpy as np

from repro.genome import sequence as seq


def edit_distance(a, b) -> int:
    """Plain Levenshtein distance (vectorised DP rows) — the oracle."""
    a_codes = seq.as_codes(a)
    b_codes = seq.as_codes(b)
    if a_codes.size == 0:
        return int(b_codes.size)
    if b_codes.size == 0:
        return int(a_codes.size)
    prev = np.arange(b_codes.size + 1, dtype=np.int64)
    for i, ca in enumerate(a_codes, start=1):
        curr = np.empty_like(prev)
        curr[0] = i
        sub = prev[:-1] + (b_codes != ca)
        # delete from a (vertical) and substitution are vectorisable;
        # the horizontal chain needs a cumulative pass.
        curr[1:] = np.minimum(prev[1:] + 1, sub)
        for j in range(1, curr.size):
            if curr[j - 1] + 1 < curr[j]:
                curr[j] = curr[j - 1] + 1
        prev = curr
    return int(prev[-1])


def _pattern_masks(pattern_codes: np.ndarray) -> Dict[int, int]:
    """Per-symbol occurrence bitmasks (bit i set where pattern[i] == c)."""
    masks = {c: 0 for c in range(seq.ALPHABET_SIZE)}
    for i, code in enumerate(pattern_codes):
        masks[int(code)] |= 1 << i
    return masks


def myers_distances(pattern, text) -> List[int]:
    """Semi-global edit distances via Myers' bit-vector algorithm.

    Returns ``d`` with ``d[j]`` = the minimum edit distance between the
    pattern and any substring of ``text`` ending at position ``j``
    (inclusive). ``min(d)`` is the best approximate-match score anywhere.
    """
    pattern_codes = seq.as_codes(pattern)
    text_codes = seq.as_codes(text)
    m = int(pattern_codes.size)
    if m == 0:
        return [0] * int(text_codes.size)
    masks = _pattern_masks(pattern_codes)
    all_ones = (1 << m) - 1
    high_bit = 1 << (m - 1)

    pv = all_ones
    mv = 0
    score = m
    out: List[int] = []
    for code in text_codes:
        eq = masks[int(code)]
        xv = eq | mv
        xh = (((eq & pv) + pv) ^ pv) | eq
        ph = mv | (~(xh | pv) & all_ones)
        mh = pv & xh
        if ph & high_bit:
            score += 1
        elif mh & high_bit:
            score -= 1
        ph = (ph << 1) & all_ones
        mh = (mh << 1) & all_ones
        pv = (mh | (~(xv | ph) & all_ones))
        mv = ph & xv
        out.append(score)
    return out


def best_semi_global_distance(pattern, text) -> int:
    """Best edit distance of the pattern anywhere in the text."""
    pattern_codes = seq.as_codes(pattern)
    distances = myers_distances(pattern, text)
    if not distances:
        return int(pattern_codes.size)
    return min(int(pattern_codes.size), min(distances))


def bitap_search(pattern, text, max_errors: int = 0) -> List[Tuple[int, int]]:
    """Wu-Manber Bitap: approximate occurrences with <= ``max_errors``.

    Returns ``(end_position, errors)`` pairs, one per text position where
    the pattern matches ending there, with the smallest error level that
    matches. ``end_position`` is inclusive.
    """
    if max_errors < 0:
        raise ValueError(f"max_errors must be >= 0, got {max_errors}")
    pattern_codes = seq.as_codes(pattern)
    text_codes = seq.as_codes(text)
    m = int(pattern_codes.size)
    if m == 0:
        raise ValueError("pattern must be non-empty")
    masks = _pattern_masks(pattern_codes)
    all_ones = (1 << m) - 1
    high_bit = 1 << (m - 1)

    # r[k] = state bitmask with <= k errors; bit i set means a prefix of
    # length i+1 currently matches.
    levels = [0] * (max_errors + 1)
    out: List[Tuple[int, int]] = []
    for j, code in enumerate(text_codes):
        eq = masks[int(code)]
        prev_exact = levels[0]
        levels[0] = ((prev_exact << 1) | 1) & eq & all_ones
        carry_prev = prev_exact
        for k in range(1, max_errors + 1):
            prev_k = levels[k]
            substitution = (carry_prev << 1) | 1
            insertion = carry_prev
            deletion = levels[k - 1] << 1 | 1
            match = ((prev_k << 1) | 1) & eq
            levels[k] = (match | substitution | insertion | deletion) \
                & all_ones
            carry_prev = prev_k
        for k in range(max_errors + 1):
            if levels[k] & high_bit:
                out.append((j, k))
                break
    return out


def bitap_exact_positions(pattern, text) -> List[int]:
    """Exact Bitap (shift-and): start positions of exact occurrences."""
    pattern_codes = seq.as_codes(pattern)
    hits = bitap_search(pattern, text, max_errors=0)
    m = int(pattern_codes.size)
    return [end - m + 1 for end, _ in hits]


def genasm_latency(pattern_len: int, text_len: int,
                   word_bits: int = 64, unroll: int = 1) -> int:
    """GenASM-style cycle model for a bit-parallel extension unit.

    The datapath updates ``ceil(m / word_bits)`` vector words per text
    character; ``unroll`` parallel word-lanes process them concurrently.
    Contrast with the systolic Formula 3: latency is linear in the text
    length and near-insensitive to the pattern length until it crosses a
    word boundary — which is why fixed-width designs like GenASM waste no
    PEs on short hits but iterate on long ones (Sec. IV-C discussion).
    """
    if pattern_len <= 0 or text_len <= 0:
        raise ValueError("lengths must be positive")
    if word_bits <= 0 or unroll <= 0:
        raise ValueError("word_bits and unroll must be positive")
    words = math.ceil(pattern_len / word_bits)
    return text_len * math.ceil(words / unroll)
