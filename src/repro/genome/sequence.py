"""DNA sequence primitives.

The whole stack works on 2-bit-encodable DNA over the alphabet ``ACGT``.
Sequences are represented either as Python strings (for readability at API
boundaries) or as ``numpy`` ``uint8`` code arrays (for the index structures
and dynamic-programming kernels). This module owns the conversions and the
basic sequence operations every other package builds on.
"""

from __future__ import annotations

import random
from typing import Iterable, Sequence, Union

import numpy as np

#: Canonical DNA alphabet in code order. Code ``i`` is ``ALPHABET[i]``.
ALPHABET = "ACGT"

#: Number of symbols in the DNA alphabet.
ALPHABET_SIZE = 4

#: Sentinel code used by the BWT machinery; strictly smaller than every base.
SENTINEL_CODE = -1

_BASE_TO_CODE = {base: code for code, base in enumerate(ALPHABET)}
_COMPLEMENT = {"A": "T", "C": "G", "G": "C", "T": "A", "N": "N"}

_ENCODE_LUT = np.full(256, 255, dtype=np.uint8)
for _base, _code in _BASE_TO_CODE.items():
    _ENCODE_LUT[ord(_base)] = _code
    _ENCODE_LUT[ord(_base.lower())] = _code

_DECODE_LUT = np.frombuffer(ALPHABET.encode("ascii"), dtype=np.uint8)


class SequenceError(ValueError):
    """Raised when a string is not a valid DNA sequence."""


def _resolve_rng(rng: Union[random.Random, int]) -> random.Random:
    """Accept a ``random.Random`` or an int seed; reject anything else.

    The stochastic helpers deliberately have no unseeded fallback: an
    RNG the caller did not choose is an RNG nobody can replay.
    """
    if isinstance(rng, random.Random):
        return rng
    if isinstance(rng, int) and not isinstance(rng, bool):
        return random.Random(rng)
    raise TypeError(
        f"rng must be a random.Random or an int seed, got {rng!r}; "
        "unseeded generation is not reproducible")


def encode(sequence: str) -> np.ndarray:
    """Encode a DNA string into a ``uint8`` code array (A=0, C=1, G=2, T=3).

    Raises :class:`SequenceError` on characters outside ``ACGTacgt``.
    """
    raw = np.frombuffer(sequence.encode("ascii"), dtype=np.uint8)
    codes = _ENCODE_LUT[raw]
    if codes.size and codes.max(initial=0) == 255:
        bad = sequence[int(np.argmax(codes == 255))]
        raise SequenceError(f"invalid DNA character {bad!r}")
    return codes


def as_codes(value: Union[str, np.ndarray]) -> np.ndarray:
    """A ``uint8`` code array for a DNA string or an existing code array."""
    if isinstance(value, np.ndarray):
        return np.asarray(value, dtype=np.uint8)
    return encode(value)


def decode(codes: Union[np.ndarray, Sequence[int]]) -> str:
    """Decode a code array back into a DNA string."""
    arr = np.asarray(codes, dtype=np.uint8)
    if arr.size and int(arr.max()) >= ALPHABET_SIZE:
        raise SequenceError(f"invalid DNA code {int(arr.max())}")
    return _DECODE_LUT[arr].tobytes().decode("ascii")


def complement_code(codes: np.ndarray) -> np.ndarray:
    """Complement of a code array (A<->T, C<->G), i.e. ``3 - code``."""
    return (3 - np.asarray(codes, dtype=np.uint8)).astype(np.uint8)


def reverse_complement(sequence: str) -> str:
    """Reverse complement of a DNA string."""
    try:
        return "".join(_COMPLEMENT[base] for base in reversed(sequence.upper()))
    except KeyError as exc:
        raise SequenceError(f"invalid DNA character {exc.args[0]!r}") from exc


def reverse_complement_code(codes: np.ndarray) -> np.ndarray:
    """Reverse complement of a code array."""
    return complement_code(codes)[::-1].copy()


def is_valid(sequence: str) -> bool:
    """True if ``sequence`` contains only ``ACGT`` (case-insensitive)."""
    return all(base in _BASE_TO_CODE for base in sequence.upper())


def random_sequence(length: int, rng: Union[random.Random, int],
                    gc_content: float = 0.5) -> str:
    """Generate a random DNA string with the requested GC content.

    ``rng`` is required — either a ``random.Random`` instance or an int
    seed — so every generated sequence is reproducible by construction.
    (Historically this defaulted to an *unseeded* ``random.Random()``,
    which silently made reads irreproducible; ``repro lint`` rule DET101
    now guards against reintroducing that.)

    ``gc_content`` is the probability mass assigned to G+C (split evenly);
    A and T share the remainder evenly.
    """
    if not 0.0 <= gc_content <= 1.0:
        raise ValueError(f"gc_content must be in [0, 1], got {gc_content}")
    rng = _resolve_rng(rng)
    weights = [(1 - gc_content) / 2, gc_content / 2,
               gc_content / 2, (1 - gc_content) / 2]
    return "".join(rng.choices(ALPHABET, weights=weights, k=length))


def mutate(sequence: str, rate: float, rng: Union[random.Random, int]) -> str:
    """Return a copy of ``sequence`` with each base substituted with
    probability ``rate`` (substitutions only; used to build repeat families).

    ``rng`` is required (instance or int seed); see :func:`random_sequence`.
    """
    if not 0.0 <= rate <= 1.0:
        raise ValueError(f"rate must be in [0, 1], got {rate}")
    rng = _resolve_rng(rng)
    out = []
    for base in sequence.upper():
        if rng.random() < rate:
            choices = [b for b in ALPHABET if b != base]
            out.append(rng.choice(choices))
        else:
            out.append(base)
    return "".join(out)


def hamming_distance(a: str, b: str) -> int:
    """Number of mismatching positions between equal-length strings."""
    if len(a) != len(b):
        raise ValueError("hamming_distance requires equal-length sequences")
    return sum(1 for x, y in zip(a, b) if x != y)


def kmers(sequence: str, k: int) -> Iterable[str]:
    """Yield every k-mer of ``sequence`` left to right."""
    if k <= 0:
        raise ValueError(f"k must be positive, got {k}")
    for i in range(len(sequence) - k + 1):
        yield sequence[i:i + k]


def gc_fraction(sequence: str) -> float:
    """Fraction of G/C bases; 0.0 for the empty sequence."""
    if not sequence:
        return 0.0
    upper = sequence.upper()
    return (upper.count("G") + upper.count("C")) / len(upper)
