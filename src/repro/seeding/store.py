"""Zero-copy memory-mapped index store.

NvWa's throughput story assumes many execution units sharing one reference index; every
worker in this reproduction used to rebuild and privately hold its FM-index instead —
the real barrier to many-worker scale and to bigger genomes.  This module serializes a
:class:`~repro.seeding.bidirectional.BidirectionalFMIndex` (its one FM-index over
``T + revcomp(T)``: BWT, cumulative counts, Occ checkpoints, suffix array, optional SA
sampling mask) plus the encoded reference into a **versioned on-disk format of raw
numpy arrays with a checksummed header**, and loads it back zero-copy via
``np.memmap``: every ``ShardedRunner`` worker process and every ``AlignmentServer``
engine on a box then shares one physical copy through the page cache, and "building"
the index in a fresh process becomes a few ``mmap`` calls instead of a suffix-array
construction.

On-disk layout (little-endian)::

    bytes 0..8    magic  b"REPROIDX"
    bytes 8..12   format version  (uint32)
    bytes 12..16  header length H (uint32)
    bytes 16..48  SHA-256 of the header JSON bytes
    bytes 48..48+H  header JSON (array table, per-array SHA-256, metadata)
    ...padding to a 64-byte boundary...
    raw array payload (each array 64-byte aligned)

Failure modes are *typed* so callers can rebuild instead of silently misaligning
reads: a torn/truncated file or bad magic raises :class:`IndexFormatError`, a format
bump raises :class:`IndexVersionError`, and a checksum mismatch (tampered header, or a
flipped payload byte caught by :meth:`IndexStore.verify`) raises
:class:`IndexChecksumError`.  All three derive from :class:`IndexStoreError`.  Writes
are atomic (temp file + ``os.replace``), so a crash mid-store can never leave a
half-written file behind.
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
import tempfile
from typing import Any, Dict, Optional, Tuple, Union

import numpy as np

from repro import obs
from repro.genome import sequence as seq
from repro.genome.reference import Chromosome, ReferenceGenome
from repro.seeding.bidirectional import BidirectionalFMIndex
from repro.seeding.fmindex import FMIndex

#: File magic: the first eight bytes of every index store.
MAGIC = b"REPROIDX"

#: Bump on any incompatible change to the array set or header schema.  Existing
#: store files then fail :class:`IndexVersionError` on open and are rebuilt (the
#: CI index cache keys on this constant for the same reason).
#: Version 2: one FM-index over ``T + revcomp(T)`` (the FMD-index).
FORMAT_VERSION = 2

#: magic, format version, header length, SHA-256 of the header JSON.
_PREFIX = struct.Struct("<8sII32s")

#: Payload arrays are aligned to this boundary (a cache line), so memory-mapped
#: dtypes never straddle an unaligned base address.
_ALIGNMENT = 64

#: Bytes hashed per read when checksumming array payloads.
_HASH_CHUNK = 1 << 20


class IndexStoreError(Exception):
    """Base class for every index-store failure (detect, then rebuild)."""


class IndexFormatError(IndexStoreError):
    """The file is not an index store, or it is torn/truncated."""


class IndexVersionError(IndexStoreError):
    """The file's format version does not match :data:`FORMAT_VERSION`."""


class IndexChecksumError(IndexStoreError):
    """A stored checksum does not match the bytes on disk."""


def _align_up(value: int) -> int:
    return (value + _ALIGNMENT - 1) // _ALIGNMENT * _ALIGNMENT


def _sha256_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def content_hash_of(header: Dict[str, Any]) -> str:
    """The store's content identity: a digest over metadata + array checksums.

    Two stores built from the same reference with the same index parameters hash
    identically regardless of where or when they were written, so pipelines can
    resolve a prebuilt index by this hash instead of rebuilding.
    """
    identity = {
        "format_version": header["format_version"],
        "meta": header["meta"],
        "arrays": [
            {k: spec[k] for k in ("name", "dtype", "shape", "nbytes", "sha256")}
            for spec in header["arrays"]
        ],
    }
    return _sha256_bytes(json.dumps(identity, sort_keys=True).encode("utf-8"))


def write_index_store(
    path: Union[str, os.PathLike],
    index: BidirectionalFMIndex,
    reference: ReferenceGenome,
    source: str = "",
) -> str:
    """Atomically serialize ``index`` + ``reference`` to ``path``; returns the path.

    The write goes through a temp file in the destination directory and an
    ``os.replace``, so a crash mid-write never leaves a torn store at ``path``.
    """
    path = os.fspath(path)
    ref_codes = seq.encode(reference.concatenated())
    if index.length != int(ref_codes.size):
        raise ValueError(
            f"index covers {index.length} bases but the reference has {ref_codes.size}"
        )
    arrays: Dict[str, np.ndarray] = {"ref_codes": ref_codes}
    arrays.update(index.fm.export_arrays())

    specs = []
    offset = 0
    for name in sorted(arrays):
        arr = np.ascontiguousarray(arrays[name])
        arrays[name] = arr
        offset = _align_up(offset)
        specs.append(
            {
                "name": name,
                "dtype": arr.dtype.str,
                "shape": list(arr.shape),
                "offset": offset,
                "nbytes": int(arr.nbytes),
                "sha256": _sha256_bytes(arr.tobytes()),
            }
        )
        offset += int(arr.nbytes)

    meta = {
        "text_length": index.length,
        "occ_interval": index.fm.occ_interval,
        "sa_sample": index.fm.sa_sample,
        "chromosomes": [[chrom.name, len(chrom)] for chrom in reference.chromosomes],
        "source": source,
    }
    header = {
        "format_version": FORMAT_VERSION,
        "meta": meta,
        "arrays": specs,
        "payload_size": offset,
    }
    header["content_hash"] = content_hash_of(header)
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    data_start = _align_up(_PREFIX.size + len(header_bytes))

    directory = os.path.dirname(path) or "."
    fd, tmp_path = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            prefix = _PREFIX.pack(
                MAGIC, FORMAT_VERSION, len(header_bytes), hashlib.sha256(header_bytes).digest()
            )
            handle.write(prefix)
            handle.write(header_bytes)
            handle.write(b"\x00" * (data_start - _PREFIX.size - len(header_bytes)))
            written = 0
            for spec in specs:
                pad = spec["offset"] - written
                if pad:
                    handle.write(b"\x00" * pad)
                handle.write(arrays[spec["name"]].tobytes())
                written = spec["offset"] + spec["nbytes"]
        os.replace(tmp_path, path)
    except BaseException:
        try:
            os.remove(tmp_path)
        except OSError:
            pass
        raise
    return path


def build_index_store(
    reference: ReferenceGenome,
    path: Union[str, os.PathLike],
    occ_interval: int = 128,
    sa_sample: int = 1,
    source: str = "",
) -> "IndexStore":
    """Build the FMD-index of ``reference`` and persist it at ``path``.

    This is the cold path every other process avoids: the suffix array is
    constructed here, once, and everyone else attaches via ``np.memmap``.
    """
    with obs.span(
        "index_build",
        "seeding",
        text_length=len(reference),
        occ_interval=occ_interval,
        sa_sample=sa_sample,
    ):
        codes = seq.encode(reference.concatenated())
        index = BidirectionalFMIndex(codes, occ_interval=occ_interval, sa_sample=sa_sample)
        write_index_store(path, index, reference, source=source)
    return IndexStore.open(path)


class IndexStore:
    """One opened on-disk index store; all array access is ``np.memmap``-backed.

    Use :meth:`open` (never the constructor).  Opening performs the *structural*
    checks — magic, format version, header checksum, exact file size — which catch
    torn files and version skew in microseconds; :meth:`verify` additionally
    re-hashes every array payload (one sequential read) and catches flipped bytes.
    """

    def __init__(self, path: str, header: Dict[str, Any], data_start: int):
        self.path = path
        self.header = header
        self._data_start = data_start
        self._specs = {spec["name"]: spec for spec in header["arrays"]}
        self._arrays: Dict[str, np.ndarray] = {}

    # ------------------------------------------------------------------ #
    # Opening and validation
    # ------------------------------------------------------------------ #

    @classmethod
    def open(cls, path: Union[str, os.PathLike], verify: bool = False) -> "IndexStore":
        """Attach to a store with structural validation; deep-verify on request.

        Raises:
            IndexFormatError: missing/torn file, bad magic, or size mismatch.
            IndexVersionError: the store was written by a different format version.
            IndexChecksumError: header (or, with ``verify=True``, payload) corrupt.
        """
        path = os.fspath(path)
        with obs.span("index_attach", "seeding", path=os.path.basename(path), verify=verify):
            store = cls._open_structural(path)
            if verify:
                store.verify()
        return store

    @classmethod
    def _open_structural(cls, path: str) -> "IndexStore":
        try:
            size = os.path.getsize(path)
            with open(path, "rb") as handle:
                prefix = handle.read(_PREFIX.size)
                if len(prefix) < _PREFIX.size:
                    raise IndexFormatError(f"{path}: truncated before the header prefix")
                magic, version, header_len, digest = _PREFIX.unpack(prefix)
                if magic != MAGIC:
                    raise IndexFormatError(f"{path}: not an index store (bad magic {magic!r})")
                if version != FORMAT_VERSION:
                    raise IndexVersionError(
                        f"{path}: format version {version} != supported {FORMAT_VERSION}"
                    )
                header_bytes = handle.read(header_len)
        except OSError as exc:
            raise IndexFormatError(f"{path}: unreadable ({exc})") from exc
        if len(header_bytes) < header_len:
            raise IndexFormatError(f"{path}: truncated inside the header")
        if hashlib.sha256(header_bytes).digest() != digest:
            raise IndexChecksumError(f"{path}: header checksum mismatch")
        try:
            header = json.loads(header_bytes.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise IndexFormatError(f"{path}: header is not valid JSON") from exc
        data_start = _align_up(_PREFIX.size + header_len)
        expected = data_start + int(header["payload_size"])
        if size != expected:
            raise IndexFormatError(f"{path}: file size {size} != expected {expected} (torn write?)")
        return cls(path, header, data_start)

    def verify(self) -> None:
        """Re-hash every array payload against the header's checksums.

        One sequential pass over the file — orders of magnitude cheaper than an
        index rebuild, and the only check that catches a flipped payload byte.
        """
        with open(self.path, "rb") as handle:
            for spec in self.header["arrays"]:
                handle.seek(self._data_start + spec["offset"])
                hasher = hashlib.sha256()
                remaining = spec["nbytes"]
                while remaining > 0:
                    chunk = handle.read(min(_HASH_CHUNK, remaining))
                    if not chunk:
                        raise IndexFormatError(f"{self.path}: payload truncated")
                    hasher.update(chunk)
                    remaining -= len(chunk)
                if hasher.hexdigest() != spec["sha256"]:
                    raise IndexChecksumError(
                        f"{self.path}: array {spec['name']!r} checksum mismatch"
                    )
        obs.instant("index_verify", "seeding", path=os.path.basename(self.path))

    # ------------------------------------------------------------------ #
    # Zero-copy array access
    # ------------------------------------------------------------------ #

    def array(self, name: str) -> np.ndarray:
        """The named payload array, memory-mapped read-only (cached per store)."""
        cached = self._arrays.get(name)
        if cached is not None:
            return cached
        spec = self._specs.get(name)
        if spec is None:
            raise KeyError(f"no array {name!r} in {self.path}")
        arr = np.memmap(
            self.path,
            dtype=np.dtype(spec["dtype"]),
            mode="r",
            offset=self._data_start + spec["offset"],
            shape=tuple(spec["shape"]),
        )
        self._arrays[name] = arr
        return arr

    def fmindex(self) -> BidirectionalFMIndex:
        """A mmap-backed :class:`BidirectionalFMIndex`, bit-identical in every query.

        No suffix array is built and no array is copied; the returned index reads
        straight from the page cache shared by every process mapping this file.
        """
        meta = self.header["meta"]
        fm = FMIndex.from_arrays(
            bwt=self.array("bwt"),
            cum=self.array("cum"),
            occ_ckpt=self.array("occ_ckpt"),
            sa=self.array("sa"),
            sa_mask=self.array("sa_mask") if "sa_mask" in self._specs else None,
            length=2 * meta["text_length"],
            occ_interval=meta["occ_interval"],
            sa_sample=meta["sa_sample"],
        )
        return BidirectionalFMIndex.from_fm_index(fm)

    def reference_codes(self) -> np.ndarray:
        """The encoded concatenated reference (uint8 codes, memory-mapped)."""
        return self.array("ref_codes")

    def reference(self) -> ReferenceGenome:
        """Reconstruct the reference genome (chromosome names + sequences).

        This decodes the code array into Python strings, so unlike :meth:`fmindex`
        it is O(n) in genome length; repeat annotations are not preserved.
        """
        codes = self.reference_codes()
        chroms = []
        offset = 0
        for name, length in self.header["meta"]["chromosomes"]:
            end = offset + length
            chroms.append(Chromosome(name, seq.decode(codes[offset:end])))
            offset = end
        return ReferenceGenome(chroms)

    def matches_reference(self, reference: ReferenceGenome) -> bool:
        """True when ``reference`` encodes to exactly this store's reference bytes."""
        codes = seq.encode(reference.concatenated())
        return _sha256_bytes(codes.tobytes()) == self._specs["ref_codes"]["sha256"]

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    @property
    def content_hash(self) -> str:
        """The store's content identity (see :func:`content_hash_of`)."""
        return self.header["content_hash"]

    @property
    def format_version(self) -> int:
        return self.header["format_version"]

    @property
    def meta(self) -> Dict[str, Any]:
        return self.header["meta"]

    def describe(self) -> Dict[str, Any]:
        """A JSON-ready summary for ``repro index inspect``."""
        return {
            "path": self.path,
            "format_version": self.format_version,
            "content_hash": self.content_hash,
            "file_size": os.path.getsize(self.path),
            # one FM-index over T + revcomp(T): both strands of the reference
            "fmd_length": 2 * self.meta["text_length"],
            "meta": self.meta,
            "arrays": [
                {k: spec[k] for k in ("name", "dtype", "shape", "nbytes", "sha256")}
                for spec in self.header["arrays"]
            ],
        }


def attach_or_build(
    path: Union[str, os.PathLike],
    reference: ReferenceGenome,
    occ_interval: int = 128,
    sa_sample: int = 1,
    verify: bool = True,
    source: str = "",
) -> Tuple["IndexStore", bool, Optional[IndexStoreError]]:
    """Attach to the store at ``path``, rebuilding it if missing or corrupt.

    Returns ``(store, mmap_hit, error)`` where ``mmap_hit`` is True when the
    existing file was attached as-is and ``error`` is the typed failure that
    forced a rebuild (``None`` on a hit or a plain cold build).  A detected
    corruption evicts the bad file before rebuilding, so a torn or tampered
    index can never serve queries.
    """
    path = os.fspath(path)
    error: Optional[IndexStoreError] = None
    if os.path.exists(path):
        try:
            store = IndexStore.open(path, verify=verify)
            obs.instant("index_mmap_hit", "seeding", path=os.path.basename(path))
            return store, True, None
        except IndexStoreError as exc:
            error = exc
            obs.instant(
                "index_corrupt",
                "seeding",
                path=os.path.basename(path),
                error=type(exc).__name__,
            )
            try:
                os.remove(path)
            except OSError:
                pass
    obs.instant("index_cold_build", "seeding", path=os.path.basename(path))
    store = build_index_store(
        reference, path, occ_interval=occ_interval, sa_sample=sa_sample, source=source
    )
    return store, False, error
