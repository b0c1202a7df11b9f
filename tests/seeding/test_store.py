"""The zero-copy index store: bit-identity, failure modes, recovery."""

import os

import numpy as np
import pytest

from repro.genome import sequence as seq
from repro.genome.reference import SyntheticReference
from repro.seeding.bidirectional import BidirectionalFMIndex
from repro.seeding.store import (
    FORMAT_VERSION,
    IndexChecksumError,
    IndexFormatError,
    IndexStore,
    IndexStoreError,
    IndexVersionError,
    attach_or_build,
    build_index_store,
    write_index_store,
)


def _reference(seed, length=4_000, chromosomes=2):
    return SyntheticReference(length=length, chromosomes=chromosomes,
                              seed=seed).build()


def _flip_byte(path, offset_from_end=64):
    size = os.path.getsize(path)
    pos = size - offset_from_end
    with open(path, "r+b") as handle:
        handle.seek(pos)
        byte = handle.read(1)
        handle.seek(pos)
        handle.write(bytes([byte[0] ^ 0xFF]))


@pytest.fixture(scope="module")
def built(tmp_path_factory):
    """One store + its in-memory twin, shared across read-only tests."""
    reference = _reference(seed=3)
    path = tmp_path_factory.mktemp("store") / "ref.idx"
    store = build_index_store(reference, path, occ_interval=64)
    memory = BidirectionalFMIndex(seq.encode(reference.concatenated()),
                                  occ_interval=64)
    return reference, str(path), store, memory


class TestBitIdentity:
    """Acceptance criterion: mmap-backed queries == in-memory queries."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_queries_bit_identical_across_seeds(self, tmp_path, seed):
        reference = _reference(seed=seed)
        codes = seq.encode(reference.concatenated())
        memory = BidirectionalFMIndex(codes, occ_interval=64)
        store = build_index_store(reference, tmp_path / f"s{seed}.idx",
                                  occ_interval=64)
        mapped = store.fmindex()
        rng = np.random.default_rng(seed)
        for trial in range(40):
            length = int(rng.integers(8, 40))
            start = int(rng.integers(0, codes.size - length))
            pattern = codes[start:start + length]
            if trial % 5 == 0:  # also probe absent patterns
                pattern = rng.integers(0, 4, size=length).astype(np.uint8)
            a = memory.search(pattern)
            b = mapped.search(pattern)
            assert (a.k, a.l, a.s) == (b.k, b.l, b.s)
            assert memory.locate(a, length) == mapped.locate(b, length)

    def test_component_counts_match(self, built):
        _, _, store, memory = built
        mapped = store.fmindex()
        for probe in ("ACGT", "TTTT", "GATTACA"):
            assert mapped.fm.count(probe) == memory.fm.count(probe)

    def test_sa_sampling_round_trips(self, tmp_path):
        reference = _reference(seed=5, length=2_000, chromosomes=1)
        codes = seq.encode(reference.concatenated())
        memory = BidirectionalFMIndex(codes, occ_interval=64, sa_sample=4)
        write_index_store(tmp_path / "s.idx", memory, reference)
        mapped = IndexStore.open(tmp_path / "s.idx").fmindex()
        assert mapped.fm.sa_sample == 4
        assert mapped.fm._sa_mask is not None
        pattern = codes[50:70]
        assert (mapped.locate(mapped.search(pattern), 20)
                == memory.locate(memory.search(pattern), 20))


class TestZeroCopy:
    def test_arrays_are_memmapped(self, built):
        _, _, store, _ = built
        assert isinstance(store.array("bwt"), np.memmap)
        assert isinstance(store.reference_codes(), np.memmap)
        # Cached: repeated access returns the same mapping, not a new one.
        assert store.array("bwt") is store.array("bwt")

    def test_two_opens_share_the_file(self, built):
        _, path, store, _ = built
        other = IndexStore.open(path)
        assert np.array_equal(other.array("sa"), store.array("sa"))
        # Distinct FMIndex objects (private stats), same backing bytes.
        assert other.fmindex() is not store.fmindex()


class TestMetadata:
    def test_reference_round_trips(self, built):
        reference, _, store, _ = built
        rebuilt = store.reference()
        assert rebuilt.concatenated() == reference.concatenated()
        assert ([c.name for c in rebuilt.chromosomes]
                == [c.name for c in reference.chromosomes])

    def test_matches_reference(self, built):
        reference, _, store, _ = built
        assert store.matches_reference(reference)
        assert not store.matches_reference(_reference(seed=99))

    def test_content_hash_is_reproducible(self, built, tmp_path):
        reference, _, store, _ = built
        again = build_index_store(reference, tmp_path / "again.idx",
                                  occ_interval=64)
        assert again.content_hash == store.content_hash

    def test_content_hash_tracks_parameters(self, built, tmp_path):
        reference, _, store, _ = built
        other = build_index_store(reference, tmp_path / "other.idx",
                                  occ_interval=128)
        assert other.content_hash != store.content_hash

    def test_describe_is_json_ready(self, built):
        import json
        _, _, store, _ = built
        desc = json.loads(json.dumps(store.describe()))
        assert desc["format_version"] == FORMAT_VERSION
        assert desc["meta"]["occ_interval"] == 64
        assert desc["fmd_length"] == 2 * desc["meta"]["text_length"]
        names = {spec["name"] for spec in desc["arrays"]}
        # one FMD component over T + revcomp(T), plus the reference codes
        assert names == {"ref_codes", "bwt", "cum", "occ_ckpt", "sa"}
        bwt = next(spec for spec in desc["arrays"] if spec["name"] == "bwt")
        assert bwt["shape"] == [desc["fmd_length"] + 1]

    def test_no_tmp_left_behind(self, built):
        _, path, _, _ = built
        leftovers = [name for name in os.listdir(os.path.dirname(path))
                     if name.endswith(".tmp")]
        assert leftovers == []

    def test_write_rejects_mismatched_reference(self, built, tmp_path):
        _, _, _, memory = built
        with pytest.raises(ValueError, match="bases"):
            write_index_store(tmp_path / "bad.idx", memory,
                              _reference(seed=9, length=1_000,
                                         chromosomes=1))


class TestFailureModes:
    """Every corruption is a *typed* error, never a silent misalignment."""

    def _fresh(self, tmp_path):
        reference = _reference(seed=7, length=2_000, chromosomes=1)
        path = str(tmp_path / "victim.idx")
        build_index_store(reference, path, occ_interval=64)
        return reference, path

    def test_truncated_file_raises_format_error(self, tmp_path):
        _, path = self._fresh(tmp_path)
        size = os.path.getsize(path)
        with open(path, "r+b") as handle:
            handle.truncate(size // 2)
        with pytest.raises(IndexFormatError, match="torn|truncated|size"):
            IndexStore.open(path)

    def test_truncation_inside_prefix(self, tmp_path):
        _, path = self._fresh(tmp_path)
        with open(path, "r+b") as handle:
            handle.truncate(10)
        with pytest.raises(IndexFormatError):
            IndexStore.open(path)

    def test_bad_magic_raises_format_error(self, tmp_path):
        _, path = self._fresh(tmp_path)
        with open(path, "r+b") as handle:
            handle.write(b"NOTANIDX")
        with pytest.raises(IndexFormatError, match="magic"):
            IndexStore.open(path)

    def test_version_bump_raises_version_error(self, tmp_path):
        _, path = self._fresh(tmp_path)
        with open(path, "r+b") as handle:
            handle.seek(8)
            handle.write((FORMAT_VERSION + 1).to_bytes(4, "little"))
        with pytest.raises(IndexVersionError, match="version"):
            IndexStore.open(path)

    def test_two_component_format_raises_version_error(self, tmp_path):
        """A version-1 file (separate T and reverse(T) indexes) is refused."""
        _, path = self._fresh(tmp_path)
        with open(path, "r+b") as handle:
            handle.seek(8)
            handle.write((1).to_bytes(4, "little"))
        with pytest.raises(IndexVersionError, match="version 1 "):
            IndexStore.open(path)

    def test_flipped_header_byte_raises_checksum_error(self, tmp_path):
        _, path = self._fresh(tmp_path)
        with open(path, "r+b") as handle:
            handle.seek(60)  # inside the JSON header
            byte = handle.read(1)
            handle.seek(60)
            handle.write(bytes([byte[0] ^ 0x01]))
        with pytest.raises(IndexChecksumError, match="header"):
            IndexStore.open(path)

    def test_flipped_payload_byte_caught_by_verify(self, tmp_path):
        _, path = self._fresh(tmp_path)
        _flip_byte(path)
        # Structural open cannot see a payload flip...
        store = IndexStore.open(path)
        # ...but deep verification must.
        with pytest.raises(IndexChecksumError, match="checksum"):
            store.verify()
        with pytest.raises(IndexChecksumError):
            IndexStore.open(path, verify=True)

    def test_all_errors_share_the_base_class(self):
        for error in (IndexFormatError, IndexVersionError,
                      IndexChecksumError):
            assert issubclass(error, IndexStoreError)


class TestAttachOrBuild:
    def test_cold_build_then_mmap_hit(self, tmp_path):
        reference = _reference(seed=4, length=2_000, chromosomes=1)
        path = tmp_path / "a.idx"
        first, hit, error = attach_or_build(path, reference,
                                            occ_interval=64)
        assert (hit, error) == (False, None)
        second, hit, error = attach_or_build(path, reference,
                                             occ_interval=64)
        assert (hit, error) == (True, None)
        assert second.content_hash == first.content_hash

    @pytest.mark.parametrize("corruption", ["truncate", "flip", "version"])
    def test_corruption_triggers_rebuild(self, tmp_path, corruption):
        reference = _reference(seed=4, length=2_000, chromosomes=1)
        path = str(tmp_path / "b.idx")
        original = build_index_store(reference, path, occ_interval=64)
        expected = original.content_hash
        if corruption == "truncate":
            with open(path, "r+b") as handle:
                handle.truncate(os.path.getsize(path) // 3)
        elif corruption == "flip":
            _flip_byte(path)
        else:
            with open(path, "r+b") as handle:
                handle.seek(8)
                handle.write((FORMAT_VERSION + 7).to_bytes(4, "little"))
        store, hit, error = attach_or_build(path, reference,
                                            occ_interval=64)
        assert not hit
        assert isinstance(error, IndexStoreError)
        assert store.content_hash == expected
        # The rebuilt file is healthy: deep verification passes.
        IndexStore.open(path, verify=True).verify()


class TestFromArrays:
    def test_rejects_inconsistent_lengths(self):
        from repro.seeding.fmindex import FMIndex
        with pytest.raises(ValueError, match="BWT"):
            FMIndex.from_arrays(
                bwt=np.zeros(5, dtype=np.uint8),
                cum=np.zeros(5, dtype=np.int64),
                occ_ckpt=np.zeros((1, 4), dtype=np.int64),
                sa=np.zeros(5, dtype=np.int64),
                sa_mask=None, length=99, occ_interval=64, sa_sample=1)

    def test_export_arrays_keys(self, built):
        _, _, _, memory = built
        exported = memory.fm.export_arrays()
        assert set(exported) == {"bwt", "cum", "occ_ckpt", "sa"}
