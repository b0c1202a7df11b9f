"""SAM output tests."""

import importlib.util
import io
from pathlib import Path

import pytest

from repro.align.pipeline import SoftwareAligner
from repro.align.sam import (
    FLAG_REVERSE,
    FLAG_UNMAPPED,
    mapq_estimate,
    sam_header,
    sam_record,
    validate_record,
    write_sam,
)
from repro.genome.reads import ErrorModel, Read, ReadSimulator
from repro.genome.reference import SyntheticReference


@pytest.fixture(scope="module")
def reference():
    return SyntheticReference(length=30_000, chromosomes=2, seed=61).build()


@pytest.fixture(scope="module")
def results(reference):
    aligner = SoftwareAligner(reference, occ_interval=64)
    sim = ReadSimulator(reference, read_length=80,
                        error_model=ErrorModel(0, 0, 0), seed=1)
    return aligner.align_all(sim.simulate(12))


class TestHeader:
    def test_sq_lines(self, reference):
        lines = sam_header(reference)
        assert lines[0].startswith("@HD")
        sq = [l for l in lines if l.startswith("@SQ")]
        assert len(sq) == 2
        assert f"LN:{len(reference.chromosomes[0])}" in sq[0]


class TestRecords:
    def test_mapped_record_fields(self, reference, results):
        result = next(r for r in results if r.aligned)
        fields = sam_record(result, reference).split("\t")
        assert fields[0] == result.read.read_id
        assert fields[2] in reference.names
        assert int(fields[3]) >= 1
        assert 0 <= int(fields[4]) <= 60
        assert "M" in fields[5]
        assert len(fields[9]) == len(result.read.sequence)

    def test_reverse_flag_and_revcomp(self, reference, results):
        reverse = next((r for r in results
                        if r.aligned and r.best.reverse), None)
        if reverse is None:
            pytest.skip("no reverse-strand read in this sample")
        fields = sam_record(reverse, reference).split("\t")
        assert int(fields[1]) & FLAG_REVERSE
        from repro.genome.sequence import reverse_complement
        assert fields[9] == reverse_complement(reverse.read.sequence)

    def test_unmapped_record(self, reference):
        from repro.align.pipeline import ReadAlignment
        result = ReadAlignment(read=Read("u", "ACGT" * 10), best=None)
        fields = sam_record(result, reference).split("\t")
        assert int(fields[1]) & FLAG_UNMAPPED
        assert fields[2] == "*"

    def test_position_matches_locate(self, reference, results):
        result = next(r for r in results if r.aligned)
        fields = sam_record(result, reference).split("\t")
        chrom, local = reference.locate(result.best.ref_start)
        assert fields[2] == chrom
        assert int(fields[3]) == local + 1

    def test_soft_clipping_consistency(self, reference, results):
        """CIGAR (with clips) must consume the whole read."""
        from repro.extension.alignment import Cigar
        for result in results:
            if not result.aligned:
                continue
            fields = sam_record(result, reference).split("\t")
            cigar = Cigar.parse(fields[5])
            assert cigar.query_length == len(result.read.sequence)


class TestWriteSam:
    def test_roundtrip_to_buffer(self, reference, results):
        buffer = io.StringIO()
        mapped = write_sam(results, reference, buffer)
        lines = buffer.getvalue().strip().split("\n")
        body = [l for l in lines if not l.startswith("@")]
        assert len(body) == len(results)
        assert mapped == sum(1 for r in results if r.aligned)

    def test_write_to_file(self, reference, results, tmp_path):
        path = tmp_path / "out.sam"
        write_sam(results, reference, path)
        content = path.read_text()
        assert content.startswith("@HD")


class TestParseSam:
    def test_roundtrip(self, reference, results):
        from repro.align.sam import parse_sam
        buffer = io.StringIO()
        write_sam(results, reference, buffer)
        buffer.seek(0)
        records = list(parse_sam(buffer))
        assert len(records) == len(results)
        for record, result in zip(records, results):
            assert record.qname == result.read.read_id
            if result.aligned:
                assert not record.is_unmapped
                chrom, local = reference.locate(result.best.ref_start)
                assert record.rname == chrom
                assert record.pos == local + 1
                assert record.is_reverse == result.best.reverse
            else:
                assert record.is_unmapped

    def test_truncated_line_rejected(self):
        from repro.align.sam import parse_sam
        with pytest.raises(ValueError):
            list(parse_sam(io.StringIO("r1\t0\tchr1\n")))

    def test_header_skipped(self):
        from repro.align.sam import parse_sam
        text = "@HD\tVN:1.6\n@SQ\tSN:c\tLN:4\n"
        assert list(parse_sam(io.StringIO(text))) == []


class TestMapq:
    def test_unique_full_score(self):
        assert mapq_estimate(100, None, 100) == 60

    def test_tie_is_zero(self):
        assert mapq_estimate(80, 80, 100) == 0

    def test_gap_scales(self):
        low = mapq_estimate(80, 78, 100)
        high = mapq_estimate(80, 40, 100)
        assert 0 <= low < high <= 60

    def test_nonpositive_score(self):
        assert mapq_estimate(0, None, 100) == 0

    def test_invalid_read_length(self):
        with pytest.raises(ValueError):
            mapq_estimate(10, None, 0)


class TestValidateRecord:
    CONTIGS = {"chr1": 100}
    READ = "ACGTACGTAC"

    def line(self, flag=0, rname="chr1", pos=11, cigar="2S8M",
             sequence=READ, mapq=60):
        return "\t".join(["r1", str(flag), rname, str(pos), str(mapq), cigar,
                          "*", "0", "0", sequence, "I" * len(sequence)])

    def test_valid_records_pass(self):
        validate_record(self.line(), self.CONTIGS, self.READ)
        validate_record(self.line(cigar="3M1I2M1D4M", pos=90), self.CONTIGS)
        from repro.genome.sequence import reverse_complement
        validate_record(self.line(flag=FLAG_REVERSE,
                                  sequence=reverse_complement(self.READ)),
                        self.CONTIGS, self.READ)
        validate_record(self.line(flag=FLAG_UNMAPPED, rname="*", pos=0,
                                  cigar="*", mapq=0), self.CONTIGS)

    @pytest.mark.parametrize("fields, reason", [
        ({"cigar": "9M"}, "consumes 9 of 10"),
        ({"cigar": "2S7M2S"}, "consumes 11 of 10"),
        ({"cigar": "4M2S4M"}, "clips inside"),
        ({"cigar": "10S"}, "aligns no base"),
        ({"cigar": "10Q"}, "malformed"),
        ({"pos": 94}, "outside chr1"),
        ({"pos": 0}, "outside chr1"),
        ({"rname": "chr2"}, "unknown contig"),
        ({"flag": FLAG_UNMAPPED}, "unmapped record with a locus"),
        ({"flag": FLAG_UNMAPPED | FLAG_REVERSE, "rname": "*", "pos": 0,
          "cigar": "*", "mapq": 0}, "unmapped record with a strand"),
        ({"flag": FLAG_REVERSE}, "strand its flag names"),
    ])
    def test_invalid_records_raise(self, fields, reason):
        with pytest.raises(ValueError, match=reason):
            validate_record(self.line(**fields), self.CONTIGS, self.READ)

    def test_truncated_record_raises(self):
        with pytest.raises(ValueError, match="fields"):
            validate_record("r1\t0\tchr1", self.CONTIGS)


def _bench_inputs():
    """The benchmark's read-pool generators (``perfbench/inputs.py``)."""
    path = Path(__file__).resolve().parents[2] / "perfbench" / "inputs.py"
    spec = importlib.util.spec_from_file_location("bench_inputs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("pool", ["unique", "repeat"])
def test_every_record_of_both_bench_pools_is_valid(pool):
    """Both benchmark pools: unique reads with Illumina errors, and reads
    from near-identical repeat copies (several equal-score hits each)."""
    inputs = _bench_inputs()
    reference = getattr(inputs, f"{pool}_reference")()
    reads = getattr(inputs, f"{pool}_reads")(reference, 3, 120)
    contigs = {chrom.name: len(chrom) for chrom in reference.chromosomes}
    results = SoftwareAligner(reference).align_all(reads)
    assert sum(r.aligned for r in results) >= 110
    for read, result in zip(reads, results):
        validate_record(sam_record(result, reference), contigs,
                        read.sequence)
