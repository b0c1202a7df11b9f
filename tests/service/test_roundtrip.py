"""Service responses are bit-identical to the offline pipeline's SAM.

The acceptance criterion that makes the service trustworthy: a read
aligned over the wire yields exactly the SAM record ``repro align
--out`` would have written for it — same flags, positions, MAPQ, CIGAR —
and parsed-back records agree field by field, for single and paired
reads alike.
"""

import asyncio
import io

from repro.align.paired import PairedAligner
from repro.align.pipeline import SoftwareAligner
from repro.align.sam import parse_sam, sam_header, sam_record, write_sam
from tests.service.helpers import run, serving


def offline_single_records(reference, reads):
    aligner = SoftwareAligner(reference)
    return [sam_record(result, reference)
            for result in aligner.align_all(reads)]


class TestSingleReadEquivalence:
    def test_bit_identical_sam_lines(self, service_reference, service_reads):
        expected = offline_single_records(service_reference, service_reads)

        async def scenario():
            async with serving(service_reference) as (_, client):
                responses = await asyncio.gather(
                    *(client.align(read) for read in service_reads))
            return [resp["sam"][0] for resp in responses]

        got = run(scenario())
        assert got == expected

    def test_batched_and_unbatched_service_agree(self, service_reference,
                                                 service_reads):
        """batch=1 serving (no cross-request batching) changes nothing."""
        async def collect(**overrides):
            async with serving(service_reference, **overrides) as (_, c):
                responses = await asyncio.gather(
                    *(c.align(read) for read in service_reads))
            return [resp["sam"][0] for resp in responses]

        batched = run(collect(max_batch=64))
        unbatched = run(collect(max_batch=1))
        assert batched == unbatched

    def test_parse_back_round_trip(self, service_reference, service_reads):
        """Service output parses to the same records as the offline SAM."""
        offline_results = SoftwareAligner(service_reference).align_all(
            service_reads)
        offline_file = io.StringIO()
        write_sam(offline_results, service_reference, offline_file)

        async def scenario():
            async with serving(service_reference) as (_, client):
                responses = await asyncio.gather(
                    *(client.align(read) for read in service_reads))
            return [resp["sam"][0] for resp in responses]

        service_file = io.StringIO(
            "\n".join(sam_header(service_reference)
                      + run(scenario())) + "\n")
        offline_file.seek(0)
        offline_records = list(parse_sam(offline_file))
        service_records = list(parse_sam(service_file))
        assert service_records == offline_records


class TestPairedEquivalence:
    def test_bit_identical_pair_records(self, service_reference,
                                        service_pairs):
        paired = PairedAligner(service_reference)
        expected = []
        meta = []
        for pair in service_pairs:
            outcome = paired.align_pair(pair)
            expected.append([
                sam_record(outcome.result1, service_reference),
                sam_record(outcome.result2, service_reference)])
            meta.append((outcome.proper, outcome.insert_size,
                         outcome.rescued_mate))

        async def scenario():
            async with serving(service_reference) as (_, client):
                return await asyncio.gather(
                    *(client.align_pair(pair.mate1, pair.mate2,
                                        pair_id=pair.pair_id)
                      for pair in service_pairs))

        responses = run(scenario())
        assert [resp["sam"] for resp in responses] == expected
        assert [(resp["proper"], resp["insert_size"], resp["rescued_mate"])
                for resp in responses] == meta

    def test_pair_records_parse_back(self, service_reference,
                                     service_pairs):
        async def scenario():
            async with serving(service_reference) as (_, client):
                return await asyncio.gather(
                    *(client.align_pair(pair.mate1, pair.mate2)
                      for pair in service_pairs))

        responses = run(scenario())
        for pair, resp in zip(service_pairs, responses):
            records = list(parse_sam(io.StringIO(
                "\n".join(resp["sam"]) + "\n")))
            assert [r.qname for r in records] == [pair.mate1.read_id,
                                                  pair.mate2.read_id]

    def test_mixed_batches_stay_identical(self, service_reference,
                                          service_reads, service_pairs):
        """Singles and pairs interleaved in the same batches don't
        perturb each other's results."""
        expected_singles = offline_single_records(service_reference,
                                                  service_reads)

        async def scenario():
            async with serving(service_reference) as (_, client):
                single_tasks = [client.align(read)
                                for read in service_reads]
                pair_tasks = [client.align_pair(p.mate1, p.mate2)
                              for p in service_pairs]
                singles = await asyncio.gather(*single_tasks)
                pairs = await asyncio.gather(*pair_tasks)
            return singles, pairs

        singles, pairs = run(scenario())
        assert [resp["sam"][0] for resp in singles] == expected_singles
        assert all(len(resp["sam"]) == 2 for resp in pairs)
