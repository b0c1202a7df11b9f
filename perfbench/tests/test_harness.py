"""Self-tests for the benchmark's own arithmetic (no program code runs).

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
"""

import json
import os
import subprocess
import sys
import time

import pytest

import harness


# -- percentiles and sample counts ------------------------------------ #

def test_percentile_interpolates_between_ranks():
    samples = [40.0, 10.0, 30.0, 20.0]  # unsorted on purpose
    assert harness.percentile(samples, 0.0) == 10.0
    assert harness.percentile(samples, 1.0) == 40.0
    assert harness.percentile(samples, 0.5) == 25.0
    assert harness.percentile(samples, 0.9) == pytest.approx(37.0)


def test_percentile_single_sample_and_bad_input():
    assert harness.percentile([7.0], 0.9) == 7.0
    with pytest.raises(ValueError):
        harness.percentile([], 0.5)
    with pytest.raises(ValueError):
        harness.percentile([1.0], 1.5)


@pytest.mark.parametrize("count, beyond", [(0, 0), (1, 0), (10, 1), (100, 10),
                                           (101, 10), (311, 31)])
def test_samples_beyond_p90(count, beyond):
    assert harness.samples_beyond(count, 0.9) == beyond


def test_samples_beyond_matches_a_direct_count():
    samples = [float(i) for i in range(250)]
    p90 = harness.percentile(samples, 0.9)
    assert harness.samples_beyond(250, 0.9) == sum(1 for s in samples if s > p90)


def test_latency_summary_reports_its_sample_count():
    summary = harness.latency_summary([float(i) for i in range(1, 101)])
    assert summary["n"] == 100
    assert summary["beyond_p90"] == 10
    assert summary["p50"] == pytest.approx(50.5)


# -- host speed and slices of a window --------------------------------- #

NOMINAL = harness.NOMINAL_SPEED


def _nominal(t0, t1):
    return NOMINAL


def test_slices_cut_equal_counts_and_measure_each_one():
    # 8 operations: the first four take 0.1 s (and 0.1 CPU-s) each, the
    # last four 0.2 s, at the nominal host speed throughout.
    durations = [0.1] * 4 + [0.2] * 4
    done_at, clock = [], 0.0
    for d in durations:
        clock += d
        done_at.append(clock)
    cpu_at = [10.0 + t for t in done_at]
    slices = harness.slice_stats(done_at, [1000 * d for d in durations], cpu_at,
                                 10.0, _nominal, slices=2)
    assert [s["reads_per_s"] for s in slices] == pytest.approx([10.0, 5.0])
    assert [s["cpu_s_per_kread"] for s in slices] == pytest.approx([100.0, 200.0])
    assert [s["p50_ms"] for s in slices] == pytest.approx([100.0, 200.0])
    assert [s["scale"] for s in slices] == [1.0, 1.0]


def test_slices_scale_a_slow_spell_back_to_nominal_speed():
    # The same work twice; the host runs at half speed (the probe reads
    # NOMINAL / 2) during the second half, so it takes twice as long.
    done_at = [0.1, 0.2, 0.4, 0.6]
    cpu_at = list(done_at)
    speed = lambda t0, t1: NOMINAL if t1 <= 0.2 else NOMINAL / 2  # noqa: E731
    slices = harness.slice_stats(done_at, [100.0, 100.0, 200.0, 200.0], cpu_at,
                                 0.0, speed, slices=2)
    assert [s["scale"] for s in slices] == [1.0, 0.5]
    assert [s["reads_per_s"] for s in slices] == pytest.approx([10.0, 10.0])
    assert [s["cpu_s_per_kread"] for s in slices] == pytest.approx([100.0, 100.0])
    assert [s["p90_ms"] for s in slices] == pytest.approx([100.0, 100.0])


def test_slices_tolerate_fewer_operations_than_slices():
    slices = harness.slice_stats([0.5, 1.0], [500.0, 500.0], [0.5, 1.0], 0.0,
                                 _nominal, slices=16)
    assert [s["reads_per_s"] for s in slices] == pytest.approx([2.0, 2.0])


def test_round_stats_drop_the_ramp_and_cut_whole_rounds():
    # 2 in flight: the ramp (completions 0-1) ends at t=1.0; then rounds
    # of two completions at 0.5 s each, one 1.0 s round, and a partial
    # round (one completion) that is left out.
    done_at = [0.5, 1.0, 1.2, 1.5, 1.7, 2.0, 2.6, 3.0, 3.1]
    latencies = [500.0, 500.0, 700.0, 500.0, 500.0, 500.0, 900.0, 1000.0, 100.0]
    cpu_at = [10.0 + 2 * t for t in done_at]  # two CPUs busy throughout
    asked = []

    def speed(t0, t1):
        asked.append((t0, t1))
        return NOMINAL

    rounds = harness.round_stats(done_at, latencies, cpu_at, 2, speed)
    assert [r["reads_per_s"] for r in rounds] == pytest.approx([4.0, 4.0, 2.0])
    assert [r["cpu_s_per_kread"] for r in rounds] == pytest.approx([500.0, 500.0, 1000.0])
    assert [r["p50_ms"] for r in rounds] == pytest.approx([600.0, 500.0, 950.0])
    # the speed is asked for on the window's clock, not the rounds'
    assert asked == pytest.approx([(1.0, 1.5), (1.5, 2.0), (2.0, 3.0)])
    with pytest.raises(ValueError):
        harness.round_stats(done_at[:3], latencies[:3], cpu_at[:3], 2, speed)


def test_window_figures_are_slice_medians():
    slices = harness.slice_stats([float(t) for t in range(1, 11)],
                                 [float(ms) for ms in range(10, 110, 10)],
                                 [float(t) for t in range(1, 11)], 0.0,
                                 _nominal, slices=5)
    figures = harness.window_figures(slices)
    assert figures["reads_per_s"] == pytest.approx(1.0)
    assert figures["p50_ms"] == pytest.approx(55.0)  # median of 15..95
    assert figures["p90_ms"] == pytest.approx(59.0)  # median of 19..99
    assert figures["n"] == 10 and figures["scale"] == 1.0


def test_speed_over_averages_inside_else_takes_the_nearest():
    samples = [(0.0, 100.0), (1.0, 200.0), (2.0, 400.0)]
    assert harness.speed_over(samples, 0.5, 2.0) == 300.0
    assert harness.speed_over(samples, 1.2, 1.4) == 200.0
    assert harness.speed_over(samples, 1.6, 1.9) == 400.0
    with pytest.raises(ValueError):
        harness.speed_over([], 0.0, 1.0)


def test_probe_speed_and_track_leave_probe_time_out():
    assert harness.probe_speed(0.001) > 0
    track = harness.SpeedTrack(every_s=1.0)
    track.poll(0.0)
    track.poll(0.5)  # not due yet
    track.poll(1.0)
    assert [t for t, _ in track.samples] == [0.0, 1.0]
    assert track.spent_wall > 0 and track.spent_cpu > 0


def test_core_probes_sample_every_cpu_and_stop():
    with harness.CoreProbes(every_s=0.01) as probes:
        began = time.monotonic()
        time.sleep(0.5)
    assert probes.cpus and set(probes.samples) == set(probes.cpus)
    assert all(samples for samples in probes.samples.values())
    assert probes.over(began, time.monotonic()) > 0
    assert not probes._procs


# -- ratio and share math ---------------------------------------------- #

def test_ratio_and_per_kilo():
    assert harness.ratio(3.0, 4.0) == 0.75
    assert harness.per_kilo(2.5, 500) == 5.0
    with pytest.raises(ZeroDivisionError):
        harness.ratio(1.0, 0)


def test_shares_are_fractions_of_the_total_not_of_the_parts():
    parts = {"seeding": 6.0, "extension": 3.0}
    assert harness.shares(parts, 10.0) == {"seeding": 0.6, "extension": 0.3}
    with pytest.raises(ValueError):
        harness.shares(parts, 0.0)


def test_overhead_frac():
    assert harness.overhead_frac(100.0, 80.0) == pytest.approx(0.2)
    assert harness.overhead_frac(100.0, 100.0) == 0.0


# -- /proc parsing across a process tree -------------------------------- #

def _stat_line(pid, comm, ppid, utime, stime, state="S"):
    # Fields 3.. of /proc/<pid>/stat; utime/stime are fields 14 and 15.
    rest = [state, str(ppid)] + ["0"] * 9 + [str(utime), str(stime)] + ["0"] * 37
    return f"{pid} ({comm}) " + " ".join(rest) + "\n"


def test_parse_stat_survives_spaces_and_parens_in_the_name():
    ppid, cpu = harness.parse_stat(_stat_line(42, "a (b) c", 7, 150, 50))
    assert ppid == 7
    assert cpu == pytest.approx(200 / harness.CLOCK_TICKS)


def test_parse_vmhwm():
    status = "Name:\tpython3\nVmPeak:\t  9000 kB\nVmHWM:\t   2048 kB\nVmRSS:\t 1024 kB\n"
    assert harness.parse_vmhwm_mb(status) == 2.0
    with pytest.raises(ValueError):
        harness.parse_vmhwm_mb("Name:\tx\n")


def test_descendants_walks_the_whole_subtree():
    parents = {1: 0, 10: 1, 11: 10, 12: 10, 13: 11, 20: 1}
    assert harness.descendants(10, parents) == [10, 11, 12, 13]
    assert harness.descendants(20, parents) == [20]


@pytest.fixture
def fake_proc(tmp_path):
    """gateway 100 -> backends 101, 102 -> a grandchild 103; 200 unrelated."""
    procs = {100: (1, 300, 100, 10240), 101: (100, 1000, 0, 51200),
             102: (100, 800, 200, 40960), 103: (101, 5, 5, 1024),
             200: (1, 9999, 9999, 99999)}
    for pid, (ppid, utime, stime, hwm_kb) in procs.items():
        path = tmp_path / str(pid)
        path.mkdir()
        (path / "stat").write_text(_stat_line(pid, "python3", ppid, utime, stime))
        (path / "status").write_text(f"Name:\tpython3\nVmHWM:\t{hwm_kb} kB\n")
    (tmp_path / "self").mkdir()
    return str(tmp_path)


def test_tree_cpu_and_peak_rss(fake_proc):
    tree = harness.process_tree(100, proc=fake_proc)
    assert tree == [100, 101, 102, 103]
    cpu = harness.cpu_seconds(tree, proc=fake_proc)
    assert sum(cpu.values()) == pytest.approx(2410 / harness.CLOCK_TICKS)
    assert harness.peak_rss_mb(tree, proc=fake_proc) == pytest.approx(103424 / 1024)
    assert harness.process_tree(999, proc=fake_proc) == []


def test_vanished_pids_are_skipped(fake_proc):
    assert harness.cpu_seconds([100, 555], proc=fake_proc).keys() == {100}
    assert harness.peak_rss_mb([555], proc=fake_proc) == 0.0


def test_zombies_are_not_alive(tmp_path):
    (tmp_path / "5").mkdir()
    (tmp_path / "5" / "stat").write_text(_stat_line(5, "x", 1, 0, 0, state="Z"))
    (tmp_path / "6").mkdir()
    (tmp_path / "6" / "stat").write_text(_stat_line(6, "x", 1, 0, 0, state="R"))
    assert not harness.alive(5, proc=str(tmp_path))
    assert harness.alive(6, proc=str(tmp_path))
    assert not harness.alive(7, proc=str(tmp_path))


@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="needs Linux /proc")
def test_reset_peak_rss_forgets_an_earlier_peak():
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import harness; "
            "pid = harness.os.getpid(); block = bytearray(64 << 20); "
            "block[::4096] = b'x' * len(block[::4096]); del block; "
            "before = harness.peak_rss_mb([pid]); harness.reset_peak_rss(); "
            "print(before - harness.peak_rss_mb([pid]))")
    here = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    dropped = float(subprocess.check_output([sys.executable, "-c", code, here]))
    assert dropped > 48.0


@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="needs Linux /proc")
def test_live_process_tree_includes_a_child():
    child = subprocess.Popen([sys.executable, "-c", "import time; time.sleep(30)"])
    try:
        tree = harness.process_tree(os.getpid())
        assert os.getpid() in tree and child.pid in tree
        assert harness.peak_rss_mb([child.pid]) > 0
    finally:
        child.kill()
        child.wait(10)
    assert not harness.alive(child.pid)


# -- SAM structure ------------------------------------------------------ #

CONTIGS = {"chr1": 1000}


def _sam(flag, rname, pos, cigar, seq_len=10):
    return "\t".join(["r", str(flag), rname, str(pos), "60", cigar, "*", "0", "0",
                      "A" * seq_len, "I" * seq_len])


@pytest.mark.parametrize("line", [
    _sam(0, "chr1", 1, "10M"),
    _sam(16, "chr1", 990, "2S8M"),
    _sam(0, "chr1", 100, "3M1I6M"),
    _sam(0, "chr1", 100, "5M2D5M"),
    _sam(4, "*", 0, "*"),
])
def test_valid_sam_records(line):
    assert harness.sam_problem(line, CONTIGS, 10) is None


@pytest.mark.parametrize("line, why", [
    (_sam(0, "chr1", 1, "9M"), "consumes 9 of 10"),
    (_sam(0, "chr1", 995, "10M"), "outside chr1"),
    (_sam(0, "chr1", 0, "10M"), "outside chr1"),
    (_sam(0, "chr9", 1, "10M"), "unknown contig"),
    (_sam(0, "chr1", 1, "10Q"), "malformed CIGAR"),
    (_sam(4, "chr1", 5, "10M"), "unmapped with a locus"),
    (_sam(0, "chr1", 1, "10M", seq_len=9), "SEQ length"),
])
def test_invalid_sam_records(line, why):
    assert why in harness.sam_problem(line, CONTIGS, 10)


# -- timers and the result line ----------------------------------------- #

class _Target:
    def work(self, value):
        return value * 2


def test_layer_clock_and_patched_restore():
    clock = harness.LayerClock()
    original = _Target.work
    with harness.patched(_Target, "work", clock.timed("layer", _Target.work)):
        assert _Target().work(21) == 42
        assert _Target().work(1) == 2
    assert _Target.work is original
    assert list(clock.seconds) == ["layer"] and clock.seconds["layer"] >= 0.0


def test_result_line_has_exactly_the_contract_keys():
    result = harness.Result()
    result.attempted = 3
    result.put("p50_ms", 12.5, "ms")
    obj = json.loads(result.line())
    assert list(obj) == ["correct", "attempted", "failed", "metrics"]
    assert obj["correct"] is True
    assert obj["metrics"] == {"p50_ms": {"value": 12.5, "unit": "ms"}}
    result.fail("bad SAM")
    assert json.loads(result.line())["correct"] is False
    with pytest.raises(ValueError):
        result.put("x", float("nan"), "ms")


def test_unmeasured_metrics_are_filled_and_gaps_reported():
    wanted = {"seeding.share": "fraction", "core.su_util": "fraction",
              "sim.speedup": "ratio", "bench.trace_overhead_frac": "fraction"}
    result = harness.Result()
    result.put("seeding.share", 0.8, "fraction")
    filled = result.fill_unmeasured(wanted, ("core.*", "sim.*"))
    assert filled == ["core.su_util", "sim.speedup"]
    assert result.metrics["sim.speedup"] == (0.0, "ratio")
    # a metric the workload should have measured is not papered over
    assert "bench.trace_overhead_frac" in result.mismatch(wanted)
    result.put("bench.trace_overhead_frac", 0.01, "fraction")
    assert result.mismatch(wanted) is None
    result.put("recall", 1.0, "fraction")
    assert "unexpected ['recall']" in result.mismatch(wanted)
