"""End-to-end CLI tests."""

import contextlib

import pytest

from repro.cli import main


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    """A simulated reference + reads pair on disk."""
    prefix = tmp_path_factory.mktemp("cli") / "toy"
    code = main(["simulate", "--length", "20000", "--reads", "30",
                 "--out-prefix", str(prefix)])
    assert code == 0
    return prefix


class TestSimulate:
    def test_files_written(self, dataset):
        assert (dataset.parent / "toy.fa").exists()
        assert (dataset.parent / "toy.fq").exists()

    def test_fasta_parses(self, dataset):
        from repro.genome.io import read_reference
        ref = read_reference(f"{dataset}.fa")
        assert len(ref) == 20_000


class TestAlign:
    def test_align_writes_sam(self, dataset, tmp_path, capsys):
        sam = tmp_path / "out.sam"
        code = main(["align", "--reference", f"{dataset}.fa",
                     "--reads", f"{dataset}.fq", "--out", str(sam)])
        assert code == 0
        captured = capsys.readouterr().out
        assert "mapped" in captured
        content = sam.read_text()
        assert content.startswith("@HD")
        body = [l for l in content.strip().split("\n")
                if not l.startswith("@")]
        assert len(body) == 30


class TestIndexCommands:
    @pytest.fixture(scope="class")
    def index_file(self, dataset, tmp_path_factory):
        path = tmp_path_factory.mktemp("idx") / "toy.idx"
        code = main(["index", "build", "--reference", f"{dataset}.fa",
                     "--out", str(path)])
        assert code == 0
        return path

    def test_build_reports_hash(self, dataset, tmp_path, capsys):
        out = tmp_path / "fresh.idx"
        code = main(["index", "build", "--reference", f"{dataset}.fa",
                     "--out", str(out)])
        assert code == 0
        stdout = capsys.readouterr().out
        assert "built" in stdout and "content hash:" in stdout
        assert out.exists()

    def test_verify_passes_on_healthy_store(self, index_file, capsys):
        code = main(["index", "verify", str(index_file)])
        assert code == 0
        assert capsys.readouterr().out.startswith("ok:")

    def test_verify_fails_on_truncation(self, index_file, tmp_path,
                                        capsys):
        import shutil
        victim = tmp_path / "torn.idx"
        shutil.copy(index_file, victim)
        with open(victim, "r+b") as handle:
            handle.truncate(victim.stat().st_size // 2)
        code = main(["index", "verify", str(victim)])
        assert code == 1
        assert "FAIL" in capsys.readouterr().out

    def test_inspect_emits_json(self, index_file, capsys):
        import json
        code = main(["index", "inspect", str(index_file)])
        assert code == 0
        desc = json.loads(capsys.readouterr().out)
        assert desc["meta"]["text_length"] == 20_000
        assert desc["fmd_length"] == 40_000
        assert any(spec["name"] == "bwt" for spec in desc["arrays"])

    def test_align_with_index_matches_plain(self, dataset, index_file,
                                            tmp_path, capsys):
        plain = tmp_path / "plain.sam"
        mapped = tmp_path / "mapped.sam"
        assert main(["align", "--reference", f"{dataset}.fa",
                     "--reads", f"{dataset}.fq",
                     "--out", str(plain)]) == 0
        assert main(["align", "--reference", f"{dataset}.fa",
                     "--reads", f"{dataset}.fq", "--index",
                     str(index_file), "--out", str(mapped)]) == 0
        capsys.readouterr()
        assert plain.read_text() == mapped.read_text()

    def test_align_rejects_foreign_index(self, dataset, tmp_path):
        other = tmp_path / "other"
        main(["simulate", "--length", "5000", "--reads", "1",
              "--out-prefix", str(other)])
        foreign = tmp_path / "other.idx"
        assert main(["index", "build", "--reference", f"{other}.fa",
                     "--out", str(foreign)]) == 0
        with pytest.raises(SystemExit, match="different"):
            main(["align", "--reference", f"{dataset}.fa",
                  "--reads", f"{dataset}.fq", "--index", str(foreign)])


class TestAccelerate:
    def test_synthetic(self, capsys):
        code = main(["accelerate", "--dataset", "C.e.", "--reads", "150"])
        assert code == 0
        out = capsys.readouterr().out
        assert "NvWa:" in out and "SUs+EUs:" in out
        assert "scheduling speedup" in out

    def test_from_files(self, dataset, capsys):
        code = main(["accelerate", "--reference", f"{dataset}.fa",
                     "--reads-file", f"{dataset}.fq"])
        assert code == 0
        assert "scheduling speedup" in capsys.readouterr().out


class TestTraceOut:
    @pytest.fixture(autouse=True)
    def _reset_tracer(self):
        yield
        from repro import obs
        obs.configure(enabled=False)

    def test_align_trace_out(self, dataset, tmp_path, capsys):
        from repro.obs import validate_trace_file
        trace_path = tmp_path / "align-trace.json"
        code = main(["align", "--reference", f"{dataset}.fa",
                     "--reads", f"{dataset}.fq",
                     "--trace-out", str(trace_path)])
        assert code == 0
        assert "wrote trace" in capsys.readouterr().out
        trace = validate_trace_file(str(trace_path))
        names = {e["name"] for e in trace["traceEvents"]
                 if e.get("ph") == "X"}
        assert {"align_read", "seeding", "extension"} <= names

    def test_accelerate_trace_out_includes_utilization(
            self, tmp_path, capsys):
        from repro.obs import validate_trace_file
        trace_path = tmp_path / "accel-trace.json"
        code = main(["accelerate", "--dataset", "C.e.", "--reads", "100",
                     "--trace-out", str(trace_path)])
        assert code == 0
        assert "scheduling speedup" in capsys.readouterr().out
        trace = validate_trace_file(str(trace_path))
        events = trace["traceEvents"]
        processes = {e["args"]["name"] for e in events
                     if e.get("name") == "process_name"}
        assert {"NvWa SUs", "NvWa EUs",
                "SUs+EUs SUs", "SUs+EUs EUs"} <= processes
        assert any(e.get("name") == "busy" for e in events)

    def test_accelerate_trace_matches_untraced_numbers(self, capsys):
        """The direct-run trace path must not change the printed
        simulation results."""
        main(["accelerate", "--dataset", "C.e.", "--reads", "100"])
        plain = capsys.readouterr().out

        import tempfile
        with tempfile.TemporaryDirectory() as tmp:
            main(["accelerate", "--dataset", "C.e.", "--reads", "100",
                  "--trace-out", f"{tmp}/t.json"])
        traced = capsys.readouterr().out
        keep = [line for line in plain.splitlines()
                if "cycles" in line or "speedup" in line]
        for line in keep:
            assert line in traced


class TestObsCommand:
    def test_validate_accepts_good_trace(self, tmp_path, capsys):
        import json
        trace = {"traceEvents": [
            {"name": "a", "ph": "X", "ts": 0, "dur": 2,
             "pid": 0, "tid": 0},
        ]}
        path = tmp_path / "t.json"
        path.write_text(json.dumps(trace))
        assert main(["obs", "validate", str(path)]) == 0
        assert "ok:" in capsys.readouterr().out

    def test_validate_rejects_bad_trace(self, tmp_path, capsys):
        import json
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"traceEvents": []}))
        assert main(["obs", "validate", str(path)]) == 1
        assert "FAIL" in capsys.readouterr().out
        path.write_text("not json at all")
        assert main(["obs", "validate", str(path)]) == 1

    def test_export_from_stats_json(self, tmp_path, capsys):
        import json
        stats = {"metrics": {"counters": {"requests_total": 9},
                             "gauges": {},
                             "histograms": {}}}
        path = tmp_path / "stats.json"
        path.write_text(json.dumps(stats))
        assert main(["obs", "export", "--stats-json", str(path)]) == 0
        out = capsys.readouterr().out
        assert "repro_requests_total 9" in out

    def test_export_to_file_with_prefix(self, tmp_path, capsys):
        import json
        stats = {"counters": {"hits": 2}}
        src = tmp_path / "stats.json"
        src.write_text(json.dumps(stats))
        dst = tmp_path / "metrics.prom"
        assert main(["obs", "export", "--stats-json", str(src),
                     "--prefix", "svc_", "--out", str(dst)]) == 0
        assert "svc_hits 2" in dst.read_text()

    def test_export_requires_a_source(self, capsys):
        with pytest.raises(SystemExit):
            main(["obs", "export"])
        assert "--connect or --stats-json" in capsys.readouterr().err


class TestExperiments:
    def test_selected_quick(self, capsys):
        code = main(["experiments", "fig07", "table2", "--quick"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Figure 7" in out and "Table II" in out

    def test_prints_the_utilization_panel(self, capsys, monkeypatch):
        from repro.experiments import runner
        from repro.experiments.common import ExperimentResult

        def stub():
            result = ExperimentResult(exhibit="Stub", title="panel probe")
            result.panel = "SU |####    |"
            return result

        monkeypatch.setitem(runner.EXPERIMENTS, "stub",
                            {"full": stub, "quick": stub})
        assert main(["experiments", "stub", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "== Stub: panel probe ==" in out
        assert "-- utilization over time --\nSU |####    |" in out


def _module_env():
    """Subprocess env whose PYTHONPATH resolves repro from anywhere."""
    import os

    import repro
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return env


class TestModuleEntryPoint:
    """Satellite: ``python -m repro`` works without the console script."""

    def test_python_m_repro_simulate(self, tmp_path):
        import subprocess
        import sys
        result = subprocess.run(
            [sys.executable, "-m", "repro", "simulate", "--length", "5000",
             "--reads", "3", "--out-prefix", str(tmp_path / "m")],
            capture_output=True, text=True, env=_module_env())
        assert result.returncode == 0, result.stderr
        assert (tmp_path / "m.fa").exists()

    def test_python_m_repro_help(self):
        import subprocess
        import sys
        result = subprocess.run([sys.executable, "-m", "repro", "--help"],
                                capture_output=True, text=True,
                                env=_module_env())
        assert result.returncode == 0
        for verb in ("simulate", "align", "serve", "loadgen"):
            assert verb in result.stdout


class TestInputValidation:
    def test_parallelism_below_one_rejected(self, dataset, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["align", "--reference", f"{dataset}.fa",
                  "--reads", f"{dataset}.fq", "--parallelism", "0"])
        assert excinfo.value.code == 2
        assert "argument --parallelism: must be >= 1" in \
            capsys.readouterr().err

    def test_negative_parallelism_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["experiments", "fig07", "--quick",
                  "--parallelism", "-3"])
        assert "argument --parallelism: must be >= 1" in \
            capsys.readouterr().err

    @pytest.mark.parametrize("argv, message", [
        (["experiments", "fig99"], "unknown experiments ['fig99']"),
        (["experiments", "--no-such-flag"],
         "unrecognized arguments: --no-such-flag"),
    ])
    def test_experiments_rejects_unknown_input(self, capsys, argv, message):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert message in capsys.readouterr().err

    def test_loadgen_requires_a_read_source(self, capsys):
        with pytest.raises(SystemExit):
            main(["loadgen", "--connect", "127.0.0.1:1"])
        assert "--reference or --reads-file" in capsys.readouterr().err

    def test_serve_rejects_bad_knobs(self, dataset, capsys):
        with pytest.raises(SystemExit):
            main(["serve", "--reference", f"{dataset}.fa",
                  "--max-batch", "0"])
        assert "argument --max-batch: must be >= 1" in \
            capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["align", "--parallelism", "2", "--shard-size", "0"],
        ["align", "--index", "no-such.idx"],
        ["serve", "--max-wait-ms", "-1"],
        ["serve", "--max-wait-ms", "nan"],
        ["serve", "--request-timeout-ms", "-5"],
        ["serve", "--port", "70000"],
        ["serve", "--workers", "0"],
        ["serve", "--breaker-window", "0"],
        ["cluster", "--request-timeout-ms", "-1"],
        ["cluster", "--max-batch", "0"],
        ["chaos", "--parallelism", "0"],
        ["loadgen", "--connect", "127.0.0.1:1", "--pair-fraction", "2"],
        ["loadgen", "--connect", "127.0.0.1:1", "--rate", "0"],
        ["simulate", "--out-prefix", "unused", "--length", "0"],
        ["simulate", "--out-prefix", "unused", "--read-length", "0"],
    ], ids=" ".join)
    def test_bad_value_is_a_usage_error(self, dataset, argv):
        """Exit 2 with a usage message, never a traceback. Run as a
        subprocess so a value that slipped through (a server that would
        start, a kernel that would raise) cannot hang or hide."""
        import subprocess
        import sys

        inputs = {"align": ["--reference", f"{dataset}.fa",
                            "--reads", f"{dataset}.fq"],
                  "serve": ["--reference", f"{dataset}.fa"],
                  "cluster": ["--reference", f"{dataset}.fa"],
                  "loadgen": ["--reference", f"{dataset}.fa"]}
        result = subprocess.run(
            [sys.executable, "-m", "repro", *argv,
             *inputs.get(argv[0], [])],
            capture_output=True, text=True, env=_module_env(), timeout=60)
        assert result.returncode == 2, result.stderr
        assert "Traceback" not in result.stderr
        assert f"error: argument {argv[-2]}:" in result.stderr


@contextlib.contextmanager
def serving_in_thread(reference_path, sock):
    """An AlignmentServer on a UNIX socket, on its own loop in a thread,
    so CLI verbs (which call asyncio.run) can talk to it."""
    import asyncio
    import threading

    from repro.genome.io import read_reference
    from repro.service.server import AlignmentServer, ServerConfig

    started = threading.Event()
    stop = threading.Event()

    async def body():
        server = AlignmentServer(
            read_reference(reference_path),
            config=ServerConfig(unix_path=sock, stats_interval_s=0))
        await server.start()
        started.set()
        while not stop.is_set():
            await asyncio.sleep(0.05)
        await server.shutdown(drain=True)

    thread = threading.Thread(target=asyncio.run, args=(body(),),
                              daemon=True)
    thread.start()
    assert started.wait(timeout=30), "server never came up"
    try:
        yield f"unix:{sock}"
    finally:
        stop.set()
        thread.join(timeout=30)
        assert not thread.is_alive(), "server did not stop"


class TestServeLoadgenEndToEnd:
    @pytest.mark.integration
    def test_serve_and_loadgen_over_unix_socket(self, dataset, tmp_path,
                                                capsys):
        """The CLI pair end to end: serve on a UNIX socket in a thread,
        then loadgen against it."""
        with serving_in_thread(f"{dataset}.fa",
                               str(tmp_path / "svc.sock")) as endpoint:
            code = main(["loadgen", "--connect", endpoint,
                         "--reference", f"{dataset}.fa",
                         "--requests", "40", "--concurrency", "16",
                         "--wait-ready", "10", "--max-p99-ms", "30000"])
        assert code == 0
        out = capsys.readouterr().out
        assert "dropped 0" in out
        assert "errors 0" in out

    def test_obs_export_connect_reads_live_stats(self, dataset, tmp_path,
                                                 capsys):
        """``obs export --connect`` renders a live server's metrics."""
        with serving_in_thread(f"{dataset}.fa",
                               str(tmp_path / "svc.sock")) as endpoint:
            code = main(["obs", "export", "--connect", endpoint])
        assert code == 0
        out = capsys.readouterr().out
        # The export's own stats request is the one request counted.
        assert "repro_connections_total 1" in out
        assert "repro_requests_total 1" in out
