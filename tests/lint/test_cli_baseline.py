"""`repro lint` CLI behaviour and the finding-baseline ratchet."""

import json
import textwrap
from pathlib import Path

import pytest

from repro.cli import main
from repro.lint import Baseline
from repro.lint.core import Finding

BAD_SIM = textwrap.dedent("""\
    import random

    def jitter():
        return random.Random()
""")

CLEAN_SIM = textwrap.dedent("""\
    import random

    def jitter(seed):
        return random.Random(seed)
""")


@pytest.fixture
def project(tmp_path, monkeypatch):
    """A miniature project: pyproject scoping + one sim module."""
    (tmp_path / "pyproject.toml").write_text(textwrap.dedent("""\
        [tool.repro-lint.scopes]
        determinism = ["src/sim/*"]
    """))
    sim = tmp_path / "src" / "sim"
    sim.mkdir(parents=True)
    (sim / "engine.py").write_text(BAD_SIM)
    monkeypatch.chdir(tmp_path)
    return tmp_path


def test_exit_one_on_findings_text(project, capsys):
    assert main(["lint", "src"]) == 1
    out = capsys.readouterr().out
    assert "DET101" in out and "src/sim/engine.py:4" in out
    assert "FAIL" in out


def test_exit_zero_when_clean(project, capsys):
    (project / "src" / "sim" / "engine.py").write_text(CLEAN_SIM)
    assert main(["lint", "src"]) == 0
    assert "ok: 0 finding(s)" in capsys.readouterr().out


def test_json_output_shape(project, capsys):
    assert main(["lint", "--format", "json", "src"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["ok"] is False
    assert payload["files_checked"] == 1
    [finding] = payload["findings"]
    assert finding["rule_id"] == "DET101"
    assert finding["path"] == "src/sim/engine.py"
    assert finding["line"] == 4


def test_baseline_ratchet(project, capsys):
    # 1. accept the current findings as the baseline
    assert main(["lint", "--write-baseline", "lint-baseline.json",
                 "src"]) == 0
    # 2. baselined finding no longer fails the run
    assert main(["lint", "--baseline", "lint-baseline.json", "src"]) == 0
    out = capsys.readouterr().out
    assert "1 baselined" in out
    # 3. a *new* finding still fails
    (project / "src" / "sim" / "other.py").write_text(BAD_SIM)
    assert main(["lint", "--baseline", "lint-baseline.json", "src"]) == 1
    # 4. fixing the original finding surfaces the stale entry
    (project / "src" / "sim" / "engine.py").write_text(CLEAN_SIM)
    (project / "src" / "sim" / "other.py").write_text(CLEAN_SIM)
    assert main(["lint", "--baseline", "lint-baseline.json", "src"]) == 0
    assert "stale baseline entry" in capsys.readouterr().out


def test_write_baseline_prunes_stale_fingerprints(project, capsys):
    """Regression: a baseline carrying a fingerprint for since-deleted
    code must lose it on --write-baseline, not accrete it forever."""
    ghost = Finding(rule_id="DET101", rule_name="unseeded-rng",
                    path="src/sim/deleted.py", line=9, col=0,
                    message="m", source_line="rng = random.Random()")
    Baseline.from_findings([ghost]).save(Path("lint-baseline.json"))
    assert main(["lint", "--write-baseline", "lint-baseline.json",
                 "src"]) == 0
    out = capsys.readouterr().out
    assert "ratchet delta: +1 new, -1 pruned" in out
    text = Path("lint-baseline.json").read_text()
    assert "deleted.py" not in text and "engine.py" in text
    # an unchanged rewrite is a zero delta
    assert main(["lint", "--write-baseline", "lint-baseline.json",
                 "src"]) == 0
    assert "ratchet delta: +0 new, -0 pruned" in capsys.readouterr().out


def test_github_format_emits_error_annotations(project, capsys):
    assert main(["lint", "--format", "github", "src"]) == 1
    out = capsys.readouterr().out
    assert "::error file=src/sim/engine.py,line=4," in out
    assert "title=DET101 unseeded-rng" in out


def test_flow_findings_through_cli(project, capsys):
    """--flow (the default) surfaces whole-program findings; --no-flow
    restricts the run to per-file rules."""
    (project / "pyproject.toml").write_text(textwrap.dedent("""\
        [tool.repro-lint.scopes]
        determinism = ["nowhere/*"]
        async-safety = ["src/svc/*"]
    """))
    svc = project / "src" / "svc"
    svc.mkdir(parents=True)
    (svc / "util.py").write_text(textwrap.dedent("""\
        import time

        def backoff(seconds):
            time.sleep(seconds)
    """))
    (svc / "handlers.py").write_text(textwrap.dedent("""\
        from svc.util import backoff

        async def handle():
            backoff(1.0)
    """))
    assert main(["lint", "src"]) == 1
    out = capsys.readouterr().out
    assert "ASY301" in out and "src/svc/handlers.py:4" in out
    assert main(["lint", "--no-flow", "src"]) == 0


def test_missing_baseline_is_usage_error(project, capsys):
    assert main(["lint", "--baseline", "nope.json", "src"]) == 2


def test_unknown_select_is_usage_error(project):
    assert main(["lint", "--select", "DET999", "src"]) == 2


def test_list_rules(project, capsys):
    assert main(["lint", "--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule_id in ("DET101", "ASY201", "CFG301", "LINT001"):
        assert rule_id in out


def test_parse_error_fails_run(project, capsys):
    (project / "src" / "sim" / "broken.py").write_text("def broken(:\n")
    assert main(["lint", "src"]) == 1
    assert "parse error" in capsys.readouterr().out


class TestBaselineStore:
    def _finding(self, line=4, path="src/sim/engine.py"):
        return Finding(rule_id="DET101", rule_name="unseeded-rng",
                       path=path, line=line, col=11,
                       message="m", source_line="return random.Random()")

    def test_fingerprint_ignores_line_numbers(self, tmp_path: Path):
        baseline = Baseline.from_findings([self._finding(line=4)])
        path = tmp_path / "b.json"
        baseline.save(path)
        match = Baseline.load(path).match([self._finding(line=90)])
        assert match.new == [] and len(match.baselined) == 1

    def test_multiset_counts(self, tmp_path: Path):
        baseline = Baseline.from_findings([self._finding()])
        two = [self._finding(line=4), self._finding(line=9)]
        match = baseline.match(two)
        assert len(match.baselined) == 1 and len(match.new) == 1

    def test_stale_entries_reported(self):
        baseline = Baseline.from_findings([self._finding()])
        match = baseline.match([])
        assert len(match.stale) == 1
        assert match.stale[0]["rule_id"] == "DET101"
