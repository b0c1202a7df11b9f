"""Lint analyzer benchmark: both rule layers over ``src/``, one process.

The mean recorded in ``baseline.json`` is the wall time of a full
``repro lint src/`` analysis (per-file rules plus the flow pass).
"""

from pathlib import Path

from repro.lint import LintConfig, run_analysis

ROOT = Path(__file__).resolve().parents[1]


def test_bench_lint_serial(benchmark):
    """Both rule layers over src/, one process."""
    config = LintConfig.load(ROOT)
    report = benchmark.pedantic(
        run_analysis, args=([str(ROOT / "src")], config),
        rounds=1, iterations=1)
    assert report.files_checked > 0
    assert not report.parse_errors
