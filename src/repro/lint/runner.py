"""Multi-file analysis driver: per-file pass + flow pass.

``repro lint`` funnels through :func:`run_analysis`:

1. the per-file rules run over every file, in file order;
2. with ``flow=True`` the whole-program pass parses every analyzed
   module into a :class:`~repro.lint.flow.ProjectModel` and appends the
   flow findings;
3. one :func:`~repro.lint.core.finalize_report` applies inline
   suppressions to the combined findings — a ``disable=PROTO501``
   comment works exactly like a per-file one — and flags unused
   suppressions.
"""

from __future__ import annotations

from pathlib import Path
from typing import List, Optional, Sequence, Set, Tuple

from repro.lint.core import (
    Analyzer,
    AnalysisReport,
    Finding,
    ModuleSource,
    Suppression,
    finalize_report,
    iter_python_files,
)
from repro.lint.flow import all_flow_rules, run_flow_rules

__all__ = ["run_analysis"]

#: (rel path, raw findings, suppressions, local rule ids, parse error,
#:  counted as checked)
_ScanResult = Tuple[str, List[Finding], List[Suppression], Set[str],
                    Optional[str], bool]


def _scan_with(analyzer: Analyzer, rel: str,
               file_path: Path) -> _ScanResult:
    try:
        source = file_path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        return (rel, [], [], set(), f"{rel}: {exc}", False)
    report = AnalysisReport()
    analyzer.check_source(rel, source, report, finalize=False)
    error = report.parse_errors[0] if report.parse_errors else None
    return (rel, report.findings,
            report.pending_suppressions.get(rel, []),
            report.local_rule_ids.get(rel, set()),
            error, report.files_checked > 0)


def run_analysis(paths: Sequence[str], config,
                 select: Optional[List[str]] = None,
                 flow: bool = True) -> AnalysisReport:
    """Analyze files/directories with per-file and (optionally) flow
    rules; returns a finalized, sorted :class:`AnalysisReport`."""
    analyzer = Analyzer(config, select=select)
    entries = [(config.project_relative(fp), fp)
               for fp in iter_python_files(paths)]
    report = AnalysisReport()
    results = [_scan_with(analyzer, rel, fp) for rel, fp in entries]

    sources: List[ModuleSource] = []
    flow_paths: List[str] = []
    for (rel, findings, suppressions, local_ids, error, checked) in results:
        report.findings.extend(findings)
        if suppressions:
            report.pending_suppressions[rel] = suppressions
        report.local_rule_ids[rel] = local_ids
        if error is not None:
            report.parse_errors.append(error)
        elif flow:
            flow_paths.append(rel)
        if checked:
            report.files_checked += 1

    if flow:
        flow_classes = _selected_flow_classes(config, select)
        if flow_classes:
            sources = _parse_for_flow(config, entries,
                                      set(report.parse_errors))
            report.findings.extend(
                run_flow_rules(sources, config, select=select))
            for ms in sources:
                ids = report.local_rule_ids.setdefault(ms.path, set())
                for cls in flow_classes:
                    if config.category_applies(cls.category, ms.path):
                        ids.update((cls.rule_id, cls.name))

    finalize_report(report)
    report.findings = report.sorted_findings()
    return report


def _selected_flow_classes(config, select: Optional[List[str]]):
    wanted = None if select is None else set(select)
    out = []
    for rule_id, cls in sorted(all_flow_rules().items()):
        if wanted is not None and not ({cls.rule_id, cls.name} & wanted):
            continue
        if cls.rule_id in config.disable or cls.name in config.disable:
            continue
        out.append(cls)
    return out


def _parse_for_flow(config, entries: Sequence[Tuple[str, Path]],
                    errored: Set[str]) -> List[ModuleSource]:
    """Parse every analyzable module for the project model.

    Files the per-file pass could not read/parse are skipped (already
    reported); excluded files never join the model, so fixture corpora
    can't leak edges into it.
    """
    sources = []
    for rel, file_path in entries:
        if any(error.startswith(f"{rel}: ") for error in errored):
            continue
        if config.is_excluded(rel):
            continue
        try:
            text = file_path.read_text(encoding="utf-8")
            sources.append(ModuleSource.parse(rel, text))
        except (OSError, UnicodeDecodeError, SyntaxError):
            continue
    return sources
