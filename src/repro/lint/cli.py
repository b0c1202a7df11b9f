"""The ``repro lint`` verb: run the analyzer, print text/JSON/annotations.

Exit codes: 0 clean (or everything baselined), 1 unbaselined findings
or parse errors, 2 usage errors. Stale baseline entries are reported
but do not fail the run — they mean the tree got *better*.

The whole-program flow pass (``repro.lint.flow``) is on by default;
``--no-flow`` restricts the run to per-file rules.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional

from repro.lint.baseline import Baseline, BaselineMatch
from repro.lint.config import LintConfig
from repro.lint.core import all_rules
from repro.lint.flow import all_flow_rules
from repro.lint.runner import run_analysis

__all__ = ["add_lint_arguments", "run_lint", "main"]


def add_lint_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("paths", nargs="*", default=["src"],
                        help="files or directories to analyze "
                             "(default: src)")
    parser.add_argument("--format", choices=["text", "json", "github"],
                        default="text", dest="output_format",
                        help="finding output format (github emits "
                             "::error workflow annotations)")
    parser.add_argument("--baseline",
                        help="JSON baseline of accepted findings; only "
                             "findings outside it fail the run")
    parser.add_argument("--write-baseline",
                        help="write the current findings to this path "
                             "(pruning stale fingerprints), print the "
                             "ratchet delta, and exit 0")
    parser.add_argument("--select",
                        help="comma-separated rule ids/names to run "
                             "(default: all)")
    parser.add_argument("--flow", dest="flow", action="store_true",
                        default=True,
                        help="run the whole-program flow rules "
                             "(ASY3xx/RES4xx/PROTO5xx; default on)")
    parser.add_argument("--no-flow", dest="flow", action="store_false",
                        help="per-file rules only")
    parser.add_argument("--list-rules", action="store_true",
                        help="print the rule catalog and exit")
    parser.add_argument("--statistics", action="store_true",
                        help="append a per-rule finding count summary")


def _known_rules() -> dict:
    """id -> class over both registries (per-file + flow)."""
    catalog = dict(all_rules())
    catalog.update(all_flow_rules())
    return catalog


def _list_rules() -> int:
    for rule_id, cls in sorted(_known_rules().items()):
        print(f"{rule_id}  {cls.name:<24} [{cls.category}] "
              f"{cls.rationale}")
    print("LINT001  unused-suppression      [meta] a 'repro-lint: "
          "disable' comment that suppressed nothing")
    return 0


def run_lint(args: argparse.Namespace) -> int:
    if args.list_rules:
        return _list_rules()
    config = LintConfig.load()
    select = None
    if args.select:
        select = [s.strip() for s in args.select.split(",") if s.strip()]
        known = set()
        for rule_id, cls in _known_rules().items():
            known.update((rule_id, cls.name))
        unknown = [s for s in select if s not in known]
        if unknown:
            print(f"error: unknown rule(s): {', '.join(unknown)}",
                  file=sys.stderr)
            return 2
    report = run_analysis(args.paths, config, select=select,
                          flow=args.flow)
    findings = report.sorted_findings()

    if args.write_baseline:
        target = Path(args.write_baseline)
        previous = Baseline()
        if target.is_file():
            try:
                previous = Baseline.load(target)
            except (ValueError, KeyError, OSError):
                pass  # corrupt/unreadable: treat as empty, rewrite fresh
        current = Baseline.from_findings(findings)
        added, removed = current.diff(previous)
        current.save(target)
        print(f"wrote {len(findings)} finding(s) to {target} "
              f"(ratchet delta: +{added} new, -{removed} pruned)")
        return 0

    match = BaselineMatch(new=findings)
    if args.baseline:
        baseline_path = Path(args.baseline)
        if not baseline_path.is_file():
            print(f"error: baseline not found: {baseline_path}",
                  file=sys.stderr)
            return 2
        match = Baseline.load(baseline_path).match(findings)

    if args.output_format == "json":
        _emit_json(args, report, match)
    elif args.output_format == "github":
        _emit_github(args, report, match)
    else:
        _emit_text(args, report, match)
    return 1 if (match.new or report.parse_errors) else 0


def _summary(args: argparse.Namespace, report,
             match: BaselineMatch) -> str:
    return (f"{len(match.new)} finding(s)"
            + (f", {len(match.baselined)} baselined" if args.baseline
               else "")
            + f" across {report.files_checked} file(s)")


def _emit_text(args: argparse.Namespace, report,
               match: BaselineMatch) -> None:
    for finding in match.new:
        print(finding.format())
        if finding.source_line:
            print(f"    {finding.source_line}")
    for error in report.parse_errors:
        print(f"parse error: {error}")
    for entry in match.stale:
        print(f"stale baseline entry: {entry['path']} {entry['rule_id']} "
              f"({entry['source_line']!r}) — no longer found; "
              "regenerate the baseline")
    if args.statistics and match.new:
        counts: dict = {}
        for finding in match.new:
            counts[finding.rule_id] = counts.get(finding.rule_id, 0) + 1
        print()
        for rule_id in sorted(counts):
            print(f"{counts[rule_id]:>5}  {rule_id}")
    print(("FAIL: " if match.new or report.parse_errors else "ok: ")
          + _summary(args, report, match))


def _gh_escape(value: str, property_value: bool = False) -> str:
    """Escape per GitHub's workflow-command rules."""
    out = (value.replace("%", "%25")
                .replace("\r", "%0D")
                .replace("\n", "%0A"))
    if property_value:
        out = out.replace(":", "%3A").replace(",", "%2C")
    return out


def _emit_github(args: argparse.Namespace, report,
                 match: BaselineMatch) -> None:
    """GitHub Actions ``::error`` annotations — findings render inline
    on the PR diff when the job runs with this format."""
    for finding in match.new:
        title = _gh_escape(f"{finding.rule_id} {finding.rule_name}",
                           property_value=True)
        print(f"::error file={_gh_escape(finding.path, True)},"
              f"line={finding.line},col={finding.col + 1},"
              f"title={title}::{_gh_escape(finding.message)}")
    for error in report.parse_errors:
        path = error.split(":", 1)[0]
        print(f"::error file={_gh_escape(path, True)},"
              f"title=parse-error::{_gh_escape(error)}")
    for entry in match.stale:
        print(f"::notice file={_gh_escape(entry['path'], True)},"
              f"title=stale-baseline-entry::"
              f"{_gh_escape(entry['rule_id'])} no longer found; "
              "regenerate the baseline")
    print(("FAIL: " if match.new or report.parse_errors else "ok: ")
          + _summary(args, report, match))


def _emit_json(args: argparse.Namespace, report,
               match: BaselineMatch) -> None:
    payload = {
        "findings": [f.as_dict() for f in match.new],
        "baselined": [f.as_dict() for f in match.baselined],
        "stale_baseline_entries": match.stale,
        "parse_errors": report.parse_errors,
        "files_checked": report.files_checked,
        "flow": args.flow,
        "ok": not (match.new or report.parse_errors),
    }
    print(json.dumps(payload, indent=2))


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-lint",
        description="AST-based determinism & concurrency analyzer")
    add_lint_arguments(parser)
    return run_lint(parser.parse_args(argv))


if __name__ == "__main__":
    raise SystemExit(main())
