"""``repro.lint`` — AST-based determinism & concurrency analyzer.

Not to be confused with :mod:`repro.analysis` (the paper-results
package): ``repro.analysis`` evaluates *alignment outputs*, ``repro.lint``
statically analyzes *this codebase* for patterns that break its two
load-bearing invariants — bit-identical results across reruns/workers/
batch sizes, and a non-blocking, leak-free asyncio serving path.

Two rule layers share one CLI, one suppression syntax, and one
baseline ratchet:

- per-file rules (:class:`Rule` + :func:`rule`): one AST visitor per
  module — DET1xx determinism, ASY2xx direct asyncio-safety, CFG3xx
  config hygiene;
- whole-program *flow* rules (:class:`~repro.lint.flow.FlowRule` +
  :func:`~repro.lint.flow.flow_rule`): built on a project-wide symbol
  table and call graph (:class:`~repro.lint.flow.ProjectModel`) —
  ASY3xx transitive blocking, RES4xx resource lifecycle, PROTO5xx
  wire-schema drift.

Entry points:

- CLI: ``repro lint [paths] [--no-flow] [--format
  text|json|github] [--baseline FILE]``
- API: :func:`~repro.lint.runner.run_analysis` (both layers), or
  :class:`~repro.lint.core.Analyzer` +
  :class:`~repro.lint.config.LintConfig` (per-file only)

Rule catalog: see ``docs/LINT.md`` or ``repro lint --list-rules``.
Suppress a finding inline with ``# repro-lint: disable=<RULE>`` (by id or
name); suppressions that suppress nothing are themselves findings.
"""

from repro.lint.baseline import Baseline, BaselineMatch
from repro.lint.config import DEFAULT_SCOPES, LintConfig
from repro.lint.core import (
    Analyzer,
    AnalysisReport,
    Finding,
    Rule,
    all_rules,
    rule,
    rules_by_category,
)
from repro.lint.flow import (
    FlowRule,
    ProjectModel,
    all_flow_rules,
    flow_rule,
)
from repro.lint.runner import run_analysis

__all__ = [
    "Analyzer",
    "AnalysisReport",
    "Baseline",
    "BaselineMatch",
    "DEFAULT_SCOPES",
    "Finding",
    "FlowRule",
    "LintConfig",
    "ProjectModel",
    "Rule",
    "all_flow_rules",
    "all_rules",
    "flow_rule",
    "rule",
    "rules_by_category",
    "run_analysis",
]
