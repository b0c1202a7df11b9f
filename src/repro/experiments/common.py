"""Shared experiment plumbing.

Every experiment module exposes ``run(...) -> ExperimentResult`` that
regenerates one paper exhibit (table or figure) — the same rows/series the
paper reports, alongside the paper's published values for comparison.

Worker parallelism for independent simulations is carried separately
from experiment parameters: the runner/CLI install a worker count via
:func:`execution` and the parallel sweeps resolve it with
:func:`resolve_execution`, without every experiment signature having to
thread it through.  The default is ``1``, the serial reference path;
every worker count yields identical numbers.
"""

from __future__ import annotations

import csv
import os
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, TextIO, Union

_active_parallelism = 1


@contextmanager
def execution(parallelism: Optional[int]) -> Iterator[int]:
    """Scoped ambient worker count (``None`` = serial)."""
    global _active_parallelism
    active = 1 if parallelism is None else parallelism
    if active <= 0:
        raise ValueError(f"parallelism must be positive, got {active}")
    previous, _active_parallelism = _active_parallelism, active
    try:
        yield active
    finally:
        _active_parallelism = previous


def resolve_execution(parallelism: Optional[int]) -> int:
    """An explicit worker count if given, else the ambient one."""
    return parallelism if parallelism is not None else _active_parallelism


@dataclass
class ExperimentResult:
    """One regenerated exhibit.

    Attributes:
        exhibit: paper label, e.g. "Figure 11".
        title: what the exhibit shows.
        rows: list of dict rows (the regenerated data).
        paper: the paper's published values for the same quantities, for
            side-by-side comparison in EXPERIMENTS.md.
        notes: caveats (substitutions, calibration).
    """

    exhibit: str
    title: str
    rows: List[Dict[str, Any]] = field(default_factory=list)
    paper: Dict[str, Any] = field(default_factory=dict)
    notes: str = ""

    def columns(self) -> List[str]:
        ordered: List[str] = []
        for row in self.rows:
            for key in row:
                if key not in ordered:
                    ordered.append(key)
        return ordered

    def format(self, max_rows: Optional[int] = 40) -> str:
        """Render as a fixed-width text table."""
        lines = [f"== {self.exhibit}: {self.title} =="]
        cols = self.columns()
        if cols:
            shown = self.rows if max_rows is None else self.rows[:max_rows]
            widths = {c: max(len(c), *(len(_fmt(r.get(c))) for r in shown))
                      for c in cols}
            lines.append("  ".join(c.ljust(widths[c]) for c in cols))
            for row in shown:
                lines.append("  ".join(
                    _fmt(row.get(c)).ljust(widths[c]) for c in cols))
            if max_rows is not None and len(self.rows) > max_rows:
                lines.append(f"... ({len(self.rows) - max_rows} more rows)")
        if self.paper:
            lines.append("-- paper reference --")
            for key, value in self.paper.items():
                lines.append(f"  {key}: {value}")
        if self.notes:
            lines.append(f"note: {self.notes}")
        return "\n".join(lines)

    def to_csv(self, target: Union[str, os.PathLike, TextIO]) -> int:
        """Write the rows as CSV (for external plotting); returns row count.

        The paper-reference and notes travel as ``#``-prefixed header
        comments so a single file is self-describing.
        """
        own = isinstance(target, (str, os.PathLike))
        handle = open(target, "w", encoding="utf-8", newline="") \
            if own else target
        try:
            handle.write(f"# {self.exhibit}: {self.title}\n")
            for key, value in self.paper.items():
                handle.write(f"# paper {key}: {value}\n")
            if self.notes:
                handle.write(f"# note: {self.notes}\n")
            writer = csv.DictWriter(handle, fieldnames=self.columns())
            writer.writeheader()
            for row in self.rows:
                writer.writerow(row)
        finally:
            if own:
                handle.close()
        return len(self.rows)


def _fmt(value: Any) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.4g}"
    return str(value)
