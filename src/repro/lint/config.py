"""``[tool.repro-lint]`` configuration: per-path rule-category scoping.

The analyzer scopes each rule *category* to the directories where its
invariant actually holds — determinism rules over the simulator stack,
async-safety rules over the serving stack, config-hygiene rules over the
hardware/power models. Scopes live in ``pyproject.toml``::

    [tool.repro-lint]
    exclude = ["src/repro/lint/fixtures/*"]

    [tool.repro-lint.scopes]
    determinism = ["src/repro/sim/*", "src/repro/genome/*"]
    async-safety = ["src/repro/service/*"]
    config-hygiene = ["src/repro/hw/*"]

Patterns are :mod:`fnmatch` globs matched against project-root-relative
posix paths (``*`` crosses ``/``, so ``src/repro/sim/*`` covers nested
modules). Categories absent from the file fall back to the built-in
defaults below, so the analyzer is useful with zero configuration.

Python 3.9 has no :mod:`tomllib`; rather than grow a dependency, a
minimal TOML-subset reader below handles the sections this tool owns
(string keys, strings, and string arrays — including multiline arrays).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fnmatch import fnmatchcase
from pathlib import Path
from typing import Dict, List, Optional, Sequence

try:  # Python 3.11+
    import tomllib as _toml
except ImportError:  # pragma: no cover - depends on interpreter version
    _toml = None

__all__ = ["LintConfig", "DEFAULT_SCOPES", "find_project_root"]

#: Built-in category scoping, mirroring the invariants' home directories.
DEFAULT_SCOPES: Dict[str, List[str]] = {
    "determinism": [
        "src/repro/sim/*",
        "src/repro/extension/*",
        "src/repro/seeding/*",
        "src/repro/genome/*",
        "src/repro/runtime/*",
        "src/repro/experiments/*",
    ],
    "async-safety": [
        "src/repro/service/*",
    ],
    "config-hygiene": [
        "src/repro/hw/*",
        "src/repro/power/*",
        "src/repro/baselines/*",
    ],
    # Flow-rule categories (see repro.lint.flow). Resource-lifecycle
    # covers every layer that owns OS handles; wire-protocol is pinned
    # to exactly the modules that produce or consume NDJSON messages so
    # an unrelated json.loads can't pollute the extracted schema.
    "resource-lifecycle": [
        "src/repro/service/*",
        "src/repro/cluster/*",
        "src/repro/seeding/*",
        "src/repro/runtime/*",
    ],
    "wire-protocol": [
        "src/repro/service/protocol.py",
        "src/repro/service/client.py",
        "src/repro/service/server.py",
        "src/repro/service/session.py",
        "src/repro/service/engine.py",
        "src/repro/service/loadgen.py",
        "src/repro/cluster/gateway.py",
        "src/repro/cluster/merge.py",
    ],
}

_SECTION = "tool.repro-lint"


@dataclass
class LintConfig:
    """Resolved scoping + excludes for one analyzer run."""

    scopes: Dict[str, List[str]] = field(
        default_factory=lambda: {k: list(v)
                                 for k, v in DEFAULT_SCOPES.items()})
    exclude: List[str] = field(default_factory=list)
    disable: List[str] = field(default_factory=list)
    #: ``[tool.repro-lint.flow]`` — extra knowledge for the flow layer
    #: (``wire-bridges``: functions whose results are wire objects even
    #: though the dataflow crosses a future/queue; ``wire-producers``:
    #: payload factories whose dict literals are wire writes).
    flow: Dict[str, List[str]] = field(default_factory=dict)
    project_root: Optional[Path] = None

    # -- construction ---------------------------------------------------- #

    @classmethod
    def load(cls, start: Optional[Path] = None) -> "LintConfig":
        """Config from the nearest ``pyproject.toml`` at/above ``start``
        (default: cwd); built-in defaults when none is found."""
        root = find_project_root(start or Path.cwd())
        if root is None:
            return cls()
        return cls.from_pyproject(root / "pyproject.toml")

    @classmethod
    def from_pyproject(cls, pyproject: Path) -> "LintConfig":
        try:
            text = pyproject.read_text(encoding="utf-8")
        except OSError:
            return cls(project_root=pyproject.parent)
        return cls.from_toml_text(text, project_root=pyproject.parent)

    @classmethod
    def from_toml_text(cls, text: str,
                       project_root: Optional[Path] = None) -> "LintConfig":
        table = _load_repro_lint_table(text)
        config = cls(project_root=project_root)
        scopes = table.get("scopes")
        if isinstance(scopes, dict):
            for category, patterns in scopes.items():
                if isinstance(patterns, list):
                    config.scopes[category] = [str(p) for p in patterns]
        exclude = table.get("exclude")
        if isinstance(exclude, list):
            config.exclude = [str(p) for p in exclude]
        disable = table.get("disable")
        if isinstance(disable, list):
            config.disable = [str(r) for r in disable]
        flow = table.get("flow")
        if isinstance(flow, dict):
            config.flow = {key: [str(v) for v in values]
                           for key, values in flow.items()
                           if isinstance(values, list)}
        return config

    @classmethod
    def everywhere(cls, categories: Sequence[str] = (),
                   project_root: Optional[Path] = None) -> "LintConfig":
        """A config scoping every category (or the given ones) to all
        paths — what the self-test fixtures run under."""
        names = list(categories) or list(DEFAULT_SCOPES)
        return cls(scopes={name: ["*"] for name in names},
                   project_root=project_root)

    # -- queries --------------------------------------------------------- #

    def project_relative(self, path: Path) -> str:
        """Posix path relative to the project root (falls back to the
        path as given when outside the project)."""
        resolved = path.resolve()
        if self.project_root is not None:
            try:
                return resolved.relative_to(
                    self.project_root.resolve()).as_posix()
            except ValueError:
                pass
        return path.as_posix()

    def applies(self, rule_cls, path: str) -> bool:
        """True when ``rule_cls`` should run on the file at ``path``."""
        if rule_cls.rule_id in self.disable or rule_cls.name in self.disable:
            return False
        return self.category_applies(rule_cls.category, path)

    def category_applies(self, category: str, path: str) -> bool:
        """True when rules of ``category`` are scoped to ``path``."""
        if self.is_excluded(path):
            return False
        patterns = self.scopes.get(category, [])
        return any(_match(path, pattern) for pattern in patterns)

    def is_excluded(self, path: str) -> bool:
        return any(_match(path, pattern) for pattern in self.exclude)


def _match(path: str, pattern: str) -> bool:
    if fnmatchcase(path, pattern):
        return True
    # A bare directory pattern covers everything beneath it.
    return fnmatchcase(path, pattern.rstrip("/") + "/*")


def find_project_root(start: Path) -> Optional[Path]:
    """Nearest ancestor (inclusive) containing a ``pyproject.toml``."""
    current = start.resolve()
    if current.is_file():
        current = current.parent
    for candidate in [current, *current.parents]:
        if (candidate / "pyproject.toml").is_file():
            return candidate
    return None


# ---------------------------------------------------------------------- #
# TOML loading (tomllib when available, subset reader otherwise)
# ---------------------------------------------------------------------- #

def _load_repro_lint_table(text: str) -> Dict[str, object]:
    if _toml is not None:
        try:
            data = _toml.loads(text)
        except _toml.TOMLDecodeError:
            return {}
        table = data.get("tool", {}).get("repro-lint", {})
        return table if isinstance(table, dict) else {}
    return _parse_toml_subset(text)


_HEADER_RE = re.compile(r"^\s*\[(?P<name>[^\]]+)\]\s*$")
_KEY_RE = re.compile(r'^\s*(?:"(?P<quoted>[^"]+)"|(?P<bare>[A-Za-z0-9_-]+))'
                     r"\s*=\s*(?P<value>.*)$")
_STRING_RE = re.compile(r'"((?:[^"\\]|\\.)*)"')


def _parse_toml_subset(text: str) -> Dict[str, object]:
    """Extract the ``[tool.repro-lint*]`` tables from TOML text.

    Understands only what this tool's own config uses — table headers,
    ``key = "string"`` and ``key = [array of strings]`` (multiline
    allowed). Everything outside the repro-lint tables is skipped, so
    the rest of pyproject.toml may use arbitrary TOML.
    """
    table: Dict[str, object] = {}
    current: Optional[Dict[str, object]] = None
    lines = iter(text.splitlines())
    for line in lines:
        header = _HEADER_RE.match(line)
        if header:
            name = header.group("name").strip()
            if name == _SECTION:
                current = table
            elif name.startswith(_SECTION + "."):
                sub = name[len(_SECTION) + 1:]
                parent: Dict[str, object] = table
                for part in sub.split(".")[:-1]:
                    parent = parent.setdefault(part, {})  # type: ignore[assignment]
                child: Dict[str, object] = {}
                parent[sub.split(".")[-1]] = child
                current = child
            else:
                current = None
            continue
        if current is None:
            continue
        key_match = _KEY_RE.match(line)
        if not key_match:
            continue
        key = key_match.group("quoted") or key_match.group("bare")
        value = key_match.group("value").strip()
        if value.startswith("["):
            while "]" not in value:
                try:
                    value += " " + next(lines).strip()
                except StopIteration:
                    break
            current[key] = _STRING_RE.findall(value)
        elif value.startswith('"'):
            strings = _STRING_RE.findall(value)
            current[key] = strings[0] if strings else ""
        elif value in ("true", "false"):
            current[key] = value == "true"
    return table
