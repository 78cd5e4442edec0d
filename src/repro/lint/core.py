"""replint core: project model, checker registry, runner.

``replint`` is the repo's own static-analysis pass.  It parses every
Python file under the given paths into ASTs once, wraps them in a
:class:`Project`, and hands the project to each registered
:class:`Checker`.  Checkers yield :class:`Finding` s; the CLI renders
them as ``path:line: RULE message`` and exits non-zero when any
survive suppression.

Suppression works per line with a trailing comment::

    risky_call()  # replint: disable=R4

or ``# replint: disable`` to silence every rule on that line.  Use it
sparingly — each suppression is an assertion that a human reviewed the
site.
"""

from __future__ import annotations

import ast
import os
import re
from dataclasses import dataclass, field
from typing import Iterable, Iterator


@dataclass(frozen=True)
class Finding:
    """One rule violation at a specific source location."""

    rule: str
    path: str
    line: int
    message: str

    def render(self) -> str:
        """``path:line: RULE message`` — the CLI output format."""
        return f"{self.path}:{self.line}: {self.rule} {self.message}"


_SUPPRESS_RE = re.compile(r"#\s*replint:\s*disable(?:=([A-Za-z0-9_,\s]+))?")


@dataclass
class Module:
    """A parsed source file plus the lookup helpers checkers need."""

    path: str
    source: str
    tree: ast.Module
    #: line number -> set of suppressed rule ids ("*" = all rules).
    suppressions: dict[int, set[str]] = field(default_factory=dict)

    @classmethod
    def parse(cls, path: str) -> "Module":
        """Parse ``path``; raises SyntaxError for unparseable files."""
        with open(path, encoding="utf-8") as handle:
            source = handle.read()
        tree = ast.parse(source, filename=path)
        suppressions: dict[int, set[str]] = {}
        for lineno, line in enumerate(source.splitlines(), start=1):
            match = _SUPPRESS_RE.search(line)
            if match:
                rules = match.group(1)
                if rules:
                    ids = {rule.strip().upper() for rule in rules.split(",")}
                else:
                    ids = {"*"}
                suppressions[lineno] = ids
        return cls(path=path, source=source, tree=tree, suppressions=suppressions)

    @property
    def norm_path(self) -> str:
        """Path with forward slashes, for fragment matching."""
        return self.path.replace(os.sep, "/")

    def is_test_code(self) -> bool:
        """Whether the module is part of the test suite."""
        norm = self.norm_path
        return "/tests/" in norm or norm.startswith("tests/")

    def suppressed(self, line: int, rule: str) -> bool:
        """Whether ``rule`` is disabled on ``line`` of this module."""
        ids = self.suppressions.get(line)
        return bool(ids) and ("*" in ids or rule.upper() in ids)


class Project:
    """Every parsed module of one lint run."""

    def __init__(self, modules: list[Module]):
        self.modules = modules
        self._by_path = {module.norm_path: module for module in modules}

    @classmethod
    def load(cls, paths: Iterable[str]) -> "Project":
        """Collect and parse ``*.py`` under each path (file or tree)."""
        files: list[str] = []
        for path in paths:
            if os.path.isfile(path):
                files.append(path)
                continue
            if not os.path.isdir(path):
                raise FileNotFoundError(f"no such file or directory: {path!r}")
            for dirpath, dirnames, filenames in os.walk(path):
                dirnames[:] = sorted(
                    d for d in dirnames
                    if d not in ("__pycache__", ".git", ".pytest_cache")
                )
                for filename in sorted(filenames):
                    if filename.endswith(".py"):
                        files.append(os.path.join(dirpath, filename))
        return cls([Module.parse(path) for path in files])


class Checker:
    """Base class for lint rules.

    Subclasses set :attr:`rule` / :attr:`title` and implement
    :meth:`check`, yielding findings over the whole project (R10 needs
    the cross-module singleton inventory).  Register with
    :func:`register_checker` so the runner and ``--list`` see them.
    """

    #: Short rule id ("R4", "R10", ...).
    rule: str = "R0"
    #: One-line description shown by ``python -m repro.lint --list``.
    title: str = ""

    def check(self, project: Project) -> Iterator[Finding]:
        """Yield every violation of this rule in ``project``."""
        raise NotImplementedError

    def finding(self, module: Module, line: int, message: str) -> Finding:
        """Build a :class:`Finding` against ``module``."""
        return Finding(rule=self.rule, path=module.path, line=line, message=message)


#: All registered checkers, in registration (= rule id) order.
CHECKERS: list[Checker] = []  # concurrency: immutable


def register_checker(cls: type[Checker]) -> type[Checker]:
    """Class decorator adding an instance of ``cls`` to :data:`CHECKERS`."""
    CHECKERS.append(cls())
    return cls


def run_lint(
    paths: Iterable[str], rules: Iterable[str] | None = None
) -> list[Finding]:
    """Lint ``paths`` and return surviving findings, sorted by location.

    ``rules`` restricts the run to specific rule ids (case-insensitive).
    Importing :mod:`repro.lint.rules` here keeps the package import
    light for the sanitizer's sake.
    """
    from . import rules as _rules  # noqa: F401  (registers checkers)

    wanted = {rule.strip().upper() for rule in rules} if rules else None
    if wanted is not None:
        known = {checker.rule.upper() for checker in CHECKERS}
        unknown = sorted(wanted - known)
        if unknown:
            raise ValueError(
                f"unknown rule id(s): {', '.join(unknown)} "
                f"(known: {', '.join(sorted(known))})"
            )
    project = Project.load(paths)
    findings: list[Finding] = []
    for checker in CHECKERS:
        if wanted is not None and checker.rule.upper() not in wanted:
            continue
        for finding in checker.check(project):
            module = project._by_path.get(finding.path.replace(os.sep, "/"))
            if module is not None and module.suppressed(finding.line, finding.rule):
                continue
            findings.append(finding)
    return sorted(findings, key=lambda f: (f.path, f.line, f.rule, f.message))


# -- shared AST helpers used by several rules ---------------------------


def call_name(node: ast.Call) -> str | None:
    """Bare name of a call's function (``foo(...)`` -> "foo")."""
    if isinstance(node.func, ast.Name):
        return node.func.id
    return None


def attribute_chain(node: ast.AST) -> list[str]:
    """``a.b.c`` -> ["a", "b", "c"]; empty list for other shapes."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return list(reversed(parts))
    return []
