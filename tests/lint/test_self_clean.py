"""The replint meta-test: the repo must lint clean against itself.

This is the regression guard the lint rules exist for — any future PR
that mutates storage from the query path, writes a file around fsio,
reads the wall clock on simulated time, touches shared state outside
its guard, or degrades the public API surface fails here with
file:line findings.
"""

import os

import pytest

from repro.lint import run_lint
from repro.lint.__main__ import main

pytestmark = pytest.mark.lint

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def _repo_path(*parts):
    return os.path.join(REPO_ROOT, *parts)


class TestSelfClean:
    def test_src_repro_has_zero_findings(self):
        findings = run_lint([_repo_path("src", "repro")])
        assert findings == [], "\n" + "\n".join(f.render() for f in findings)

    def test_whole_repo_has_zero_findings(self):
        paths = [
            _repo_path("src"),
            _repo_path("tests"),
            _repo_path("benchmarks"),
            _repo_path("examples"),
            _repo_path("conftest.py"),
        ]
        findings = run_lint([p for p in paths if os.path.exists(p)])
        assert findings == [], "\n" + "\n".join(f.render() for f in findings)


class TestCli:
    def test_clean_tree_exits_zero(self, capsys):
        assert main([_repo_path("src", "repro")]) == 0
        assert capsys.readouterr().out == ""

    def test_findings_exit_nonzero_with_file_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("def f(x=[]):\n    return x\n")
        assert main([str(bad)]) == 1
        out = capsys.readouterr().out
        assert f"{bad}:1: R5" in out
        assert "mutable default" in out

    def test_rule_filter(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text("def f(x=[]):\n    return x\n")
        assert main(["--rules", "R4", str(bad)]) == 0
        assert main(["--rules", "R5", str(bad)]) == 1

    def test_unknown_rule_id_is_an_error(self, tmp_path, capsys):
        good = tmp_path / "fine.py"
        good.write_text("x = 1\n")
        assert main(["--rules", "R99", str(good)]) == 2
        assert "unknown rule id" in capsys.readouterr().err

    def test_missing_path_is_an_error(self, tmp_path, capsys):
        assert main([str(tmp_path / "nope")]) == 2
        assert "no such file or directory" in capsys.readouterr().err

    def test_list_rules(self, capsys):
        assert main(["--list"]) == 0
        listed = [line.split()[0] for line in capsys.readouterr().out.splitlines()]
        assert listed == ["R4", "R5", "R6", "R7", "R8", "R10", "R11", "R13"]
