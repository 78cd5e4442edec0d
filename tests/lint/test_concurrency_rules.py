"""Tests for the concurrency analyses: R10 and what replaced R9.

Each R10 fixture writes a minimal ``repro/``-shaped tree into
``tmp_path`` that seeds exactly one hazard — an unannotated
shared-state mutation, a write outside its guard — and asserts the
audit reports it (and that the disciplined equivalent is clean).
These are the negative fixtures the self-clean test can't provide: the
real tree must lint at zero findings, so the proof that the analysis
*catches* anything lives here.  Lock order has no static analysis: the
R9 class seeds bad nestings on ranked ``TrackedLock`` s and expects the
acquire itself to refuse them.
"""

import json
import textwrap
from contextlib import ExitStack

import pytest

from repro.errors import InvariantViolation
from repro.lint import run_lint, sanitizer
from repro.lint.__main__ import main
from repro.lint.concur.runtime import LOCK_RANKS, TrackedLock, held_locks

pytestmark = pytest.mark.lint


def write(tmp_path, relpath, source):
    path = tmp_path / relpath
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source))
    return path


def lint(tmp_path, rule):
    return run_lint([str(tmp_path)], rules=[rule])


class TestR9LockOrderGraph:
    """R9 is not a lint rule any more: there is no static lock graph.
    Every product mutex is a ranked ``TrackedLock`` and the order is
    checked where the lock is taken (sanitizer on), so a bad nesting
    fails deterministically the first time any thread executes it."""

    def test_injected_lock_order_cycle(self):
        commit = TrackedLock("Database._commit_lock")
        journal = TrackedLock("Journal._lock")
        with commit:
            with journal:  # the commit path's order
                pass
        with journal:
            with pytest.raises(InvariantViolation, match="rank inversion"):
                commit.acquire()
            assert not commit.locked()
            assert held_locks() == ("Journal._lock",)
        # sanitizer off: an acquire is the held-stack push/pop, nothing else.
        with sanitizer.override(False), journal, commit:
            assert held_locks() == ("Journal._lock", "Database._commit_lock")
        assert held_locks() == ()

    def test_consistent_order_is_clean(self):
        assert len(set(LOCK_RANKS.values())) == len(LOCK_RANKS) == 11
        locks = [TrackedLock(name) for name in sorted(LOCK_RANKS, key=LOCK_RANKS.get)]
        with ExitStack() as nest:
            for lock in locks:
                nest.enter_context(lock)
            assert held_locks() == tuple(lock.name for lock in locks)
        # an unranked (scratch) lock is never checked, in either direction
        scratch = TrackedLock("scratch")
        with locks[-1], scratch:
            pass
        with scratch, locks[0]:
            pass

    def test_non_reentrant_self_acquisition_via_callee(self):
        lock = TrackedLock("LockManager._cond")

        def helper():
            with lock:
                pass

        with lock:
            # a plain mutex would hang here for good
            with pytest.raises(InvariantViolation, match="LockManager._cond"):
                helper()
        helper()


class TestR10SharedState:
    def test_unannotated_global_mutation(self, tmp_path):
        write(
            tmp_path,
            "repro/inner/state.py",
            """
            _CACHE = {}

            def poke():
                _CACHE["k"] = 1
            """,
        )
        findings = lint(tmp_path, "R10")
        assert len(findings) == 1
        assert "_CACHE" in findings[0].message
        assert "annotation" in findings[0].message

    def test_guarded_write_under_its_lock_is_clean(self, tmp_path):
        write(
            tmp_path,
            "repro/inner/state.py",
            """
            import threading

            _LOCK = threading.Lock()
            _CACHE = {}  # concurrency: guarded-by(_LOCK)

            def poke():
                with _LOCK:
                    _CACHE["k"] = 1
            """,
        )
        assert lint(tmp_path, "R10") == []

    def test_guarded_write_without_the_lock(self, tmp_path):
        write(
            tmp_path,
            "repro/inner/state.py",
            """
            import threading

            _LOCK = threading.Lock()
            _OTHER = threading.Lock()
            _CACHE = {}  # concurrency: guarded-by(_LOCK)

            def poke():
                with _OTHER:
                    _CACHE["k"] = 1
            """,
        )
        findings = lint(tmp_path, "R10")
        assert len(findings) == 1
        assert "guarded-by(_LOCK)" in findings[0].message
        assert "_OTHER" in findings[0].message

    def test_immutable_mutated_outside_registration(self, tmp_path):
        write(
            tmp_path,
            "repro/inner/state.py",
            """
            REG = {}  # concurrency: immutable

            def register_thing(k):
                REG[k] = 1

            def poke(k):
                REG[k] = 2
            """,
        )
        findings = lint(tmp_path, "R10")
        assert len(findings) == 1
        assert "immutable" in findings[0].message
        assert findings[0].line == 8

    def test_thread_local_writes_are_clean(self, tmp_path):
        write(
            tmp_path,
            "repro/inner/state.py",
            """
            import threading

            _TLS = threading.local()  # concurrency: thread-local

            def poke():
                _TLS.value = 1
            """,
        )
        assert lint(tmp_path, "R10") == []

    def test_global_rebind_and_mutator_call(self, tmp_path):
        write(
            tmp_path,
            "repro/inner/state.py",
            """
            _ACTIVE = None
            _ITEMS = []

            def set_active(value):
                global _ACTIVE
                _ACTIVE = value

            def poke():
                _ITEMS.append(1)
            """,
        )
        messages = [f.message for f in lint(tmp_path, "R10")]
        assert len(messages) == 2
        assert any("_ACTIVE" in m for m in messages)
        assert any("_ITEMS" in m and "append" in m for m in messages)

    def test_init_is_exempt(self, tmp_path):
        write(
            tmp_path,
            "repro/inner/state.py",
            """
            _SLOTS = {}

            class Thing:
                def __init__(self):
                    _SLOTS[id(self)] = self
            """,
        )
        assert lint(tmp_path, "R10") == []

    def test_singleton_attribute_guard_checked(self, tmp_path):
        write(
            tmp_path,
            "repro/inner/reg.py",
            """
            import threading

            class Registry:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._data = {}  # concurrency: guarded-by(self._lock)

                def put(self, k, v):
                    self._data[k] = v

                def put_locked(self, k, v):
                    with self._lock:
                        self._data[k] = v

            REG = Registry()
            """,
        )
        findings = lint(tmp_path, "R10")
        assert len(findings) == 1
        assert "Registry._data" in findings[0].message
        assert findings[0].line == 10

    def test_suppression_comment(self, tmp_path):
        write(
            tmp_path,
            "repro/inner/state.py",
            """
            _CACHE = {}

            def poke():
                _CACHE["k"] = 1  # replint: disable=R10
            """,
        )
        assert lint(tmp_path, "R10") == []


class TestConcurrencyCli:
    def test_concurrency_flag_is_gone(self, capsys):
        with pytest.raises(SystemExit) as usage:
            main(["--concurrency", "src/repro"])
        assert usage.value.code == 2
        assert "--concurrency" in capsys.readouterr().err

    def test_per_rule_counts_in_summary(self, tmp_path, capsys):
        write(
            tmp_path,
            "repro/inner/state.py",
            """
            _CACHE = {}

            def poke(x=[]):
                _CACHE["k"] = 1
                return x
            """,
        )
        assert main([str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert "R5=1" in err and "R10=1" in err

    def test_json_report(self, tmp_path, capsys):
        write(
            tmp_path,
            "repro/inner/state.py",
            """
            _CACHE = {}

            def poke():
                _CACHE["k"] = 1
            """,
        )
        assert main(["--json", str(tmp_path)]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["total"] == 1
        assert report["counts"] == {"R10": 1}
        assert report["findings"][0]["rule"] == "R10"
        assert report["findings"][0]["line"] == 5
