"""Repo-root pytest configuration.

Puts ``src/`` on sys.path so the test and benchmark suites run against
the in-tree package even when it has not been pip-installed (useful in
offline environments where editable installs are awkward) and ``tests/``
so test modules can share ``storage_helpers``, and turns
on the replint runtime sanitizer for the whole suite so every test run
doubles as an invariant check (CI sets nothing; opt out locally with
``REPRO_SANITIZE=0``).
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "src"))
sys.path.insert(0, os.path.join(os.path.dirname(__file__), "tests"))

import pytest  # noqa: E402


@pytest.fixture(autouse=True)
def _repro_sanitize():
    """Enable runtime invariant checks for every test.

    ``REPRO_SANITIZE=0`` disables (e.g. for timing-sensitive benchmark
    runs); any other setting — including unset — leaves them on.
    """
    from repro.lint import sanitizer

    if os.environ.get("REPRO_SANITIZE", "") == "0":
        yield
        return
    with sanitizer.override(True):
        yield
