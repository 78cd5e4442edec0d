"""perflab's own tests: ``python -m pytest -q perflab/tests``."""

import os
import sys

import pytest

REPO = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
for path in (os.path.join(REPO, "src"), REPO):
    if path not in sys.path:
        sys.path.insert(0, path)


@pytest.fixture(autouse=True)
def _repro_sanitize():
    """Overrides the repo-wide fixture that turns the runtime sanitizer
    on: perflab measures the product as shipped, sanitizer off."""
    yield
