"""Acceptance suite: one test per check of the `liouspace validate` registry.

Sizes and bounds live in `liouspace.validate.CHECKS`, not here.  Each test
prints its check's detail line (run with `pytest -s` or `-rA` to see them).
"""

import pytest

from liouspace.validate import CHECKS


@pytest.mark.parametrize("check", [fn for _, fn in CHECKS], ids=[name for name, _ in CHECKS])
def test_check(check):
    ok, detail = check()
    print(f"{'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, detail
