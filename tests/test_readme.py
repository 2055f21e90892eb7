"""The README's Python session runs as written and shows what its comments say."""

from __future__ import annotations

import pytest

from readme_blocks import README, blocks

SESSIONS = blocks("python")


@pytest.mark.skipif(not README.is_file(), reason=f"no README.md beside the tests: {README}")
def test_python_session_runs():
    assert len(SESSIONS) == 1
    scope: dict = {}
    exec(compile(SESSIONS[0], str(README), "exec"), scope)
    assert scope["count_ball"](2, 2) == 13
    report = scope["report"]
    assert report.r == 1 and report.N == 6
    assert report.mean_residual >= report.bound
