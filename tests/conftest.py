"""Shared pytest fixtures and the acceptance summary.

Acceptance-level checks register one line each through the ``acceptance``
fixture; the collected lines are printed as a dedicated section at the end
of the run so the pass/fail status of every headline requirement is visible
at a glance.
"""

import math

import numpy as np
import pytest

ACCEPTANCE_LINES = []


def _detect_bins_oracle(column, policy):
    """Per-column reference detection: threshold and bins, strongest first."""
    if policy.kind == "relative-to-max":
        threshold = policy.ratio * float(column.max())
    else:
        sigma = float(np.median(column)) / math.sqrt(2.0 * math.log(2.0))
        threshold = sigma * math.sqrt(2.0 * math.log(column.size / (1.0 - policy.confidence)))
    hits = np.flatnonzero((column >= threshold) & (column > 0.0))
    return threshold, sorted(hits.tolist(), key=lambda b: (-column[b], b))


@pytest.fixture(scope="module")
def detect_bins_oracle():
    """The per-column detection oracle; hypothesis tests cannot take function-scoped fixtures."""
    return _detect_bins_oracle


@pytest.fixture
def acceptance():
    """Record one acceptance check and assert that it passed."""

    def record(name, passed, detail=""):
        ACCEPTANCE_LINES.append((str(name), bool(passed), str(detail)))
        assert passed, f"acceptance check {name!r} failed: {detail or 'see detail'}"

    return record


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_LINES:
        return
    terminalreporter.section("acceptance checks")
    for name, passed, detail in ACCEPTANCE_LINES:
        status = "PASS" if passed else "FAIL"
        line = f"ACCEPTANCE {status}  {name}"
        if detail:
            line += f"  [{detail}]"
        terminalreporter.write_line(line)
