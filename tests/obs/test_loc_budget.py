"""Line budget for ``src/repro/obs``.

Observability exists to say where a run's time went and whether it
degraded; it should stay smaller than the miner it watches.  The budget
is the package's line count when health grading, the postmortem window
and the profiler were folded into one model, rounded up to the next 50.

To raise ``BUDGET``, do it only in a change that states why the new
lines are needed and what they could not be taken from; a test failure
here is not a reason on its own.
"""

from pathlib import Path

import repro.obs

BUDGET = 2700


def test_obs_stays_within_its_line_budget():
    package = Path(repro.obs.__file__).parent
    lines = sum(
        len(path.read_text(encoding="utf-8").splitlines())
        for path in package.glob("*.py")
    )
    assert lines <= BUDGET, (
        f"src/repro/obs/*.py is {lines} lines, over the budget of {BUDGET}; "
        f"see this test's docstring before raising it"
    )
