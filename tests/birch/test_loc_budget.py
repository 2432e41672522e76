"""Line budget for ``src/repro/birch``.

Phase I is one insertion path (the batch engine), its byte model, its
rebuild and replay, and its driver.  The budget is the package's line
count when the sequential mutators moved into the tests as the oracle,
rounded up to the next 50.

To raise ``BUDGET``, do it only in a change that states why the new
lines are needed and what they could not be taken from; a test failure
here is not a reason on its own.
"""

from pathlib import Path

import repro.birch

BUDGET = 2900


def test_birch_stays_within_its_line_budget():
    package = Path(repro.birch.__file__).parent
    lines = sum(
        len(path.read_text(encoding="utf-8").splitlines())
        for path in package.glob("*.py")
    )
    assert lines <= BUDGET, (
        f"src/repro/birch/*.py is {lines} lines, over the budget of {BUDGET}; "
        f"see this test's docstring before raising it"
    )
