"""Run one command and report its wall time and peak resident memory.

The peak is the command's own high-water mark (``ru_maxrss`` of that
child, read with ``os.wait4``), so each measured command gets a process
of its own.  Run from the repository root:

    python tools/peak_rss.py python -m repro mine big.csv --memory-budget 256k

The command's output passes through; one ``# peak_rss_mb=... wall_s=...``
line goes to stderr, and the exit status is the command's.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
from typing import List


def main(argv: List[str]) -> int:
    if not argv:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    started = time.perf_counter()
    process = subprocess.Popen(argv)
    _, status, usage = os.wait4(process.pid, 0)
    wall = time.perf_counter() - started
    process.returncode = os.waitstatus_to_exitcode(status)
    # Linux reports ru_maxrss in KiB.
    print(
        f"# peak_rss_mb={usage.ru_maxrss / 1024:.1f} wall_s={wall:.1f}",
        file=sys.stderr,
    )
    return process.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
