"""Set-up probe: import the program and set one workload up, in a fresh
interpreter.

::

    python3 ledgerbench/probe.py --workload W --seed S --inputs DIR

Prints ``ready`` once the workload is ready to measure (publisher, and for
``tall_outofcore`` the HTTP server, started), then waits for standard input to
close, tears down and exits.  ``run.py`` times start to ``ready``.
"""

import argparse
import sys
from pathlib import Path

import measure


def main() -> None:
    parser = argparse.ArgumentParser(description="Time one workload's set-up.")
    parser.add_argument("--workload", required=True, choices=sorted(measure.WORKLOAD_CLASSES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--inputs", type=Path, required=True)
    args = parser.parse_args()
    workload = measure.make(args.workload, args.seed, args.inputs)
    workload.setup()
    try:
        print("ready", flush=True)
        sys.stdin.read()
    finally:
        workload.teardown()


if __name__ == "__main__":
    main()
