"""Time one set-up of a workload in a fresh interpreter.

Usage: ``python3 setup_probe.py <src dir> <seed> <run_load kwargs as JSON>``

Imports what ``repro load`` imports, then calls ``run_load`` and stops
it at the first arrival, after plan generation, boot and deploy.
Prints one JSON object of ``perf_counter`` marks; the clock is
CLOCK_MONOTONIC, so the parent can subtract its own spawn time.
"""

import json
import sys
from time import perf_counter


class _Ready(Exception):
    """Raised at the first arrival to end the set-up."""


def main() -> None:
    src, seed, params = sys.argv[1], int(sys.argv[2]), json.loads(sys.argv[3])
    sys.path.insert(0, src)
    import repro.cli  # noqa: F401 - the module `repro load` runs from
    from repro.loadgen import scenarios
    from repro.loadgen.driver import OpenLoopDriver

    marks = {}
    build_runtime = scenarios.build_runtime

    def timed_build_runtime(*args, **kwargs):
        marks["boot_start"] = perf_counter()
        return build_runtime(*args, **kwargs)

    def ready(driver):
        marks["ready"] = perf_counter()
        raise _Ready

    scenarios.build_runtime = timed_build_runtime
    OpenLoopDriver.run = ready
    marks["plan_start"] = perf_counter()
    try:
        scenarios.run_load(seed=seed, **params)
    except _Ready:
        print(json.dumps(marks))
    else:
        sys.exit("run_load finished without reaching the first arrival")


if __name__ == "__main__":
    main()
