"""Set-up probe: import ``repro`` and build one workload's models.

``run.py`` starts this script and takes the time from just before the
start to the ``time.monotonic()`` reading it prints once every model is
built (the monotonic clock is system-wide, so the two readings compare).
The probe samples the host's speed while it works (:mod:`speed`) and prints
the sampler's kernel time, to be taken out, and its speed factor, to
report the set-up at the reference speed.  Usage::

    python3 perfbench/setup_probe.py <workload>
"""

import sys
import time

import speed
import workloads

#: Sample often: a set-up takes a few tenths of a second.
INTERVAL_S = 0.01


def main(argv) -> int:
    workload = argv[1]
    with speed.SpeedSampler(INTERVAL_S) as sampler:
        sampler.active = True
        started = time.perf_counter()
        workloads.prepare_imports()
        import repro  # noqa: F401 - importing the package is part of set-up

        workloads.build_models(workloads.workload_cells(workload))
        done = time.monotonic()
        sampler.active = False
        spent = sampler.spent(0, started, time.perf_counter())
    print(repr(done), repr(spent), repr(sampler.factor()))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
