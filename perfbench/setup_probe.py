"""Measure the benchmark's set-up once, in this fresh process.

    python3 perfbench/setup_probe.py <workload>

Prints one JSON object: the seconds taken by the import of phasekit, by
``simple_systems.load_systems`` for all five models, by one warm-up call
of the workload, their total, and the calibration kernel's median time
(the mean of its medians right before and right after).  ``run.py``
starts it several times and reports the median calibrated total as
``setup_s``.
"""

import json
import sys

import run

if __name__ == "__main__":
    run.prepare_environment()
    import calibration
    before = calibration.kernel_median_s(15)
    times = run.setup_once(sys.argv[1])
    times["kernel_s"] = (before + calibration.kernel_median_s(15)) / 2
    print(json.dumps(times))
