#!/usr/bin/env python3
"""phasekit benchmark: one workload, timed end to end or traced per layer.

    python3 perfbench/run.py --workload {infer,variants,experiment,chains}
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the library is imported from its
``src/`` directory.  The run measures set-up in fresh processes, warms
up, then hands the workload's inputs to the library a round at a time
until the busy time reaches ``--seconds``.  Times are calibrated by a
fixed kernel timed around every round (``calibration.py``), which cancels
slow-downs caused by other load on the machine.  Each round's outputs are
checked right after it, outside the timed span, and then dropped, so the
memory the run holds does not grow with the number of items.  With
``--trace 0`` the last line of standard output is a JSON object with the
end-to-end metrics; with ``--trace 1`` the library's public functions are
wrapped for the timed phase, the same rounds are then made again from the
seed and replayed untraced, and the object holds the per-layer metrics.
Spans go to ``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
OUT_DIR = ROOT / ".perfbench_out"

#: BLAS and OpenMP pools are held at one thread, so the whole load is one
#: single-threaded process; PHASEKIT_THREADS stays unset, so the
#: discrimination experiment runs in-process.
BLAS_THREADS = "1"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
#: Set-up is measured this many times, each in a fresh process.
SETUP_REPEATS = 5
CATALOG_ALL = ("M2", "M3", "M4", "M8", "M9")


def prepare_environment() -> None:
    """Pin thread pools and put the checkout's sources first on the path.

    Must run before numpy is imported.  Exits with code 2 when the
    checkout holds no phasekit sources, so that nothing is measured
    against another copy of the library.
    """
    for var in THREAD_VARS:
        os.environ[var] = BLAS_THREADS
    os.environ.pop("PHASEKIT_THREADS", None)
    src = ROOT / "src"
    if not (src / "phasekit" / "__init__.py").is_file():
        sys.exit(f"perfbench: no phasekit sources under {src}")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))


def setup_once(workload: str) -> dict[str, float]:
    """Import phasekit, load every model's systems and warm up, timed."""
    t0 = time.perf_counter()
    import phasekit  # noqa: F401
    from phasekit import simple_systems
    t1 = time.perf_counter()
    for tag in CATALOG_ALL:
        simple_systems.load_systems(tag)
    t2 = time.perf_counter()
    import workloads
    workloads.WORKLOADS[workload](0).warmup()
    t3 = time.perf_counter()
    return {"total": t3 - t0, "import": t1 - t0, "load_systems": t2 - t1,
            "warmup": t3 - t2}


def measure_setup(workload: str) -> list[float]:
    """Calibrated set-up times of SETUP_REPEATS fresh processes, run one
    at a time: each process's set-up time, scaled by the calibration
    kernel's reference time over its time in that process.  The run's own
    set-up comes first, so every probe finds the files it imports cached."""
    from calibration import REFERENCE_S
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload],
            cwd=ROOT, capture_output=True, text=True, timeout=120,
            check=True)
        probe = json.loads(proc.stdout.splitlines()[-1])
        times.append(probe["total"] * REFERENCE_S / probe["kernel_s"])
    return times


@dataclass
class Phase:
    """What a timed phase leaves: per item, its seconds, the calibration
    scale of its round, its weight and the error it raised (None if it
    succeeded); the problems its checks found; the rounds run; and the
    busy time, as measured and calibrated."""

    records: list[tuple[float, float, int, str | None]] = field(
        default_factory=list)
    problems: list[str] = field(default_factory=list)
    rounds: int = 0
    busy_s: float = 0.0
    calibrated_s: float = 0.0


def error_name(out) -> str | None:
    """The failure an item's output stands for, or None if it succeeded."""
    if not isinstance(out, Exception):
        return None
    return getattr(out, "name", type(out).__name__)


def timed_phase(wl, seconds: float, rounds: int | None = None, tracer=None,
                check: bool = True) -> Phase:
    """Run whole rounds until their busy time reaches ``seconds``, or
    exactly ``rounds`` rounds when that is given.

    Input generation and checks happen between rounds and are not timed.
    The calibration kernel runs right before and right after every round,
    and the round's times are scaled by ``REFERENCE_S`` over the mean of
    the two.  Outputs are checked, unless ``check`` is false, and dropped
    before the next round.
    """
    from calibration import REFERENCE_S, kernel_median_s
    phase = Phase()
    clock = time.perf_counter
    while (phase.rounds < rounds) if rounds is not None \
            else (phase.busy_s < seconds):
        items = wl.next_round()
        outs = []
        before = kernel_median_s()
        if tracer is not None:
            tracer.active = True
        start = clock()
        for item in items:
            if tracer is not None:
                tracer.item = len(phase.records) + len(outs)
            t = clock()
            try:
                out = wl.run(item)
            except Exception as exc:  # counted by type, never re-raised
                out = exc
            outs.append((out, clock() - t))
        busy = clock() - start
        if tracer is not None:
            tracer.active = False
        scale = 2.0 * REFERENCE_S / (before + kernel_median_s())
        phase.busy_s += busy
        phase.calibrated_s += busy * scale
        for item, (out, dt) in zip(items, outs):
            name = error_name(out)
            if name is None and check:
                phase.problems += [f"item {len(phase.records)}: {p}"
                                   for p in wl.check(item, out)]
            phase.records.append((dt, scale, item.weight, name))
        phase.rounds += 1
    return phase


def percentile(values, q: float) -> float:
    import numpy as np  # only after prepare_environment has pinned threads
    return float(np.percentile(np.asarray(values), q))


def end_to_end(wl, records, setup: list[float]) -> dict:
    """The end-to-end metrics, every time calibrated by its round's scale."""
    weight = sum(w for _, _, w, _ in records)
    busy = sum(dt * scale for dt, scale, _, _ in records)
    per_item_ms = [1e3 * dt * scale / w for dt, scale, w, _ in records]
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "setup_s": (statistics.median(setup), "s"),
        "throughput": (weight / busy, "items/s"),
        "item_p50_ms": (percentile(per_item_ms, 50.0), "ms"),
        "item_tail_ms": (percentile(per_item_ms, wl.tail_percentile), "ms"),
        "peak_rss_mb": (peak_mb, "MB"),
    }


def per_layer(tracer, traced: Phase, untraced: Phase,
              setup: dict[str, float]) -> dict:
    """Per-item calls and calibrated self times of every wrapped function,
    and the ratios read from their outputs."""
    from spans import NAMES
    scales = [scale for _, scale, _, _ in traced.records]
    n_items = sum(w for _, _, w, _ in traced.records)
    summary = tracer.summary(scales)
    c = tracer.counters

    def ratio(num, den):
        return num / den if den else 0.0

    out = {}
    for name in NAMES:
        out[f"{name}.calls"] = (summary[name]["calls"] / n_items,
                                "calls/item")
        out[f"{name}.self_s"] = (summary[name]["self_s"] / n_items, "s/item")
    generic = summary["inverse.invert_generic"]
    forward_calls = summary["direct.moment_vector"]["calls"]
    out.update({
        "inverse.invert_generic.miss_ratio":
            (ratio(generic["misses"], generic["calls"]), "ratio"),
        "rashomon.enumerate_variants.valid_ratio":
            (ratio(c["valid"], c["instances"]), "ratio"),
        "rashomon.enumerate_variants.thomas_share":
            (ratio(c["thomas"], c["instances"]), "ratio"),
        "direct.moment_vector.calls_per_solution":
            (ratio(forward_calls, c["solutions"]), "calls"),
        "stochastic.simulate_events.events_per_s":
            (ratio(c["events"],
                   summary["stochastic.simulate_events"]["self_s"]),
             "events/s"),
        "stochastic.fit_multiexp.restarts_used":
            (ratio(c["restarts"], summary["stochastic.fit_multiexp"]["calls"]),
             "count"),
        "trace.overhead_ratio":
            (traced.calibrated_s / untraced.calibrated_s, "ratio"),
        "trace.unattributed_share":
            (1.0 - tracer.top_level_s(scales) / traced.calibrated_s, "ratio"),
        "setup.import_s": (setup["import"], "s"),
        "setup.load_systems_s": (setup["load_systems"], "s"),
        "setup.warmup_s": (setup["warmup"], "s"),
    })
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("infer", "variants", "experiment", "chains"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    prepare_environment()
    setup = setup_once(args.workload)
    setup_times = [] if args.trace else measure_setup(args.workload)
    import workloads
    from spans import Tracer
    wl = workloads.WORKLOADS[args.workload](args.seed)

    tracer = Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
    phase = timed_phase(wl, args.seconds, tracer=tracer)
    if tracer is not None:
        tracer.uninstall()
        replay = workloads.WORKLOADS[args.workload](args.seed)
        untraced = timed_phase(replay, args.seconds, rounds=phase.rounds,
                               check=False)
        metrics = per_layer(tracer, phase, untraced, setup)
        OUT_DIR.mkdir(exist_ok=True)
        tracer.write(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.csv")
    else:
        metrics = end_to_end(wl, phase.records, setup_times)

    problems = phase.problems + wl.final_checks()
    failures: dict[str, int] = {}
    for _, _, w, name in phase.records:
        if name is not None:
            failures[name] = failures.get(name, 0) + w
    attempted = sum(w for _, _, w, _ in phase.records)
    failed = sum(failures.values())

    print(f"workload {args.workload}  seed {args.seed}  "
          f"rounds {phase.rounds}  busy {phase.busy_s:.3f} s  "
          f"BLAS threads {BLAS_THREADS}  calibration scale median "
          f"{statistics.median(s for _, s, _, _ in phase.records):.4f}")
    print(f"attempted {attempted}  failed {failed}  by type {failures}  "
          f"redrawn {wl.counter['redrawn']}")
    if not args.trace:
        print(f"calibrated set-up samples (s) "
              f"{[round(t, 4) for t in setup_times]}  "
              f"item_tail_ms is p{wl.tail_percentile:g}  uncalibrated "
              f"throughput {attempted / phase.busy_s:.6g} items/s")
    for name, (value, unit) in metrics.items():
        print(f"  {name:50s} {value:14.6g} {unit}")
    for p in problems[:20]:
        print(f"CHECK FAILED {p}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
