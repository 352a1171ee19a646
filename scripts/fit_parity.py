#!/usr/bin/env python3
"""Fit quality and fit time of a base commit against this checkout.

    python3 scripts/fit_parity.py BASE

Exports the commit ``BASE`` with ``git archive`` (``bench_pairs.export``)
and starts one worker process per side, each importing phasekit from its
own tree with BLAS pinned to one thread.  The traces are the rounds of
the perfbench ``infer`` workload (``perfbench/workloads.Infer(seed)``,
only read here): 30 rounds of seed 21 and 20 of seed 22, that is 120
and 80 traces of 1000 gaps; then a long-trace set from a second seed-21
stream, 3 rounds at each of 8193, 20 000 and 50 000 gaps (36 traces,
all over ``stochastic._SUBSAMPLE``, so the fit's subsample path runs);
then the criterion-9 trace (M9 at rates 1..5, 1e6 events, seed 42).
Both sides simulate each trace and fit it with ``fit_multiexp`` at its
default ``FitConfig``; the side that fits first alternates from trace to
trace, and each worker makes one untimed fit before the first.

Prints one JSON summary.  Log-likelihoods of both fits are recomputed
here from their parameters on the same gaps.  A change counts as equal
within 1e-9 relative of the base, as higher or lower beyond that; the
worst relative drop is the most negative (change - base) / |base|.  A fit
is admissible when its density is positive at t = 0, in the tail and at
every gap.  Fit times are per side: mean, median and 70th percentile over
the 1000-gap traces and over the long traces, and the criterion-9 fit on
its own.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "scripts"))
from bench_pairs import ask, export, git, start_worker  # noqa: E402

#: Relative log-likelihood difference below which two fits count as equal.
EQUAL_REL = 1e-9
#: Rounds of 4 ``infer`` traces drawn from each workload seed.
SEED_ROUNDS = {21: 30, 22: 20}
#: Rounds of 4 seed-21 ``infer`` draws at each long-trace length.
LONG_ROUNDS = {8193: 3, 20_000: 3, 50_000: 3}
CRITERION_9 = {"model": "M9", "rates": [1.0, 2.0, 3.0, 4.0, 5.0],
               "n": 1_000_000, "seed": 42}


def worker() -> None:
    """Fit the traces named on stdin, one JSON line in and out each."""
    import numpy as np
    from phasekit import models, stochastic

    def fit(spec: dict) -> dict:
        gen = models.build_generator(models.model_from_string(spec["model"]),
                                     np.array(spec["rates"]))
        trace = stochastic.simulate_events(gen, spec["n"], spec["seed"])
        t0 = time.perf_counter()
        result = stochastic.fit_multiexp(trace, gen.N)
        seconds = time.perf_counter() - t0
        return {"lam": result.params.lam.tolist(),
                "A": result.params.A.tolist(), "seconds": seconds}

    fit({"model": "M9", "rates": [1.0, 2.0, 3.0, 4.0, 5.0], "n": 1000,
         "seed": 0})
    for line in sys.stdin:
        print(json.dumps(fit(json.loads(line))), flush=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", help="commit to compare against")
    args = parser.parse_args(argv)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    import numpy as np
    import workloads
    from phasekit import direct, models, stochastic

    specs = []
    for seed, rounds in SEED_ROUNDS.items():
        infer = workloads.Infer(seed)
        for _ in range(rounds):
            for item in infer.next_round():
                specs.append({"model": str(item.model),
                              "rates": item.rates.tolist(),
                              "n": workloads.N_EVENTS,
                              "seed": item.extra["sim_seed"]})
    infer = workloads.Infer(21)
    for n_gaps, rounds in LONG_ROUNDS.items():
        for _ in range(rounds):
            for item in infer.next_round():
                specs.append({"model": str(item.model),
                              "rates": item.rates.tolist(), "n": n_gaps,
                              "seed": item.extra["sim_seed"]})
    specs.append(CRITERION_9)

    base_sha = git("rev-parse", args.base)
    sides = ("base", "change")
    counts = dict.fromkeys(("higher", "equal", "lower"), 0)
    worst_drop = 0.0
    inadmissible = dict.fromkeys(sides, 0)
    seconds = {side: [] for side in sides}
    long_seconds = {side: [] for side in sides}
    criterion_9 = None
    with tempfile.TemporaryDirectory() as tmp:
        export(base_sha, Path(tmp) / "base")
        procs = {"base": start_worker(Path(tmp) / "base", __file__),
                 "change": start_worker(ROOT, __file__)}
        try:
            for i, spec in enumerate(specs):
                got = {}
                for side in sides if i % 2 == 0 else sides[::-1]:
                    got[side] = ask(procs[side], spec)
                gen = models.build_generator(
                    models.model_from_string(spec["model"]),
                    np.array(spec["rates"]))
                gaps = stochastic.simulate_events(gen, spec["n"],
                                                  spec["seed"]).gaps
                ll = {}
                for side in sides:
                    lam, amps = np.array(got[side]["lam"]), np.array(
                        got[side]["A"])
                    dens = direct.density(
                        direct.PhaseTypeParams(lam, amps), gaps)
                    c = -amps * lam
                    if not (c.sum() > 0.0 and c[np.argmax(lam)] > 0.0
                            and np.all(dens > 0.0)):
                        inadmissible[side] += 1
                    ll[side] = float(np.sum(np.log(np.abs(dens))))
                rel = (ll["change"] - ll["base"]) / abs(ll["base"])
                worst_drop = min(worst_drop, rel)
                counts["higher" if rel > EQUAL_REL else
                       "lower" if rel < -EQUAL_REL else "equal"] += 1
                if spec is CRITERION_9:
                    criterion_9 = {
                        side: {"log_likelihood": ll[side],
                               "seconds": got[side]["seconds"]}
                        for side in sides}
                else:
                    into = (seconds if spec["n"] == workloads.N_EVENTS
                            else long_seconds)
                    for side in sides:
                        into[side].append(got[side]["seconds"])
                print(f"trace {i + 1}/{len(specs)} {spec['model']} seed "
                      f"{spec['seed']}: rel LL change {rel:+.3e}",
                      file=sys.stderr)
        finally:
            for proc in procs.values():
                proc.stdin.close()
                proc.wait()

    def times(values):
        values = np.array(values) * 1e3
        return {"mean_ms": float(values.mean()),
                "median_ms": float(np.median(values)),
                "p70_ms": float(np.percentile(values, 70))}

    print(json.dumps({
        "base": base_sha,
        "traces": len(specs),
        "log_likelihood": {**counts, "equal_rel": EQUAL_REL,
                           "worst_rel_drop": worst_drop},
        "inadmissible": inadmissible,
        "fit_time": {side: times(seconds[side]) for side in sides},
        "long_fit_time": {side: times(long_seconds[side]) for side in sides},
        "criterion_9": criterion_9,
    }, indent=2))
    return 0


if __name__ == "__main__":
    if sys.argv[1:] == ["--worker"]:
        worker()
    else:
        sys.exit(main())
