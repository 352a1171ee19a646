#!/usr/bin/env python3
"""Paired perfbench runs of a base commit against this checkout.

    python3 scripts/bench_pairs.py BASE --number N [--pairs W=K ...]
        [--first-seed SEED]

Exports the commit ``BASE`` with ``git archive`` into a temporary
directory, then runs ``perfbench/run.py --trace 0`` in that copy and in
this checkout (its working tree, uncommitted changes included) for every
workload in ``BENCHMARK.json``, each run as long as its ``run_seconds``.
Pair i runs both trees with the seed ``SEED + i``; the tree that runs
first alternates from pair to pair, so drift in the machine's load does
not favour one side.  Each workload gets 3 pairs unless ``--pairs W=K``
says otherwise.

Before the pairs, it runs ``tests/test_acceptance.py -s`` once in each
tree.  A failing criterion is recorded, not fatal; only a pytest error
other than failed tests stops the script.

Writes ``BENCH_<N>.json`` at the root of this checkout.  For every
end-to-end metric it holds, per side, the runs, their median and
quartiles, and the number of pairs in which the change beat the base in
the metric's own direction; per workload it holds whether every run was
correct and each run's attempted and failed counts.  Under ``accuracy``
it holds, per side and criterion, the status (PASS, FAIL, or ERROR when
the test printed no ``CRITERION n:`` line), the line's detail and the
test's seconds.  Archiving leaves the repository itself untouched, which
a worktree would not.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True,
                          capture_output=True, text=True).stdout.strip()


def export(commit: str, dest: Path) -> None:
    """The tree of ``commit`` as plain files under ``dest``."""
    dest.mkdir()
    archive = subprocess.Popen(["git", "archive", "--format=tar", commit],
                               cwd=ROOT, stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", str(dest)], stdin=archive.stdout,
                   check=True)
    archive.stdout.close()
    if archive.wait():
        raise subprocess.CalledProcessError(archive.returncode, archive.args)


def run(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """The JSON summary of one untraced perfbench run in ``tree``."""
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, check=True, capture_output=True, text=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def accuracy(tree: Path) -> dict:
    """Status, detail and seconds of each acceptance criterion in ``tree``."""
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "tests/test_acceptance.py", "-s",
         "-q", "--tb=no", "-rN", "-p", "no:cacheprovider",
         "--durations=0", "--durations-min=0"],
        cwd=tree, capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(tree / "src")})
    if proc.returncode not in (0, 1):  # 1: some criterion failed
        raise RuntimeError(f"acceptance tests in {tree} exited "
                           f"{proc.returncode}:\n{proc.stdout}{proc.stderr}")
    seconds = {}
    for t, num in re.findall(r"^([\d.]+)s \w+ +tests/test_acceptance\.py::"
                             r"test_criterion_(\d+)_", proc.stdout, re.M):
        seconds[num] = seconds.get(num, 0.0) + float(t)
    out = {num: {"status": "ERROR", "detail": None, "seconds": round(t, 3)}
           for num, t in sorted(seconds.items(), key=lambda kv: int(kv[0]))}
    for num, status, detail in re.findall(
            r"CRITERION (\d+): (PASS|FAIL) - (.*)$", proc.stdout, re.M):
        out[num].update(status=status, detail=detail)
    return out


def summary(values: list[float]) -> dict:
    q1, med, q3 = np.percentile(values, [25, 50, 75])
    return {"runs": values, "median": float(med), "q1": float(q1),
            "q3": float(q3)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", help="commit to compare against")
    parser.add_argument("--number", type=int, required=True,
                        help="N of the BENCH_<N>.json written")
    parser.add_argument("--pairs", action="append", default=[],
                        metavar="W=K", help="K pairs for workload W")
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    workloads = [w["name"] for w in bench["workloads"]]
    pairs = dict.fromkeys(workloads, 3)
    for spec in args.pairs:
        name, _, count = spec.partition("=")
        if name not in pairs or not count.isdigit() or int(count) < 1:
            parser.error(f"--pairs expects W=K with W in {workloads}, K >= 1")
        pairs[name] = int(count)
    metrics = {m["name"]: m for m in bench["end_to_end"]}

    base_sha = git("rev-parse", args.base)
    record = {
        "base": base_sha,
        "change": git("rev-parse", "HEAD")
        + (" (with uncommitted changes)" if git("status", "--porcelain",
                                                "--untracked-files=no")
           else ""),
        "seconds": seconds,
        "machine": {"python": platform.python_version(),
                    "numpy": np.__version__,
                    "platform": platform.platform(),
                    "processor": platform.processor()},
        "accuracy": {},
        "workloads": {},
    }
    with tempfile.TemporaryDirectory() as tmp:
        base = Path(tmp) / "base"
        export(base_sha, base)
        for side, tree in (("base", base), ("change", ROOT)):
            print(f"acceptance tests: {side}", file=sys.stderr)
            record["accuracy"][side] = accuracy(tree)
        for workload in workloads:
            runs = {"base": [], "change": []}
            for i in range(pairs[workload]):
                seed = args.first_seed + i
                order = [("base", base), ("change", ROOT)]
                for side, tree in order if i % 2 == 0 else order[::-1]:
                    runs[side].append(run(tree, workload, seed, seconds))
                    value = runs[side][-1]["metrics"]["throughput"]["value"]
                    print(f"{workload} pair {i + 1} seed {seed} {side}: "
                          f"throughput {value:.6g}", file=sys.stderr)
            entry = {
                "pairs": pairs[workload],
                "seeds": [args.first_seed + i
                          for i in range(pairs[workload])],
                "correct": {s: all(r["correct"] for r in rs)
                            for s, rs in runs.items()},
                "attempted": {s: [r["attempted"] for r in rs]
                              for s, rs in runs.items()},
                "failed": {s: [r["failed"] for r in rs]
                           for s, rs in runs.items()},
                "metrics": {},
            }
            for name, spec in metrics.items():
                got = {s: [r["metrics"][name]["value"] for r in rs]
                       for s, rs in runs.items()}
                sign = 1.0 if spec["better"] == "higher" else -1.0
                wins = sum(sign * (c - b) > 0.0
                           for b, c in zip(got["base"], got["change"]))
                entry["metrics"][name] = {
                    "unit": spec["unit"], "better": spec["better"],
                    "base": summary(got["base"]),
                    "change": summary(got["change"]),
                    "change_wins": int(wins),
                }
            record["workloads"][workload] = entry
    path = ROOT / f"BENCH_{args.number}.json"
    path.write_text(json.dumps(record, indent=2) + "\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
