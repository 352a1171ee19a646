#!/usr/bin/env python3
"""Forward map, chain inversion and variant reports of a base commit
against this checkout, bit for bit.

    python3 scripts/forward_parity.py BASE

Exports the commit ``BASE`` with ``git archive`` (``bench_pairs.export``)
and starts one worker process per side, each importing phasekit from its
own tree.  Five input sets, all drawn or listed here:

* ``chains``: 60 rounds of the perfbench ``chains`` workload at each of
  seeds 1-3 (``perfbench/workloads.Chains(seed)``, only read here), one
  chain of each N = 2..8 per round, rates log-uniform over 1e-2..1e2;
* ``wide``: ``WIDE_DRAWS`` chains of N = 2..8 with rates log-uniform
  over 1e-4..1e4, seed ``WIDE_SEED``, not redrawn when the spectrum is
  degenerate;
* ``variants``: 5 rounds of the perfbench ``variants`` workload at each
  of seeds 1-3;
* ``experiment``: ``EXPERIMENT_BLOCKS`` blocks of the discrimination
  experiment's draws (``rashomon._draw_moments``, one block of
  ``rashomon._BLOCK`` samples per seed), then the report of
  ``discrimination_experiment`` at ``EXPERIMENT_REPORT``;
* ``pipeline``: ``phasekit pipeline`` on each of ``PIPELINE_MODELS`` at
  rates 1..5 with ``PIPELINE_ARGS`` and each of ``PIPELINE_SEEDS``, and
  ``phasekit invert`` on the inputs of ``tests/test_cli.py`` for M4, M9,
  the lumpable M9 and chain2 (``invert_args``).

Both sides run ``phase_type_params`` on every chain and ``variants``
input, then ``invert_unbranched`` on a chain and ``enumerate_variants``
on a ``variants`` input.  On a block of draws they run
``inverse.generic_branches`` for every model of ``models.SOLVABLE_N3``,
through whichever signature their own tree has (one model per call, or
every model from one call), and answer with a SHA-256 digest of the
bytes of each branch's rates and mask, in the same order either way, so
the comparison is bit for bit without sending the arrays.  A command of
the ``pipeline`` set runs through ``cli.main`` in the worker, which
answers with its exit code and its JSON payload without ``manifest``, or
the JSON error it printed.  An
input is ``equal`` when every number of both sides' results has the
same bits, or both raise the same exception type; ``error_type_changed``
when only one side raises, or they raise different types; ``differ``
otherwise.  Each chain input that is not equal is listed with its set,
its index in the set, its rates and each side's worst relative error
against a 150-digit dense reference (``tests/mp_reference``, which needs
mpmath): of (lambda, A), and of the recovered rates against the drawn
ones.  ``decimal_errors`` counts the inputs on which a side raised one
of the ``decimal`` module's own exceptions.  Prints one JSON summary.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "scripts"))
from bench_pairs import export  # noqa: E402

#: Rounds of each perfbench workload drawn from each of its seeds.
CHAIN_ROUNDS = {1: 60, 2: 60, 3: 60}
VARIANT_ROUNDS = {1: 5, 2: 5, 3: 5}
#: The wide chain draws: their number, seed and log10 rate range.
WIDE_DRAWS = 300
WIDE_SEED = 11
WIDE_RATES = (-4.0, 4.0)
#: Seeds of the blocks of experiment draws, and the experiment report.
EXPERIMENT_BLOCKS = range(1, 21)
EXPERIMENT_REPORT = {"seed": 7, "n_samples": 100_000}
#: The ``pipeline`` runs: each model (with its extra arguments) and seed.
PIPELINE_MODELS = {"M2": [], "M3": ["--m3-tol", "0.2"], "M4": [], "M8": [],
                   "M9": [], "chain3": []}
PIPELINE_ARGS = ["--rates", "1,2,3,4,5", "--n", "2000"]
PIPELINE_SEEDS = (1, 2, 3)
#: Digits of the reference that the chain inputs that differ are scored on.
REFERENCE_DPS = 150


def plain(obj):
    """``obj`` as JSON-ready lists, dicts and scalars."""
    if dataclasses.is_dataclass(obj):
        return {f.name: plain(getattr(obj, f.name))
                for f in dataclasses.fields(obj)}
    if isinstance(obj, dict):
        return {str(k): plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, np.ndarray)):
        return [plain(x) for x in obj]
    if isinstance(obj, np.generic):
        return obj.item()
    return obj


def invert_args() -> list:
    """The ``phasekit invert`` argument lists of ``tests/test_cli.py``
    for M4 (moments of rates 1, 1.5, 4, 3, 5), M9, the lumpable M9 and
    chain2, with moments from this checkout's forward map."""
    from phasekit import direct, models

    def moments_of(model, rates) -> str:
        m = direct.moments(direct.phase_type_params(
            models.build_generator(model, np.array(rates))))
        return "--moments=" + ",".join(repr(float(x)) for x in (*m.L, *m.S))

    lumpable = [0.23748954533683428, 0.23748954533683428, 11.467584218175574,
                75.86419643542978, 0.019443050680591042]
    return [["invert", "--model", "M4",
             moments_of(models.M4, [1.0, 1.5, 4.0, 3.0, 5.0])],
            ["invert", "--model", "M9", "--moments=-15,27,-10,-5,60"],
            ["invert", "--model", "M9", moments_of(models.M9, lumpable)],
            ["invert", "--model", "chain2", "--lambda=-0.5,-2.0",
             "--A=0.7,0.3"]]


def worker() -> None:
    """Answer the inputs named on stdin, one JSON line in and out each."""
    import contextlib
    import hashlib
    import inspect
    import io

    from phasekit import cli, direct, inverse, models, rashomon

    def attempt(fn, *args) -> tuple:
        try:
            return fn(*args), None
        except Exception as exc:  # recorded, compared across sides
            kind = type(exc)
            return None, {"error": f"{kind.__module__}.{kind.__qualname__}"}

    def branches(seed: int) -> dict:
        m = rashomon._draw_moments(np.random.default_rng(seed),
                                   rashomon._BLOCK)
        if "tag" in inspect.signature(inverse.generic_branches).parameters:
            # One model per call, as ([(rates, ok), ...], checks).
            each = {model: inverse.generic_branches(model.tag, m)[0]
                    for model in models.SOLVABLE_N3}
        else:
            # Every model from one call, as {model: (k, ok, checks)} with
            # k (5, branches, batch) and ok (branches, batch).
            each = {model: [(k[:, j], ok[j]) for j in range(k.shape[1])]
                    for model, (k, ok, _) in
                    inverse.generic_branches(m).items()}
        out = {}
        for model in models.SOLVABLE_N3:
            digest = hashlib.sha256()
            for rates, ok in each[model]:
                digest.update(np.array(rates, dtype=float).tobytes())
                digest.update(np.asarray(ok, dtype=bool).tobytes())
            out[model.tag] = digest.hexdigest()
        return out

    def command(argv: list) -> dict:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
        if rc:
            return {"rc": rc, "error": json.loads(err.getvalue())}
        payload = json.loads(out.getvalue())
        del payload["manifest"]
        return {"rc": rc, "payload": payload}

    def answer(spec: dict) -> dict:
        if "cli" in spec:
            return command(spec["cli"])
        if "draws" in spec:
            return {"branches": branches(spec["draws"])}
        if "report" in spec:
            cfg = rashomon.ExperimentConfig(**spec["report"])
            return {"report": plain(rashomon.discrimination_experiment(cfg))}
        model = models.model_from_string(spec["model"])
        gen = models.build_generator(model, np.array(spec["rates"]))
        p, err = attempt(direct.phase_type_params, gen)
        out = {"params": err or plain(p)}
        if p is None:
            return out
        if model.tag == "chain":
            sol, err = attempt(inverse.invert_unbranched, model.n, p)
            out["chain"] = err or {"rates": plain(sol.rates),
                                   "residual": sol.residual}
        else:
            report, err = attempt(rashomon.enumerate_variants, p)
            out["variants"] = err or plain(report)
        return out

    for line in sys.stdin:
        print(json.dumps(answer(json.loads(line))), flush=True)


def start_worker(tree: Path) -> subprocess.Popen:
    env = {**os.environ, "PYTHONPATH": str(tree / "src"),
           "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
           "MKL_NUM_THREADS": "1"}
    return subprocess.Popen(
        [sys.executable, str(Path(__file__).resolve()), "--worker"],
        cwd=tree, env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
        text=True)


def ask(proc: subprocess.Popen, spec: dict) -> dict:
    proc.stdin.write(json.dumps(spec) + "\n")
    proc.stdin.flush()
    line = proc.stdout.readline()
    if not line:
        raise RuntimeError("a parity worker exited early")
    return json.loads(line)


def errors(result: dict) -> list:
    return [part.get("error") for part in result.values()
            if isinstance(part, dict)]


def compare(base: dict, change: dict) -> str:
    if json.dumps(base, sort_keys=True) == json.dumps(change, sort_keys=True):
        return "equal"
    if errors(base) != errors(change) or base.keys() != change.keys():
        return "error_type_changed"
    return "differ"


def score(model, rates, got: dict) -> dict:
    """Each side's error type, or its worst relative error of (lambda, A)
    against the reference and of its recovered rates against ``rates``."""
    import mp_reference

    mp_reference.DPS = REFERENCE_DPS
    lam, amps = mp_reference.mp_phase_type_params(model, rates)
    want = np.concatenate([lam, amps])
    out = {}
    for side, result in got.items():
        params, chain = result["params"], result.get("chain", {})
        entry = {"error": [e for e in errors(result) if e]}
        if "lam" in params:
            have = np.concatenate([params["lam"], params["A"]])
            entry["params_rel"] = float(np.max(np.abs(have - want)
                                               / np.abs(want)))
        if "rates" in chain:
            entry["rates_rel"] = float(np.max(np.abs(
                np.array(chain["rates"]) - rates) / rates))
        out[side] = entry
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", help="commit to compare against")
    args = parser.parse_args(argv)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench"),
                    str(ROOT / "tests")]
    import workloads
    from phasekit import models

    inputs = {"chains": [], "wide": [], "variants": [], "experiment": [],
              "pipeline": []}
    for seed, rounds in CHAIN_ROUNDS.items():
        chains = workloads.Chains(seed)
        for _ in range(rounds):
            inputs["chains"] += [(item.model, item.rates)
                                 for item in chains.next_round()]
    rng = np.random.default_rng(WIDE_SEED)
    for _ in range(WIDE_DRAWS):
        model = models.unbranched_chain(int(rng.integers(2, 9)))
        inputs["wide"].append(
            (model, 10.0 ** rng.uniform(*WIDE_RATES, size=model.n_rates)))
    for seed, rounds in VARIANT_ROUNDS.items():
        variants = workloads.Variants(seed)
        for _ in range(rounds):
            inputs["variants"] += [(item.model, item.rates)
                                   for item in variants.next_round()]
    inputs["experiment"] = [{"draws": seed} for seed in EXPERIMENT_BLOCKS]
    inputs["experiment"].append({"report": EXPERIMENT_REPORT})
    inputs["pipeline"] = [
        {"cli": ["pipeline", "--model", model, *PIPELINE_ARGS, *extra,
                 "--seed", str(seed)]}
        for model, extra in PIPELINE_MODELS.items() for seed in PIPELINE_SEEDS]
    inputs["pipeline"] += [{"cli": argv} for argv in invert_args()]

    base_sha = subprocess.run(["git", "rev-parse", args.base], cwd=ROOT,
                              check=True, capture_output=True,
                              text=True).stdout.strip()
    sides = ("base", "change")
    summary = {name: {"inputs": len(items), "equal": 0, "differ": 0,
                      "error_type_changed": 0}
               for name, items in inputs.items()}
    decimal_errors = dict.fromkeys(sides, 0)
    listed = []
    with tempfile.TemporaryDirectory() as tmp:
        export(base_sha, Path(tmp) / "base")
        procs = {"base": start_worker(Path(tmp) / "base"),
                 "change": start_worker(ROOT)}
        try:
            for name, items in inputs.items():
                for index, item in enumerate(items):
                    if isinstance(item, dict):
                        model, spec = None, item
                    else:
                        model, rates = item
                        spec = {"model": str(model), "rates": rates.tolist()}
                    got = {side: ask(procs[side], spec) for side in sides}
                    for side in sides:
                        decimal_errors[side] += sum(
                            str(e).startswith("decimal.")
                            for e in errors(got[side]))
                    verdict = compare(got["base"], got["change"])
                    summary[name][verdict] += 1
                    if verdict != "equal" and model and model.tag == "chain":
                        listed.append({"set": name, "index": index,
                                       "verdict": verdict, **spec,
                                       **score(model, rates, got)})
        finally:
            for proc in procs.values():
                proc.stdin.close()
                proc.wait()

    print(json.dumps({"base": base_sha, **summary,
                      "decimal_errors": decimal_errors,
                      "chains_not_equal": listed}, indent=2))
    return 0


if __name__ == "__main__":
    if sys.argv[1:] == ["--worker"]:
        worker()
    else:
        sys.exit(main())
