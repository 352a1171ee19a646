"""Command-line interface.

Subcommands cover the whole workflow: forward computation of survival
parameters (``direct``), event simulation (``simulate``), trace fitting
(``fit``), rate recovery (``invert``), variant enumeration (``variants``),
the marker discrimination experiment (``experiment``), generator checking
(``validate``), and the end-to-end ``pipeline``, which simulates, fits,
and inverts the fit (with its variants when it has three components).

Every JSON artifact embeds a run manifest (tool version, argv, seeds,
input checksums, wall time) and is strict JSON: a number that is not
finite is an error, not a ``NaN`` token.  The schemas shipped with the
package document each artifact's format; the tests check every artifact
against them, and the CLI only serializes.  Exit codes: 0 success, 2
domain or input errors (a non-finite input number included), 3 no
solution found (``errors.NoSolution``).
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import sys
import time

import numpy as np

from . import __version__
from . import direct, inverse, models, rashomon, simple_systems, stochastic
from .errors import NoBranchMatches, NoSolution, PhasekitError


def _json_default(obj):
    """numpy arrays and scalars as Python lists and numbers, for
    :func:`json.dumps`; ``np.float64`` is a ``float`` and never gets here."""
    if isinstance(obj, (np.ndarray, np.generic)):
        return obj.tolist()
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def _dumps(obj) -> str:
    """``obj`` as indented, strict JSON text."""
    try:
        return json.dumps(obj, indent=2, allow_nan=False,
                          default=_json_default)
    except ValueError as exc:
        raise PhasekitError(f"the result is not JSON: {exc}") from exc


def _sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


class _Manifest:
    """Collects provenance while a command runs."""

    def __init__(self, argv: list[str]):
        self.argv = argv
        self.t0 = time.monotonic()
        self.seeds: dict[str, int] = {}
        self.checksums: dict[str, str] = {}

    def note_seed(self, name: str, value: int) -> None:
        self.seeds[name] = int(value)

    def note_input(self, path: str) -> None:
        self.checksums[path] = _sha256(path)

    def as_dict(self) -> dict:
        return {
            "tool_version": __version__,
            "command_line": list(self.argv),
            "seeds": self.seeds,
            "input_checksums": self.checksums,
            "wall_time_s": time.monotonic() - self.t0,
        }


def _emit_json(payload: dict, manifest: _Manifest, out: str | None) -> None:
    text = _dumps({**payload, "manifest": manifest.as_dict()})
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _parse_floats(text: str) -> np.ndarray:
    try:
        vals = np.array([float(x) for x in text.split(",") if x.strip()])
    except ValueError as exc:
        raise PhasekitError(f"cannot parse number list {text!r}") from exc
    if not np.all(np.isfinite(vals)):
        raise PhasekitError(f"number list {text!r} holds a value that is "
                            f"not finite")
    return vals


def _input_from_args(args):
    """The --moments of a command, else its --lambda and --A."""
    if args.moments:
        vals = _parse_floats(args.moments)
        if vals.size != 5:
            raise PhasekitError("--moments expects L1,L2,L3,S1,S2")
        return direct.SymmetricMoments(L=tuple(vals[:3]), S=tuple(vals[3:]))
    if args.lam is None or args.A is None:
        raise PhasekitError("this command needs --lambda and --A")
    lam = _parse_floats(args.lam)
    amps = _parse_floats(args.A)
    if amps.size == lam.size - 1:
        amps = np.concatenate([amps, [1.0 - amps.sum()]])
    return direct.PhaseTypeParams(lam=tuple(lam), A=tuple(amps))


def _solution_dict(sol: inverse.InverseSolution) -> dict:
    return {
        "model": str(sol.model),
        "rates": list(np.asarray(sol.rates, dtype=float)),
        "branch": sol.branch,
        "residual": float(sol.residual),
        "all_positive": bool(sol.all_positive),
        "free_params": [[name, float(val)] for name, val in sol.free_params],
    }


def _cmd_direct(args, manifest: _Manifest) -> int:
    model = models.model_from_string(args.model)
    rates = _parse_floats(args.rates)
    gen = models.build_generator(model, rates)
    p = direct.phase_type_params(gen)
    m = direct.moments(p)
    payload = {
        "model": str(model),
        "rates": list(rates),
        "lam": list(p.lam),
        "A": list(p.A),
        "moments": {"L": list(m.L), "S": list(m.S)},
    }
    _emit_json(payload, manifest, args.out)
    if args.survival_csv:
        ts = np.linspace(0.0, args.t_max, args.t_points)
        vals = direct.survival(p, ts)
        with open(args.survival_csv, "w") as fh:
            fh.write("t,survival\n")
            for t, s in zip(ts, vals):
                fh.write(f"{t:.17g},{s:.17g}\n")
    return 0


def _cmd_simulate(args, manifest: _Manifest) -> int:
    model = models.model_from_string(args.model)
    rates = _parse_floats(args.rates)
    gen = models.build_generator(model, rates)
    manifest.note_seed("simulate", args.seed)
    trace = stochastic.simulate_events(gen, args.n, args.seed)
    stochastic.write_trace_csv(trace, args.out)
    with open(args.out + ".manifest.json", "w") as fh:
        fh.write(_dumps(manifest.as_dict()) + "\n")
    return 0


def _cmd_fit(args, manifest: _Manifest) -> int:
    manifest.note_input(args.trace)
    trace = stochastic.read_trace_csv(args.trace)
    config = stochastic.FitConfig(restarts=args.restarts, seed=args.seed)
    manifest.note_seed("fit", args.seed)
    result = stochastic.fit_multiexp(trace, args.components, config)
    payload = {
        "lam": list(result.params.lam),
        "A": list(result.params.A),
        "log_likelihood": result.log_likelihood,
        "converged": result.converged,
        "n_restarts_used": result.n_restarts_used,
        "n_gaps": len(trace),
    }
    _emit_json(payload, manifest, args.out)
    return 0


def _cmd_invert(args, manifest: _Manifest) -> int:
    model = models.model_from_string(args.model)
    data = _input_from_args(args)
    grid = tuple(_parse_floats(args.k3_grid or ""))
    if not all(k3 > 0.0 for k3 in grid):
        raise PhasekitError("--k3-grid takes positive rates only")
    sols = inverse.invert(model, data, grid or simple_systems.FREE_GRID)
    payload = {"model": str(model),
               "solutions": [_solution_dict(s) for s in sols]}
    if model.tag != "chain":
        m = data if args.moments else direct.moments(data)
        payload["moments"] = {"L": list(m.L), "S": list(m.S)}
    _emit_json(payload, manifest, args.out)
    return 0


def _variant_payload(report: rashomon.VariantReport) -> dict:
    instances = []
    for inst in report.instances:
        entry = {
            "model": str(inst.solution.model),
            "rates": list(np.asarray(inst.solution.rates, dtype=float)),
            "branch": inst.solution.branch,
            "valid": bool(inst.valid),
            "markers": None,
        }
        if inst.markers is not None:
            entry["markers"] = {
                "T": list(inst.markers.T),
                "p": list(inst.markers.p),
            }
        instances.append(entry)
    return {
        "instances": instances,
        "deltas": dict(report.deltas),
        "constraint_spreads": dict(report.constraint_spreads),
        "diagnostics": dict(report.diagnostics),
    }


def _cmd_variants(args, manifest: _Manifest) -> int:
    report = rashomon.enumerate_variants(_input_from_args(args))
    if report.n_valid == 0:
        raise NoBranchMatches(
            "no model in the catalog explains these inputs with positive rates",
            diagnostics=report.diagnostics,
        )
    _emit_json(_variant_payload(report), manifest, args.out)
    return 0


def _cmd_experiment(args, manifest: _Manifest) -> int:
    cfg = rashomon.ExperimentConfig(n_samples=args.samples, seed=args.seed)
    manifest.note_seed("experiment", args.seed)
    report = rashomon.discrimination_experiment(cfg)
    payload = {
        "n_samples": cfg.n_samples,
        "seed": cfg.seed,
        "n_retained": report.n_retained,
        "retained_fraction": report.retained_fraction,
        "zero_fractions": {
            "p": report.zero_fraction_p,
            "log10_T1": report.zero_fraction_t1,
            "log10_T2": report.zero_fraction_t2,
        },
        "histograms": {
            name: {"bin_edges": list(h["edges"]),
                   "counts": list(h["counts"])}
            for name, h in report.histograms.items()
        },
    }
    _emit_json(payload, manifest, args.out)
    if args.hist_prefix:
        for name, h in report.histograms.items():
            path = f"{args.hist_prefix}_{name}.csv"
            with open(path, "w") as fh:
                fh.write("bin_left,bin_right,count\n")
                edges = h["edges"]
                for left, right, c in zip(edges[:-1], edges[1:], h["counts"]):
                    fh.write(f"{left:.17g},{right:.17g},{c:.17g}\n")
    return 0


def _cmd_validate(args, manifest: _Manifest) -> int:
    model = models.model_from_string(args.model)
    rates = _parse_floats(args.rates)
    gen = models.build_generator(model, rates)
    report = models.validate(gen)
    print(f"strongly_connected: {'ok' if report.ok else 'FAIL'}")
    for problem in report.messages:
        print("problem:", problem)
    if gen.has_nonpositive_rate:
        print("problem: some rates are not strictly positive")
    return 0 if report.ok and not gen.has_nonpositive_rate else 2


def _cmd_pipeline(args, manifest: _Manifest) -> int:
    model = models.model_from_string(args.model)
    rates = _parse_floats(args.rates)
    gen = models.build_generator(model, rates)
    config = stochastic.FitConfig(restarts=args.restarts, seed=args.fit_seed)
    manifest.note_seed("simulate", args.seed)
    manifest.note_seed("fit", args.fit_seed)
    trace = stochastic.simulate_events(gen, args.n, args.seed)
    truth = direct.phase_type_params(gen)
    fit = stochastic.fit_multiexp(trace, gen.N, config)
    report = rashomon.enumerate_variants(fit.params) if gen.N == 3 else None
    # The generating model's own solutions: its valid variants, which the
    # report has inverted already, or else its inverse, where M3 takes the
    # looser band --m3-tol, as fitted moments land only near its family.
    if model in models.SOLVABLE_N3:
        own = [i.solution for i in report.instances
               if i.valid and i.solution.model == model]
    else:
        try:
            own = inverse.invert(model, fit.params,
                                 hypersurface_tol=args.m3_tol)
        except NoSolution:
            own = []
    # The M3 family sweeps a free rate: it is reported, not scored.
    family = [_solution_dict(s) for s in own] if model == models.M3 else None
    errs = [float(np.max(np.abs(s.rates - rates) / np.abs(rates)))
            for s in own if family is None]
    ground_truth = {
        "rates": list(rates),
        "best_match_model": str(model) if errs else None,
        "best_match_rel_err": min(errs, default=None),
    }
    payload = {
        "model": str(model),
        "rates": list(rates),
        "solvable": model in models.SOLVABLE_N3 or model.tag == "chain",
        "m3_family": family,
        "trace_stats": {
            "n": len(trace),
            "mean": float(np.mean(trace.gaps)),
            "ks_statistic": stochastic.ks_statistic(trace, truth),
        },
        "fit": {
            "lam": list(fit.params.lam),
            "A": list(fit.params.A),
            "log_likelihood": fit.log_likelihood,
            "converged": fit.converged,
        },
        "variants": None if report is None else _variant_payload(report),
        "ground_truth": ground_truth,
    }
    _emit_json(payload, manifest, args.out)
    return 0


@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process."""
    parser = argparse.ArgumentParser(
        prog="phasekit",
        description="Phase-type distributions of Markov chain models: "
                    "forward computation, simulation, fitting, and rate "
                    "recovery.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_model_rates(p):
        p.add_argument("--model", required=True,
                       help="model id (M2..M9) or chainN")
        p.add_argument("--rates", required=True,
                       help="comma-separated rate constants")

    p = sub.add_parser("direct", help="compute survival parameters")
    add_model_rates(p)
    p.add_argument("--out", help="output JSON path (default stdout)")
    p.add_argument("--survival-csv", help="also tabulate S(t) to CSV")
    p.add_argument("--t-max", type=float, default=10.0)
    p.add_argument("--t-points", type=int, default=200)
    p.set_defaults(func=_cmd_direct)

    p = sub.add_parser("simulate", help="simulate inter-event gaps")
    add_model_rates(p)
    p.add_argument("--n", type=int, required=True, help="number of events")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="gap CSV path")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("fit", help="fit a multi-exponential density")
    p.add_argument("--trace", required=True, help="gap CSV path")
    p.add_argument("--components", type=int, required=True)
    p.add_argument("--restarts", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="output JSON path (default stdout)")
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("invert", help="recover rates from survival data")
    p.add_argument("--model", required=True)
    p.add_argument("--lambda", dest="lam", help="decay rates, comma-separated")
    p.add_argument("--A", help="amplitudes, comma-separated")
    p.add_argument("--moments", help="L1,L2,L3,S1,S2")
    p.add_argument("--k3-grid",
                   help="sample values for the free rate of the M3 family")
    p.add_argument("--out", help="output JSON path (default stdout)")
    p.set_defaults(func=_cmd_invert)

    p = sub.add_parser("variants", help="enumerate variant models")
    p.add_argument("--lambda", dest="lam")
    p.add_argument("--A")
    p.add_argument("--moments")
    p.add_argument("--out", help="output JSON path (default stdout)")
    p.set_defaults(func=_cmd_variants)

    p = sub.add_parser("experiment", help="marker discrimination experiment")
    p.add_argument("--samples", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--out", help="output JSON path (default stdout)")
    p.add_argument("--hist-prefix", help="write histogram CSVs with this prefix")
    p.set_defaults(func=_cmd_experiment)

    p = sub.add_parser("validate", help="check a generator's structure")
    add_model_rates(p)
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("pipeline", help="simulate, fit, and invert")
    add_model_rates(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--fit-seed", type=int, default=0)
    p.add_argument("--restarts", type=int, default=20)
    p.add_argument("--m3-tol", type=float, default=0.05,
                   help="hypersurface tolerance when provenance is M3")
    p.add_argument("--out", help="output JSON path (default stdout)")
    p.set_defaults(func=_cmd_pipeline)

    return parser


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    manifest = _Manifest(["phasekit"] + argv)
    try:
        return args.func(args, manifest)
    except NoSolution as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}),
              file=sys.stderr)
        return 3
    except (PhasekitError, ValueError, OSError) as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}),
              file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
