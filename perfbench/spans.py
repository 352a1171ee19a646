"""Spans around the public functions of phasekit, from outside the library.

``Tracer.install`` replaces each function in ``WRAPPED`` on its module
with a wrapper that records a span: the function's name, its start and
end, the span it was called from, the item it belongs to and the
exception it raised, if any.  Calls between modules go through module
attributes or module globals, so nested calls are attributed too.  The
spans stay in memory until the run ends.
"""

from __future__ import annotations

import csv
import functools
import importlib
import time

WRAPPED = (
    ("models", "build_generator"),
    ("direct", "phase_type_params"),
    ("direct", "moments_from_generator"),
    ("direct", "moment_vector"),
    ("inverse", "invert_generic"),
    ("inverse", "invert_thomas"),
    ("inverse", "invert_unbranched"),
    ("inverse", "roundtrip_residual"),
    ("simple_systems", "load_systems"),
    ("simple_systems", "solve_for_moments"),
    ("rashomon", "enumerate_variants"),
    ("rashomon", "markers"),
    ("rashomon", "discrimination_experiment"),
    ("stochastic", "simulate_events"),
    ("stochastic", "fit_multiexp"),
    ("stochastic", "ks_statistic"),
    ("cli", "main"),
)
NAMES = [f"{mod}.{fn}" for mod, fn in WRAPPED]

#: Exceptions of invert_generic that send enumerate_variants to the
#: Thomas search.
GENERIC_MISSES = ("GenericBranchMiss", "NegativeDiscriminant")


def _count_solutions(counters, out):
    counters["solutions"] += len(out) if isinstance(out, list) else 1


def _count_variants(counters, report):
    counters["instances"] += len(report.instances)
    counters["valid"] += report.n_valid
    # Thomas solutions carry a branch label S<system>/<roots>.
    counters["thomas"] += sum(1 for i in report.instances
                              if i.solution.branch.startswith("S"))


def _count_events(counters, trace):
    counters["events"] += len(trace)


def _count_restarts(counters, fit):
    counters["restarts"] += fit.n_restarts_used


ON_RETURN = {
    "inverse.invert_generic": _count_solutions,
    "inverse.invert_thomas": _count_solutions,
    "inverse.invert_unbranched": _count_solutions,
    "rashomon.enumerate_variants": _count_variants,
    "stochastic.simulate_events": _count_events,
    "stochastic.fit_multiexp": _count_restarts,
}


class Tracer:
    """Records spans while ``active``; a no-op pass-through otherwise."""

    def __init__(self):
        # [name index, start, end, parent index, item, exception name]
        self.spans: list[list] = []
        self.counters: dict[str, int] = dict.fromkeys(
            ("solutions", "instances", "valid", "thomas", "events",
             "restarts"), 0)
        self.item = -1
        self.active = False
        self._stack: list[int] = []
        self._originals: list[tuple] = []

    def _wrap(self, index: int, fn, on_return):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            span = [index, 0.0, 0.0, stack[-1] if stack else -1,
                    self.item, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                span[5] = type(exc).__name__
                raise
            finally:
                span[2] = clock()
                stack.pop()
            if on_return is not None:
                on_return(self.counters, out)
            return out

        return wrapper

    def install(self) -> None:
        for index, (mod, fn) in enumerate(WRAPPED):
            module = importlib.import_module(f"phasekit.{mod}")
            original = getattr(module, fn)
            self._originals.append((module, fn, original))
            setattr(module, fn, self._wrap(index, original,
                                           ON_RETURN.get(NAMES[index])))

    def uninstall(self) -> None:
        for module, fn, original in self._originals:
            setattr(module, fn, original)
        self._originals.clear()

    def summary(self, scales) -> dict[str, dict[str, float]]:
        """Calls, self time and generic-branch misses per function.

        Self time is a span's duration minus that of the spans it called,
        multiplied by ``scales[item]``, the calibration scale of the round
        its item ran in.
        """
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s[3] >= 0:
                child[s[3]] += s[2] - s[1]
        out = {name: {"calls": 0, "self_s": 0.0, "misses": 0}
               for name in NAMES}
        for s, c in zip(self.spans, child):
            entry = out[NAMES[s[0]]]
            entry["calls"] += 1
            entry["self_s"] += (s[2] - s[1] - c) * scales[s[4]]
            if s[5] in GENERIC_MISSES:
                entry["misses"] += 1
        return out

    def top_level_s(self, scales) -> float:
        """Calibrated time covered by spans not called from another span."""
        return sum((s[2] - s[1]) * scales[s[4]] for s in self.spans
                   if s[3] < 0)

    def write(self, path) -> None:
        """Write the spans as CSV, times in seconds from the first start."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["name", "start_s", "end_s", "parent", "item",
                             "error"])
            for s in self.spans:
                writer.writerow([NAMES[s[0]], f"{s[1] - t0:.9f}",
                                 f"{s[2] - t0:.9f}", s[3], s[4], s[5] or ""])
