"""Event-level simulation and multi-exponential estimation.

This module closes the loop between model and data.  ``simulate_events``
realizes the renewal process of observed events: the chain starts in the
return state, wanders through the hidden states, and each arrival in the
absorbing state produces one inter-event gap.  ``fit_multiexp`` goes the
other way, recovering multi-exponential survival parameters from a trace
by maximum likelihood, so that the inverse machinery can be applied to
measured data.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .direct import PhaseTypeParams, density, survival
from .errors import InvalidDensity, NonErgodic
from .models import Generator, ModelId, validate

MAX_JUMPS = 10**7


@dataclass(frozen=True)
class EventTrace:
    """A sequence of inter-event times with its generating seed.

    ``model`` and ``rates`` record provenance when the trace came from a
    simulation; traces loaded from disk may leave them unset.
    """

    gaps: np.ndarray
    seed: int
    model: Optional[ModelId] = None
    rates: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        gaps = np.asarray(self.gaps, dtype=float)
        if gaps.ndim != 1 or gaps.size == 0:
            raise ValueError("trace must contain at least one gap")
        if not np.all(gaps > 0.0):
            raise ValueError("all gaps must be positive")
        object.__setattr__(self, "gaps", gaps)

    def __len__(self) -> int:
        return int(self.gaps.size)


@dataclass(frozen=True)
class FitConfig:
    """Knobs for the multistart likelihood optimizer."""

    restarts: int = 20
    max_iter: int = 500
    tol: float = 1e-8
    seed: int = 0


@dataclass(frozen=True)
class FitResult:
    """Best multi-exponential fit found by ``fit_multiexp``."""

    params: PhaseTypeParams
    log_likelihood: float
    converged: bool
    n_restarts_used: int


def simulate_events(
    gen: Generator,
    n_events: int,
    seed: int,
    max_jumps: int = MAX_JUMPS,
) -> EventTrace:
    """Draw inter-event times by exponential-clock simulation.

    All walkers start in the return state; a walker finishes its event
    when it jumps into the absorbing state.  The simulation is vectorized
    over events and is deterministic for a fixed seed.
    """
    report = validate(gen)
    if not report.ok:
        raise ValueError("invalid generator: " + "; ".join(report.messages))
    if n_events < 1:
        raise ValueError("n_events must be at least 1")

    q = gen.Q
    n_states = gen.N
    absorbing = n_states
    exit_rates = -np.diag(q)[:n_states]
    # Row-wise jump distributions over target states 0..N (absorbing last).
    probs = np.array(q[:n_states, : n_states + 1], dtype=float)
    np.fill_diagonal(probs[:, :n_states], 0.0)
    with np.errstate(invalid="ignore", divide="ignore"):
        probs = probs / exit_rates[:, None]
    cumprobs = np.cumsum(probs, axis=1)
    cumprobs[:, -1] = 1.0

    rng = np.random.default_rng(np.random.SeedSequence(entropy=(seed,)))
    state = np.full(n_events, gen.return_state - 1, dtype=np.intp)
    gaps = np.zeros(n_events)
    active = np.arange(n_events)
    for _ in range(max_jumps):
        cur = state[active]
        rate = exit_rates[cur]
        gaps[active] += rng.exponential(1.0, size=active.size) / rate
        u = rng.uniform(size=active.size)
        nxt = np.sum(u[:, None] >= cumprobs[cur], axis=1).astype(np.intp)
        state[active] = nxt
        active = active[nxt != absorbing]
        if active.size == 0:
            return EventTrace(
                gaps=gaps,
                seed=seed,
                model=gen.model,
                rates=np.array(gen.rates, dtype=float),
            )
    raise NonErgodic(
        f"{active.size} walkers failed to absorb within {max_jumps} jumps"
    )


@dataclass(frozen=True)
class EmpiricalSurvival:
    """Right-continuous empirical survivor function of a trace."""

    times: np.ndarray
    tail: np.ndarray

    def __call__(self, t: float | np.ndarray) -> np.ndarray:
        idx = np.searchsorted(self.times, t, side="right")
        padded = np.concatenate(([1.0], self.tail))
        return padded[idx]


def empirical_survival(trace: EventTrace) -> EmpiricalSurvival:
    """Build the step function S_hat(t) = #(gaps > t) / n."""
    times = np.sort(trace.gaps)
    n = times.size
    tail = 1.0 - np.arange(1, n + 1) / n
    return EmpiricalSurvival(times=times, tail=tail)


def ks_statistic(trace: EventTrace, params: PhaseTypeParams) -> float:
    """Kolmogorov distance between the empirical and model survivors."""
    times = np.sort(trace.gaps)
    n = times.size
    model = survival(params, times)
    upper = 1.0 - np.arange(0, n) / n
    lower = 1.0 - np.arange(1, n + 1) / n
    return float(
        max(np.max(np.abs(model - upper)), np.max(np.abs(model - lower)))
    )


def _negloglik(theta: np.ndarray, t: np.ndarray, n: int):
    """Negative log-likelihood of the gap density and its gradient.

    Parameters are packed as (log magnitudes of the rates, first n-1
    amplitudes); the last amplitude is fixed by the sum-to-one constraint.
    With lambda_i = -exp(theta_i) and c = -A lambda, the density at the
    gaps is f = E @ c for the one exponential table E = exp(t lambda).
    Where f <= 0 a smooth penalty 1e6 f^2 + 1e3 replaces -log f, pulling
    the iterate back into the feasible region.

    The objective is sum_k phi(f_k), so its gradient is w @ df/dtheta
    with w = phi'(f): -1/f, or 2e6 f at the penalized gaps.  Since
    df/dtheta_i = c_i E_i (1 + lambda_i t) and df/dA_j = lambda_n E_n -
    lambda_j E_j, every term comes from g1 = w @ E and g2 = (w t) @ E.
    """
    lam = -np.exp(theta[:n])
    a = np.empty(n)
    a[: n - 1] = theta[n:]
    a[n - 1] = 1.0 - theta[n:].sum()
    c = -a * lam
    expo = np.multiply.outer(t, lam)
    np.exp(expo, out=expo)
    f = expo @ c
    bad = f <= 0.0
    if bad.any():
        penalty = 1e6 * np.square(f[bad]).sum() + 1e3 * np.count_nonzero(bad)
        safe = np.where(bad, 1.0, f)
        nll = -np.log(safe).sum() + penalty
        with np.errstate(over="ignore", divide="ignore"):
            w = np.where(bad, 2e6 * f, -1.0 / safe)
        w = np.clip(w, -1e300, 1e300)
    else:
        nll = -np.log(f).sum()
        w = -1.0 / f
    g1 = w @ expo
    g2 = (w * t) @ expo
    grad = np.empty_like(theta)
    grad[:n] = c * (g1 + lam * g2)
    grad[n:] = lam[n - 1] * g1[n - 1] - lam[: n - 1] * g1[: n - 1]
    return nll, grad


def _initial_points(
    t: np.ndarray, n: int, config: FitConfig
) -> list[np.ndarray]:
    """Log-spaced rate initializations spanning the data quantiles."""
    lo = max(np.quantile(t, 0.05), np.min(t))
    hi = np.quantile(t, 0.95)
    base_rates = np.geomspace(1.0 / hi, 1.0 / lo, n) if n > 1 else np.array(
        [1.0 / np.mean(t)]
    )
    points = []
    for restart in range(config.restarts):
        rng = np.random.default_rng(
            np.random.SeedSequence(entropy=(config.seed, restart))
        )
        if restart == 0:
            rates = base_rates
        else:
            rates = base_rates * 10.0 ** rng.uniform(-1.0, 1.0, size=n)
        amps = np.full(n, 1.0 / n) + (
            rng.uniform(-0.1, 0.1, size=n) if restart > 0 else 0.0
        )
        theta = np.concatenate([np.log(np.sort(rates)[::-1]), amps[: n - 1]])
        points.append(theta)
    return points


def _distinct_rates(lam: np.ndarray, rel: float = 1e-8) -> np.ndarray:
    """Nudge coincident rates apart so the parameter invariants hold."""
    lam = np.array(lam, dtype=float)
    order = np.argsort(lam)
    for i, j in zip(order[:-1], order[1:]):
        gap = lam[j] - lam[i]
        floor = rel * max(abs(lam[i]), abs(lam[j]))
        if gap < floor:
            lam[j] = lam[i] + floor
    return lam


def fit_multiexp(
    trace: EventTrace, n_components: int, config: FitConfig = FitConfig()
) -> FitResult:
    """Maximum-likelihood multi-exponential fit of the gap density.

    The density is f(t) = sum_i (-A_i lambda_i) exp(lambda_i t) with the
    amplitudes summing to one.  Rates are optimized in log-magnitude
    coordinates with the last amplitude eliminated (see ``_negloglik``);
    all ``config.restarts`` quasi-Newton runs use the full trace.  Of
    those, the best by objective whose density is admissible is returned:
    positive at t = 0, in the tail and at every gap.  Raises
    InvalidDensity when no run is admissible.
    """
    from scipy.optimize import minimize  # here: slow to import, fit only

    n = n_components
    if n < 1:
        raise ValueError("n_components must be at least 1")
    t = np.asarray(trace.gaps, dtype=float)
    if t.size < 10 * (2 * n - 1):
        raise ValueError(
            f"need at least {10 * (2 * n - 1)} gaps to fit {n} components"
        )
    log_rate_lo = np.log(0.01 / np.max(t))
    log_rate_hi = np.log(100.0 / np.min(t))
    bounds = [(log_rate_lo, log_rate_hi)] * n + [(-10.0, 10.0)] * (n - 1)
    runs = [minimize(
        _negloglik,
        np.clip(theta0, [b[0] for b in bounds], [b[1] for b in bounds]),
        args=(t, n),
        jac=True,
        method="L-BFGS-B",
        bounds=bounds,
        options={"maxiter": config.max_iter, "ftol": config.tol},
    ) for theta0 in _initial_points(t, n, config)]
    # Best objective first, ties in restart order.  The penalty only acts
    # at the gaps, so a run can end with a density that is negative at
    # some gap, at t = 0 or in the tail; the best admissible run wins.
    # With c = -A lambda, f(0) = sum(c), and the coefficient of the
    # slowest rate sets the sign of the tail.
    for best in sorted(range(len(runs)), key=lambda i: runs[i].fun):
        res = runs[best]
        lam = _distinct_rates(-np.exp(res.x[:n]))
        amps = np.empty(n)
        amps[: n - 1] = res.x[n:]
        amps[n - 1] = 1.0 - np.sum(res.x[n:])
        params = PhaseTypeParams(lam=lam, A=amps)
        c = -amps * lam
        if (c.sum() > 0.0 and c[np.argmax(lam)] > 0.0
                and np.all(density(params, t) > 0.0)):
            break
    else:
        raise InvalidDensity(
            "no restart gives a density that is positive at t = 0, in the "
            "tail and at every observed gap"
        )
    # Converged: this run, or a later one with the same objective, says so.
    tie = 1e-9 * (1 + abs(res.fun))
    converged = bool(res.success) or any(
        r.success and abs(r.fun - res.fun) <= tie for r in runs[best + 1:]
    )
    return FitResult(
        params=params,
        log_likelihood=float(-res.fun),
        converged=converged,
        n_restarts_used=len(runs),
    )


def write_trace_csv(trace: EventTrace, path: str) -> None:
    """Write a trace as a one-column CSV with a ``gap`` header."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["gap"])
        for gap in trace.gaps:
            writer.writerow([repr(float(gap))])


def read_trace_csv(path: str, seed: int = 0) -> EventTrace:
    """Load a trace from a one-column ``gap`` CSV."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip() for h in header] != ["gap"]:
            raise ValueError("expected a CSV with a single 'gap' column")
        gaps = [float(row[0]) for row in reader if row]
    return EventTrace(gaps=np.array(gaps), seed=seed)
