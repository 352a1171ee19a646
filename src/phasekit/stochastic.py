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

#: Jumps a walker may take before ``simulate_events`` gives up.
MAX_JUMPS = 10**7
#: Newton steps each run of the fit may take.
MAX_ITER = 500
#: A run of the fit stops once its Newton decrement, sqrt(g^T H^-1 g),
#: is at most this share of |f|.
FIT_TOL = 1e-8
#: A run of the full-trace batch leaves it unconverged once its objective
#: exceeds the best converged, admissible run's by more than this many
#: times its squared Newton decrement, the local estimate of how far it
#: can still descend.  On the 200 1000-gap traces of
#: ``scripts/fit_parity.py``, 1 lowered 2 fits and 10 and 100 none.
_PRUNE = 10.0
#: Gaps per block of the likelihood sums, so that one evaluation holds a
#: bounded table at any trace length.
_GAP_BLOCK = 2**13
#: Traces longer than this run their restarts on a strided subsample of
#: this many gaps at most, then refine the distinct optima on the full
#: trace.  Near 2**12 gaps both ways take the same time; above 2**13 the
#: subsample way is faster, and a smaller subsample more often settles
#: in a worse optimum.
_SUBSAMPLE = 2**13
#: Eigenvalues of the Hessian below this share of its largest one are
#: raised to it.
_EIG_FLOOR = 1e-12
#: Largest step, in the max-norm of theta.
_STEP_CAP = 1.0
#: Armijo sufficient-decrease constant, and the smallest fraction of a
#: step tried.
_ARMIJO = 1e-4
_MIN_STEP = 2.0**-12
#: A variable this close to a bound is held there when its gradient,
#: or its Newton step, points out.
_BOUND_GAP = 1e-3
#: Two runs whose sorted log-rates are this close in the max-norm are at
#: one optimum: for fixed rates the objective is convex in the amplitudes.
_NEAR = 0.05
_TINY = np.finfo(float).tiny


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
    """Settings of the multistart likelihood optimizer.

    ``restarts`` starts advance together, and ``seed`` draws the random
    ones.  Each run takes at most ``MAX_ITER`` Newton steps and stops
    once its Newton decrement is at most ``FIT_TOL`` |f|.
    """

    restarts: int = 20
    seed: int = 0

    def __post_init__(self):
        if self.restarts < 1:
            raise ValueError("restarts must be at least 1")


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
) -> EventTrace:
    """Draw inter-event times by exponential-clock simulation.

    All walkers start in the return state; a walker finishes its event
    when it jumps into the absorbing state.  The simulation is vectorized
    over events and is deterministic for a fixed seed.  Raises
    NonErgodic, before any number is drawn, when a walker is expected to
    take more than ``MAX_JUMPS`` jumps per event, and when a walker is
    still moving after ``MAX_JUMPS`` jumps.
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
    # Expected visits to the hidden states per event, from the return
    # state: one jump leaves each visit.
    jumps = np.linalg.solve((np.eye(n_states) - probs[:, :n_states]).T,
                            np.eye(n_states)[-1]).sum()
    if jumps > MAX_JUMPS:
        raise NonErgodic(f"a walker is expected to take {jumps:.3g} jumps "
                         f"per event, more than {MAX_JUMPS}")
    cumprobs = np.cumsum(probs, axis=1)
    cumprobs[:, -1] = 1.0

    rng = np.random.default_rng(np.random.SeedSequence(entropy=(seed,)))
    state = np.full(n_events, n_states - 1, dtype=np.intp)
    gaps = np.zeros(n_events)
    active = np.arange(n_events)
    for _ in range(MAX_JUMPS):
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
        f"{active.size} walkers failed to absorb within {MAX_JUMPS} jumps"
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
    """Negative log-likelihood of the gap density, its gradient and Hessian.

    ``theta`` holds one parameter vector per row: the log magnitudes of
    the n rates, then the first n-1 amplitudes; the last amplitude is
    fixed by the sum-to-one constraint.  With lambda_i = -exp(theta_i)
    and c = -A lambda, the density at the gaps is f = E @ c for the one
    exponential table E = exp(t lambda).  Where f <= 0 a smooth penalty
    1e6 f^2 + 1e3 replaces -log f, pulling the iterate back into the
    feasible region.  Returns arrays of shapes (r,), (r, m) and (r, m, m)
    for r rows of m = 2n-1 parameters.

    The objective is sum_k phi(f_k), so with the Jacobian J = df/dtheta
    its gradient is J^T phi'(f) and its Hessian is J^T diag(phi''(f)) J
    + sum_k phi'(f_k) d2f_k/dtheta2.  With x = lambda t, df/dtheta_i =
    c_i E_i (1 + x_i) and df/dA_j = lambda_n E_n - lambda_j E_j, so J =
    M [E, E x] for one small matrix M per row.  The second derivatives
    are nonzero only on the rate diagonal, c_i E_i (1 + 3 x_i + x_i^2),
    and between a rate and an amplitude: -lambda_j E_j (1 + x_j) for
    (theta_j, A_j) and lambda_n E_n (1 + x_n) for (theta_n, A_j).  So
    every term comes from the Gram matrix of [E, E x] / sqrt(phi'') and
    the sums P_p = phi' @ (E x^p), p = 0, 1, 2, which run over the gaps
    in blocks of ``_GAP_BLOCK``.
    """
    rows, m = theta.shape
    lam = -np.exp(theta[:, :n])
    c = -_amplitudes(theta, n) * lam
    nll = np.zeros(rows)
    gram = np.zeros((rows, 2 * n, 2 * n))
    sums = np.zeros((rows, 3 * n))
    # Tables are (rows, 2n, gaps): the long axis innermost.
    for start in range(0, t.size, _GAP_BLOCK):
        x = lam[:, :, None] * t[start:start + _GAP_BLOCK]
        table = np.empty((rows, 2 * n, x.shape[2]))
        e = np.exp(x, out=table[:, :n])
        f = (c[:, None, :] @ e)[:, 0]
        np.multiply(e, x, out=table[:, n:])
        bad = f <= 0.0
        if bad.any():
            nll += np.where(bad, 1e6 * np.square(f) + 1e3,
                            -np.log(np.where(bad, 1.0, f))).sum(axis=1)
            # With root = 1 / sqrt(phi''), u = phi' root: -1 where f > 0.
            root = np.where(bad, 1.0 / np.sqrt(2e6), f)
            u = np.where(bad, np.sqrt(2e6) * f, -1.0)
        else:
            nll -= np.log(f).sum(axis=1)
            root = f
            u = np.full_like(f, -1.0)
        table /= root[:, None, :]
        gram += table @ table.transpose(0, 2, 1)
        u = u[:, :, None]
        sums[:, : 2 * n] += (table @ u)[..., 0]
        table[:, n:] *= x
        sums[:, 2 * n:] += (table[:, n:] @ u)[..., 0]
    p0, p1, p2 = sums[:, :n], sums[:, n: 2 * n], sums[:, 2 * n:]
    rate, amp = np.arange(n), np.arange(n, m)
    jmap = np.zeros((rows, m, 2 * n))  # M, so that J = M [E, E x]
    jmap[:, rate, rate] = jmap[:, rate, rate + n] = c
    jmap[:, amp, amp - n] = -lam[:, : n - 1]
    jmap[:, amp, n - 1] = lam[:, n - 1:]
    grad = (jmap @ sums[:, : 2 * n, None])[..., 0]
    # The second-derivative terms, upper triangle with half the diagonal.
    half = np.zeros((rows, m, m))
    half[:, rate, rate] = 0.5 * c * (p0 + 3.0 * p1 + p2)
    q = lam * (p0 + p1)
    half[:, amp - n, amp] = -q[:, : n - 1]
    half[:, n - 1, amp] = q[:, n - 1:]
    hess = jmap @ gram @ jmap.transpose(0, 2, 1) + half
    hess += half.transpose(0, 2, 1)
    return nll, grad, hess


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


def _distinct_rates(lam: np.ndarray) -> np.ndarray:
    """Nudge coincident rates 1e-8 relative apart, as the invariants need."""
    lam = np.array(lam, dtype=float)
    order = np.argsort(lam)
    for i, j in zip(order[:-1], order[1:]):
        gap = lam[j] - lam[i]
        floor = 1e-8 * max(abs(lam[i]), abs(lam[j]))
        if gap < floor:
            lam[j] = lam[i] + floor
    return lam


def _newton_step(theta, grad, hess, lo, hi):
    """Projected modified Newton steps of the rows, and their decrements.

    A variable within ``_BOUND_GAP`` of a bound, with its gradient or
    its Newton step pointing out, is held: its step puts it on the bound.  The others
    take -H^-1 g on their block of H, with the eigenvalues of that block
    in absolute value and floored at ``_EIG_FLOOR`` times the largest, so
    the step descends wherever H is indefinite (Bertsekas, SIAM J.
    Control Optim. 20, 1982).  Steps are capped at ``_STEP_CAP`` in the
    max-norm.  Also returns the squared Newton decrement g^T H^-1 g,
    twice the decrease the quadratic model predicts for the uncapped
    step, or nan where g or H is not finite.
    """
    near_lo = theta <= lo + _BOUND_GAP
    near_hi = theta >= hi - _BOUND_GAP
    held = (near_lo & (grad > 0.0)) | (near_hi & (grad < 0.0))
    ok = np.isfinite(grad).all(axis=1) & np.isfinite(hess).all(axis=(1, 2))
    grad = np.where(ok[:, None], grad, 0.0)
    hess = np.where(ok[:, None, None], hess, 0.0)
    # Hold too a variable at a bound that the Newton step would push
    # out, and solve again; each pass holds at least one more.
    for _ in range(theta.shape[1]):
        free = ~held
        h = hess * (free[:, :, None] & free[:, None, :])
        ev, vec = np.linalg.eigh(h)
        ev = np.abs(ev)
        ev = np.maximum(ev, _EIG_FLOOR * ev.max(axis=1, keepdims=True) + _TINY)
        coef = ((grad * free)[:, None, :] @ vec)[:, 0] / ev
        step = -(vec @ coef[..., None])[..., 0]
        out = free & ((near_lo & (step < 0.0)) | (near_hi & (step > 0.0)))
        if not out.any():
            break
        held |= out
    step = np.where(held, np.where(near_lo, lo, hi) - theta, step)
    size = np.abs(step).max(axis=1)
    step *= np.minimum(1.0, _STEP_CAP / (size + _TINY))[:, None]
    decrement = np.where(ok, np.einsum("ij,ij->i", coef * ev, coef), np.nan)
    return step, decrement


def _same_optimum(a: np.ndarray, b: np.ndarray, n: int) -> np.ndarray:
    """Whether each row of ``a`` is at the optimum of each row of ``b``.

    Two runs are at one optimum when their sorted log-rates are within
    ``_NEAR`` in the max-norm; returns a (rows of a, rows of b) array.
    """
    ra, rb = np.sort(a[:, :n], axis=1), np.sort(b[:, :n], axis=1)
    return np.abs(ra[:, None] - rb[None, :]).max(axis=2) <= _NEAR


def _newton_batch(theta, t, n, lo, hi, prune=True):
    """Minimize ``_negloglik`` from every row of ``theta`` at once.

    Every active row takes one ``_newton_step`` per iteration; each round
    of the line search evaluates the pending rows as one batch.  A point
    is taken when it passes the Armijo test and keeps f(0) > 0 and a
    positive tail (``_positive_ends``), so a run that starts admissible
    never crosses into the spikes that hide negative mass below the
    shortest gap.  A point that fails the Armijo test is first replaced
    by its correction, the Newton step taken from it, which follows a
    curved valley where the straight step leaves it; a correction that
    fails too halves the step.  A point without positive ends is
    replaced, in the same round, by the longest halving of its step that
    has them (``_halve_to_ends``).

    A row leaves the batch when its decrement falls to (``FIT_TOL``
    |f|)^2, after trying that last step; when no step down to
    ``_MIN_STEP`` lowers its objective; or when it is at the optimum of a
    row with a lower objective (``_same_optimum``).  With ``prune``, a
    row also leaves, without a step, when its objective exceeds that of
    the best row that stopped on the decrement and is ``_admissible`` on
    ``t`` by more than ``_PRUNE`` times its squared decrement: it cannot
    descend that far, so it cannot win.  Such rows are mostly ridge runs,
    whose tiny steps would otherwise fill the batch's tail.  A row whose
    decrement stops it in the same step still counts as converged.
    Returns the final rows, their objectives and whether each stopped on
    the decrement.
    """
    theta = np.array(theta, dtype=float)
    fval, grad, hess = _negloglik(theta, t, n)
    active = np.isfinite(fval)
    converged = np.zeros(fval.size, dtype=bool)
    best = np.inf  # the objective of the best converged, admissible row
    for _ in range(MAX_ITER):
        idx = np.flatnonzero(active)
        if idx.size == 0:
            break
        th, f0, g0 = theta[idx], fval[idx], grad[idx]
        step, decrement = _newton_step(th, g0, hess[idx], lo, hi)
        final = decrement <= np.square(FIT_TOL * f0)
        behind = ~final & (f0 - best > _PRUNE * decrement)
        alpha = np.ones(idx.size)
        corrected = np.zeros(idx.size, dtype=bool)
        moved = np.zeros(idx.size, dtype=bool)
        trial = th.copy()
        pending = np.isfinite(decrement) & ~behind
        while pending.any():
            plain = pending & ~corrected
            trial[plain] = np.clip(
                th[plain] + alpha[plain, None] * step[plain], lo, hi)
            # A point without positive ends fails unevaluated: halve.
            lost = pending & ~_positive_ends(trial, n)
            if lost.any():
                corrected[lost] = False
                back = np.flatnonzero(lost & ~final)
                alpha[back], trial[back], pending[back] = _halve_to_ends(
                    th[back], step[back], alpha[back], lo, hi, n)
                pending[lost & final] = False
                if not pending.any():
                    break
            p = np.flatnonzero(pending)
            ft, gt, ht = _negloglik(trial[p], t, n)
            slope = np.einsum("ij,ij->i", g0[p], trial[p] - th[p])
            take = ft <= f0[p] + _ARMIJO * np.minimum(slope, 0.0)
            done = idx[p[take]]
            theta[done], fval[done] = trial[p[take]], ft[take]
            grad[done], hess[done] = gt[take], ht[take]
            moved[p[take]] = True
            fix = ~take & ~corrected[p] & ~final[p]
            if fix.any():
                fix_step, fix_dec = _newton_step(trial[p[fix]], gt[fix],
                                                 ht[fix], lo, hi)
                trial[p[fix]] = np.clip(trial[p[fix]] + fix_step, lo, hi)
                fix[fix] = np.isfinite(fix_dec)
            halve = ~take & ~fix & ~final[p]
            alpha[p[halve]] *= 0.5
            corrected[p] = fix
            pending[p] = fix | (halve & (alpha[p] >= _MIN_STEP))
        converged[idx[final]] = True
        active[idx[final | ~moved]] = False
        if prune:
            done = idx[final]
            for i in done[np.argsort(fval[done], kind="stable")]:
                if fval[i] >= best:
                    break
                if _admissible(theta[i], n, t):
                    best = fval[i]
                    break
        # Merge: a row at the rates of a row with a lower objective leaves.
        idx = np.flatnonzero(active)
        if idx.size > 1:
            near = _same_optimum(theta[idx], theta[idx], n)
            fv = fval[idx]
            lower = (fv[None, :] < fv[:, None]) | (
                (fv[None, :] == fv[:, None]) & (idx[None, :] < idx[:, None]))
            active[idx[(near & lower).any(axis=1)]] = False
    return theta, fval, converged


def _halve_to_ends(th, step, alpha, lo, hi, n):
    """The first of ``alpha`` / 2, / 4, ... down to ``_MIN_STEP`` whose
    point clip(th + alpha step) has positive ends, for every row at once.

    Returns each row's step length and point, and whether it found one.
    A halving is exact, so each candidate has the bits that halving one
    line-search round at a time reaches.  ``alpha`` is at most 1, so
    twelve halvings reach ``_MIN_STEP`` = 2**-12.
    """
    scales = np.ldexp(alpha[:, None], -np.arange(1, 13))
    points = np.clip(th[:, None] + scales[:, :, None] * step[:, None],
                     lo, hi)
    ok = (scales >= _MIN_STEP) & _positive_ends(
        points.reshape(-1, th.shape[1]), n).reshape(scales.shape)
    first = (np.arange(th.shape[0]), np.argmax(ok, axis=1))
    return scales[first], points[first], ok.any(axis=1)


def _amplitudes(theta: np.ndarray, n: int) -> np.ndarray:
    """All n amplitudes of each parameter vector: the last makes the sum 1."""
    rest = theta[..., n:]
    return np.concatenate(
        [rest, 1.0 - rest.sum(axis=-1, keepdims=True)], axis=-1)


def _params(theta: np.ndarray, n: int) -> PhaseTypeParams:
    return PhaseTypeParams(lam=_distinct_rates(-np.exp(theta[:n])),
                           A=_amplitudes(theta, n))


def _positive_ends(theta: np.ndarray, n: int) -> np.ndarray:
    """Whether f(0) > 0 and the tail is positive, per row of ``theta``.

    With c = -A lambda, f(0) = sum(c), and the coefficient of the slowest
    rate sets the sign of the tail.
    """
    rates = np.exp(theta[:, :n])
    c = _amplitudes(theta, n) * rates
    slow = c[np.arange(c.shape[0]), np.argmin(rates, axis=1)]
    return (c.sum(axis=1) > 0.0) & (slow > 0.0)


def _admissible(theta: np.ndarray, n: int, t: np.ndarray) -> bool:
    """f(0) > 0, a positive tail, and f > 0 at every gap."""
    return bool(_positive_ends(theta[None], n)[0]
                 and np.all(density(_params(theta, n), t) > 0.0))


def fit_multiexp(
    trace: EventTrace, n_components: int, config: FitConfig = FitConfig()
) -> FitResult:
    """Maximum-likelihood multi-exponential fit of the gap density.

    The density is f(t) = sum_i (-A_i lambda_i) exp(lambda_i t) with the
    amplitudes summing to one.  Rates are optimized in log-magnitude
    coordinates with the last amplitude eliminated (see ``_negloglik``),
    all ``config.restarts`` starts together by ``_newton_batch``.  A
    trace longer than ``_SUBSAMPLE`` gaps runs the restarts on a strided
    subsample, then refines its distinct admissible optima on the full
    trace.  The full-trace batch drops runs that can no longer reach its
    best converged, admissible run (``_PRUNE``); the subsample batch
    does not, since a gap between objectives on the subsample does not
    bound the gap on the full trace.  Of the final runs, the best by
    objective whose density is admissible is returned: positive at t = 0,
    in the tail and at every gap.  Raises InvalidDensity when no run is
    admissible.
    """
    n = n_components
    if n < 1:
        raise ValueError("n_components must be at least 1")
    t = np.asarray(trace.gaps, dtype=float)
    if t.size < 10 * (2 * n - 1):
        raise ValueError(
            f"need at least {10 * (2 * n - 1)} gaps to fit {n} components"
        )
    lo = np.array([np.log(0.01 / np.max(t))] * n + [-10.0] * (n - 1))
    hi = np.array([np.log(100.0 / np.min(t))] * n + [10.0] * (n - 1))
    starts = np.clip(
        np.reshape(_initial_points(t, n, config), (-1, 2 * n - 1)), lo, hi)
    if t.size > _SUBSAMPLE:
        # Gaps are exchangeable, so every stride-th one is a fair sample.
        sub = t[:: -(-t.size // _SUBSAMPLE)]
        theta, fval, converged = _newton_batch(starts, sub, n, lo, hi,
                                               prune=False)
        # The best admissible run, and every other admissible optimum with
        # rates of its own; a run that left the batch unconverged was
        # merged into a lower one or stalled.
        kept = theta[:0]
        for i in np.argsort(fval, kind="stable"):
            if ((converged[i] or not kept.size) and np.isfinite(fval[i])
                    and _admissible(theta[i], n, sub)
                    and not _same_optimum(theta[i:i + 1], kept, n).any()):
                kept = np.vstack([kept, theta[i]])
        starts = kept
    theta, fval, converged = _newton_batch(starts, t, n, lo, hi)
    # Best objective first, ties in run order.  Runs keep f(0) > 0 and a
    # positive tail, but the penalty only acts at the gaps, so a run can
    # end with a density that is negative between them; the best
    # admissible run wins.
    order = np.argsort(fval, kind="stable")
    for rank, best in enumerate(order):
        if np.isfinite(fval[best]) and _admissible(theta[best], n, t):
            break
    else:
        raise InvalidDensity(
            "no restart gives a density that is positive at t = 0, in the "
            "tail and at every observed gap"
        )
    # Converged: this run, or a later one with the same objective, says so.
    tie = 1e-9 * (1 + abs(fval[best]))
    later = order[rank:]
    return FitResult(
        params=_params(theta[best], n),
        log_likelihood=float(-fval[best]),
        converged=bool(np.any(converged[later]
                              & (np.abs(fval[later] - fval[best]) <= tie))),
        n_restarts_used=config.restarts,
    )


def write_trace_csv(trace: EventTrace, path: str) -> None:
    """Write a trace as a one-column CSV with a ``gap`` header."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["gap"])
        for gap in trace.gaps:
            writer.writerow([repr(float(gap))])


def read_trace_csv(path: str) -> EventTrace:
    """Load a trace from a one-column ``gap`` CSV, with seed 0."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip() for h in header] != ["gap"]:
            raise ValueError("expected a CSV with a single 'gap' column")
        gaps = [float(row[0]) for row in reader if row]
    return EventTrace(gaps=np.array(gaps), seed=0)
