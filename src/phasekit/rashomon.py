"""Variant-model analysis: state markers, model mappings, discrimination.

Different catalogued models can generate identical phase-type survival
curves.  This module computes per-state markers (lifetimes T_i and
steady-state occupancies p_i) that can, or provably cannot, tell such
variants apart, the explicit bijections between the M9, M8 and M4
parameterizations, and a Monte Carlo experiment measuring how often the
markers discriminate between variants fitted to random survival data.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import direct, inverse, models
from .direct import PhaseTypeParams, SymmetricMoments
from .errors import DomainViolation, SingularSteadyState, WrongArity


@dataclass(frozen=True)
class Markers:
    """Per-state lifetimes and steady-state occupancies."""

    T: tuple[float, ...]
    p: tuple[float, ...]


def markers(model: models.ModelId, rates) -> Markers:
    """Lifetimes T_i and occupancies p_i of the no-exit chain, from
    :func:`direct.no_exit_markers`.

    Raises SingularSteadyState unless every T_i is finite and positive
    and every p_i is positive.  For nonnegative rates that is exactly
    when every state has a hidden out-rate and the no-exit chain has a
    unique steady state, since a closed class gives an exact 0 in p.
    """
    k = np.asarray(rates, dtype=float)
    if k.shape != (model.n_rates,):
        raise WrongArity(f"{model} expects {model.n_rates} rates, "
                         f"got {k.shape}")
    with np.errstate(divide="ignore", invalid="ignore"):
        T, p = direct.no_exit_markers(model, k)
    T = tuple(float(x) for x in T)
    p = tuple(float(x) for x in p)
    if not all(0.0 < x < np.inf for x in T):
        raise SingularSteadyState("a state has no positive hidden out-rate")
    if not all(x > 0.0 for x in p):
        raise SingularSteadyState("the no-exit chain has no positive "
                                  "steady state")
    return Markers(T=T, p=p)


def sigma_m9(rates) -> np.ndarray:
    """Relabeling of the two non-observed M9 states: swaps k1<->k2 and
    k3<->k4.  An involution that leaves the survival function unchanged."""
    k1, k2, k3, k4, k5 = np.asarray(rates, dtype=float)
    return np.array([k2, k1, k4, k3, k5])


def map_m9_to_m8(rates) -> np.ndarray:
    """Bijection from M9 rates (with k2 > k1 > 0) to M8 rates producing
    the identical phase-type distribution."""
    k1, k2, k3, k4, k5 = np.asarray(rates, dtype=float)
    if not (k2 > k1 > 0.0):
        raise DomainViolation(f"map to M8 requires k2 > k1 > 0, "
                              f"got k1={k1}, k2={k2}")
    return np.array([k1, k2, k3 * (k2 - k1) / k2,
                     (k1 * k3 + k2 * k4) / k2, k5])


def map_m8_to_m9(rates) -> np.ndarray:
    """Inverse of map_m9_to_m8."""
    k1, k2, k3, k4, k5 = np.asarray(rates, dtype=float)
    if not (k2 > k1 > 0.0):
        raise DomainViolation(f"inverse map requires k2 > k1 > 0, "
                              f"got k1={k1}, k2={k2}")
    k3_src = k3 * k2 / (k2 - k1)
    k4_src = (k4 * k2 - k1 * k3_src) / k2
    return np.array([k1, k2, k3_src, k4_src, k5])


def map_m9_to_m4(rates) -> np.ndarray:
    """Bijection from M9 rates (with k1 > k2 > 0) to M4 rates producing
    the identical phase-type distribution."""
    k1, k2, k3, k4, k5 = np.asarray(rates, dtype=float)
    if not (k1 > k2 > 0.0):
        raise DomainViolation(f"map to M4 requires k1 > k2 > 0, "
                              f"got k1={k1}, k2={k2}")
    tot = k3 + k4
    return np.array([(k1 - k2) * k4 / tot, (k1 * k3 + k2 * k4) / tot,
                     k2, tot, k5])


def map_m4_to_m9(rates) -> np.ndarray:
    """Inverse of map_m9_to_m4."""
    k1, k2, k3, k4, k5 = np.asarray(rates, dtype=float)
    k1_src = k1 + k2
    if not (k1_src > k3 > 0.0) or k1 <= 0.0:
        raise DomainViolation("image lies outside the range of the M9->M4 "
                              "map")
    k4_src = k1 * k4 / (k1_src - k3)
    return np.array([k1_src, k3, k4 - k4_src, k4_src, k5])


@dataclass
class VariantInstance:
    solution: inverse.InverseSolution
    markers: Markers | None
    valid: bool


@dataclass
class VariantReport:
    """All catalog-model explanations of one phase-type input."""

    instances: list[VariantInstance]
    deltas: dict[str, float]
    constraint_spreads: dict[str, float]
    diagnostics: dict[str, str]

    @property
    def n_valid(self) -> int:
        return sum(1 for i in self.instances if i.valid)


#: The rows of the spreads of :func:`_variant_markers`.
SPREAD_ROWS = ("p1", "log10_T1", "p2", "log10_T2", "p3", "log10_T3", "T3",
               "k5")


def _variant_markers(groups):
    """Validity, markers and spreads of the variants of n inputs, for
    :func:`enumerate_variants` and the experiment alike.

    Each group is ``(batch, (k, ok, ...))``, as the items of
    :func:`inverse.generic_branches`: one model or one per variant, the
    rates k1..k5 of its variants, shape (5, variants, n), and the mask of
    those whose inequations hold.  A variant is valid where that holds
    and its rates are :func:`inverse.clearly_positive`.  Returns, for
    each group, its validity mask and markers T and p (nan if invalid),
    and over the valid variants of each input that has one, the spread
    and greatest value of each of the ``SPREAD_ROWS``, each (8, n_kept).
    A group at a time, masking rates, not markers, keeps arrays small.
    """
    each, low, top = [], np.nan, np.nan
    for batch, (k, ok, *_) in groups:
        valid = ok & inverse.clearly_positive(k)
        # Invalid variants get nan rates, so nan markers that fmin skips.
        k = np.where(valid, k, np.nan)
        T, p = direct.no_exit_markers(batch, k)
        marks = np.array([p[0], T[0], p[1], T[1], p[2], T[2], T[2], k[4]])
        np.log10(marks[1:6:2], out=marks[1:6:2])
        low = np.fmin(low, np.fmin.reduce(marks, axis=1))
        top = np.fmax(top, np.fmax.reduce(marks, axis=1))
        each.append((valid, T, p))
    kept = ~np.isnan(low[0])
    return each, (top - low)[:, kept], top[:, kept]


def enumerate_variants(data: PhaseTypeParams | SymmetricMoments
                       ) -> VariantReport:
    """Invert the input, (lambda, A) or its moments, under every model of
    ``models.SOLVABLE_N3`` and attach markers.

    The candidate solutions of all models (:func:`inverse.candidates`)
    are polished together in one batch.  :func:`_variant_markers` applies
    the experiment's rule: an instance is valid exactly when its rates
    are real and positive beyond the rounding band of
    :func:`inverse.clearly_positive`.  Every catalog chain is irreducible,
    so positive rates give it finite lifetimes and a positive steady
    state: valid instances get markers and enter the delta and
    shared-invariant computations, and invalid ones are kept, without
    markers, for inspection.  ``diagnostics`` notes the models that
    neither the generic closed forms nor the Thomas search could invert.
    """
    m = data if isinstance(data, SymmetricMoments) else direct.moments(data)
    candidates, missed = inverse.candidates(m)
    diagnostics = {str(model): str(exc) for model, exc in missed.items()}
    sols = inverse.make_solutions(m, candidates)
    if not sols:
        return VariantReport([], {}, {}, diagnostics)
    [(valid, T, occ)], spread, top = _variant_markers([(
        [s.model for s in sols],
        (np.array([s.rates for s in sols]).T[:, :, None], True))])
    instances = [VariantInstance(sol, Markers(tuple(t), tuple(q)) if ok
                                 else None, bool(ok)) for sol, ok, t, q
                 in zip(sols, valid[:, 0], np.array(T)[:, :, 0].T.tolist(),
                        np.array(occ)[:, :, 0].T.tolist())]
    rel = (spread / np.maximum(top, 1e-300))[[7, 6, 4]]  # k5, T3, p3
    return VariantReport(
        instances, dict(zip(SPREAD_ROWS[:6], spread[:6].ravel().tolist())),
        dict(zip(("k5", "T3", "p3"), rel.ravel().tolist())), diagnostics)


# ---------------------------------------------------------------------------
# Discrimination experiment


#: Draws of the experiment's inputs: see ``_draw_moments``.
EXPONENT_RANGE = (-4.0, 0.0)
TOL_SEP = 1e-6
#: A spread at most this large counts as zero.
ZERO_DELTA_TOL = 1e-9
#: Histogram bins, over [0, 1] for delta p1 and [0, LOG_DELTA_MAX] for
#: the log10 T spreads.
N_BINS = 50
LOG_DELTA_MAX = 4.0


@dataclass(frozen=True)
class ExperimentConfig:
    """Size and seed of the discrimination experiment; the rest of its
    design is the module constants above."""

    n_samples: int = 100_000
    seed: int = 7

    def __post_init__(self):
        if self.n_samples < 1:
            raise ValueError("n_samples must be at least 1")


@dataclass
class ExperimentReport:
    config: ExperimentConfig
    n_retained: int
    zero_fraction_p: float
    zero_fraction_t1: float
    zero_fraction_t2: float
    histograms: dict[str, dict[str, list[float]]] = field(default_factory=dict)

    @property
    def retained_fraction(self) -> float:
        return self.n_retained / self.config.n_samples


#: Samples drawn and inverted together.  A constant, because the order
#: in which blocks take their draws from the seeded stream decides the
#: samples; it bounds the experiment's memory at any sample count.
_BLOCK = 1 << 13


def _draw_moments(rng, n: int) -> SymmetricMoments:
    """Symmetric moments of ``n`` random three-exponential inputs.

    A1, A2 are uniform on [0, 1] with A3 = 1 - A1 - A2; the decay rates
    are log-uniform over ``EXPONENT_RANGE``, and a sample's three rates
    are redrawn until they are separated by more than ``TOL_SEP`` of the
    largest.
    """
    lo, hi = EXPONENT_RANGE
    a1, a2 = rng.uniform(size=(2, n))
    a3 = 1.0 - a1 - a2
    lam = -10.0 ** rng.uniform(lo, hi, size=(n, 3))
    while True:
        sep = np.min(np.abs(lam[:, [0, 0, 1]] - lam[:, [1, 2, 2]]), axis=1)
        close = sep <= TOL_SEP * np.max(np.abs(lam), axis=1)
        if not close.any():
            break
        lam[close] = -10.0 ** rng.uniform(lo, hi, size=(close.sum(), 3))
    l1, l2, l3 = lam.T
    return SymmetricMoments(
        L=(l1 + l2 + l3, l1 * l2 + l1 * l3 + l2 * l3, l1 * l2 * l3),
        S=(a1 * l1 + a2 * l2 + a3 * l3,
           a1 * l1 ** 2 + a2 * l2 ** 2 + a3 * l3 ** 2))


def discrimination_experiment(cfg: ExperimentConfig) -> ExperimentReport:
    """Monte Carlo discrimination study over random survival parameters.

    Each sample draws amplitudes A1, A2 uniform on [0,1] (A3 completes
    the sum to 1) and three decay rates log-uniform over four decades,
    inverts every model of ``models.SOLVABLE_N3`` with the closed forms
    of invert_generic (one :func:`inverse.generic_branches` call per
    block), retains the sample if it has a valid variant under the rule
    of :func:`enumerate_variants`, and records the spreads of p_1 and
    log10 T_1, log10 T_2 across its valid variants.  All samples come
    from one stream seeded with ``cfg.seed``, drawn and inverted in
    blocks of fixed size, so a seed gives the same report every time.
    """
    rng = np.random.default_rng(cfg.seed)
    edges = [np.linspace(0.0, top, N_BINS + 1)
             for top in (1.0, LOG_DELTA_MAX, LOG_DELTA_MAX)]
    n_ret = 0
    zero = np.zeros(3, dtype=np.int64)
    counts = np.zeros((3, N_BINS), dtype=np.int64)
    for start in range(0, cfg.n_samples, _BLOCK):
        n = min(_BLOCK, cfg.n_samples - start)
        _, spread, _ = _variant_markers(
            inverse.generic_branches(_draw_moments(rng, n)).items())
        deltas = spread[[0, 1, 3]]  # p1, log10 T1 and log10 T2
        n_ret += deltas.shape[1]
        zero += np.sum(deltas <= ZERO_DELTA_TOL, axis=1)
        for j in range(3):
            bins = np.searchsorted(edges[j], deltas[j], side="right") - 1
            counts[j] += np.bincount(np.minimum(bins, N_BINS - 1),
                                     minlength=N_BINS)

    denom = max(n_ret, 1)
    return ExperimentReport(
        config=cfg,
        n_retained=n_ret,
        zero_fraction_p=zero[0] / denom,
        zero_fraction_t1=zero[1] / denom,
        zero_fraction_t2=zero[2] / denom,
        histograms={name: {"edges": e.tolist(), "counts": c.tolist()}
                    for name, e, c in zip(("delta_p1", "delta_log10_T1",
                                           "delta_log10_T2"), edges, counts)},
    )
