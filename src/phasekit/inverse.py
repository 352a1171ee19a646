"""Recovery of transition rates from multi-exponential survival parameters.

Three solver paths are provided:

* ``invert_generic``: closed-form solutions of the generic triangular
  branch for each catalogued three-state model (unique for M2, two
  quadratic branches for M4/M8/M9, a one-parameter family for M3).
* ``invert_thomas``: full branch search over the encoded triangular
  decompositions, covering every degenerate stratum.
* ``invert_unbranched``: numeric recursion for reversible chains
  1 <-> 2 <-> ... <-> N -> N+1 of any length.

Every returned solution carries a forward round-trip residual; that
residual, not the solver algebra, is the acceptance oracle.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np
from mpmath import mp

from . import direct, models, simple_systems
from .direct import PhaseTypeParams, SymmetricMoments
from .errors import (GenericBranchMiss, M3HypersurfaceMiss,
                     NegativeDiscriminant, WrongArity, ZeroPivot)

DEFAULT_TOL = 1e-9
DEFAULT_K3_GRID = (0.1, 1.0, 10.0)

_EPS = np.finfo(float).eps
#: Band of the generic-branch inequations, as a fraction of the sum of the
#: absolute values of each polynomial's terms.  It covers the rounding
#: error of evaluating those polynomials in float64, so a quantity outside
#: it is nonzero in exact arithmetic and the generic branch applies.
_ROUNDING_BAND = 64.0 * _EPS
#: Float64 Newton results whose estimated relative error exceeds this are
#: finished in extended precision.
_FLOAT_POLISH_TOL = 1e-10
_POLISH_DPS = 40


@dataclass(frozen=True)
class InverseSolution:
    """One rate assignment recovered from survival parameters."""

    model: models.ModelId
    rates: np.ndarray
    branch: str
    residual: float
    free_params: tuple[tuple[str, float], ...] = ()

    @property
    def all_positive(self) -> bool:
        return bool(clearly_positive(self.rates))

    def as_dict(self) -> dict:
        return {
            "model": str(self.model),
            "rates": [float(x) for x in self.rates],
            "branch": self.branch,
            "residual": float(self.residual),
            "free_params": {n: float(v) for n, v in self.free_params},
            "all_positive": self.all_positive,
        }


def clearly_positive(k) -> np.ndarray:
    """Whether every rate along the first axis of ``k`` is positive.

    A rate at most ``_ROUNDING_BAND`` times the largest rate of its
    vector is zero to within rounding (lumpable inputs give such rates
    as +-1e-15 noise on an exact zero), so it does not count; neither
    does a nan or an infinite rate.
    """
    k = np.asarray(k, dtype=float)
    return k.min(axis=0) > _ROUNDING_BAND * k.max(axis=0)


def symmetric_inputs(p: PhaseTypeParams) -> SymmetricMoments:
    """Symmetric moments (L_k, S_k) of decay parameters, the solver input."""
    return direct.moments(p)


def _moment_denominators(target: np.ndarray) -> np.ndarray:
    return np.where(target != 0.0, np.abs(target), 1.0)


def roundtrip_residual(model: models.ModelId, rates: np.ndarray,
                       target: SymmetricMoments) -> float:
    """Max relative deviation of the forward moments from the target."""
    gen = models.build_generator(model, np.asarray(rates, dtype=float))
    got = direct.moments_from_generator(gen).as_vector()
    want = target.as_vector()
    return float(np.max(np.abs(got - want) / _moment_denominators(want)))


def _moment_scale(m: SymmetricMoments) -> float:
    return 1.0 + float(np.max(np.abs(m.as_vector())))


def _relative_jacobian(model, k: np.ndarray, denom: np.ndarray) -> np.ndarray:
    """d(moment_i / denom_i) / d(log k_j) by complex-step differentiation.

    The forward map is rational in the rates, so the imaginary part of
    one evaluation at k_j (1 + i h) gives column j to working accuracy,
    with no step-size trade-off.
    """
    h = 1e-20
    jac = np.empty((denom.size, k.size))
    for j in range(k.size):
        kc = [complex(x) for x in k]
        kc[j] *= complex(1.0, h)
        jac[:, j] = [z.imag / h for z in direct.moment_vector(model, kc)]
    return jac / denom[:, None]


def _polish(model, rates, m: SymmetricMoments) -> tuple[np.ndarray, float]:
    """Newton-refine a rate vector against the target moments.

    Closed-form branch values lose digits when the rates span several
    decades.  Newton on the relative residuals (moment_i / target_i - 1)
    with steps relative to each rate runs in float64 until the residual
    stops decreasing.  Every step reuses the Jacobian of the closed-form
    start (a chord method): the start is close enough that the chord
    converges in as few steps as Newton, at one forward evaluation per
    step instead of six.  The error left by float64 rounding is bounded
    by the last correction and by the Jacobian's condition number times
    the few ulps to which the forward map is accurate; when that bound
    exceeds ``_FLOAT_POLISH_TOL`` (an ill-conditioned input) the target
    moments are taken as exact and the rates are refined against them in
    extended precision, with the Jacobian evaluated again at the last
    float64 iterate.  Returns the rates, the input unchanged whenever
    refinement does not help, and their :func:`roundtrip_residual`,
    taken from the last float64 residual where that is the same value.
    """
    target = m.as_vector()
    denom = _moment_denominators(target)
    k = np.asarray(rates, dtype=float)
    # Steps are relative to each rate, so a zero rate cannot move.
    if not np.all(np.isfinite(k)) or np.any(k == 0.0):
        return k, roundtrip_residual(model, k, m)

    def resid(x):
        got = np.array(direct.moment_vector(model, x.tolist()), dtype=float)
        return (got - target) / denom

    r = resid(k)
    jac = _relative_jacobian(model, k, denom)
    try:
        inv = np.linalg.inv(jac)
    except np.linalg.LinAlgError:
        return k, float(np.max(np.abs(r)))
    for _ in range(8):
        step = -inv @ r
        trial = k * (1.0 + step)
        r_trial = resid(trial)
        if not np.all(np.isfinite(r_trial)) or (
                np.max(np.abs(r_trial)) >= np.max(np.abs(r))):
            break
        k, r = trial, r_trial
        if np.max(np.abs(step)) <= 4.0 * _EPS:
            break
    cond = np.linalg.norm(jac, np.inf) * np.linalg.norm(inv, np.inf)
    if max(np.max(np.abs(step)), 4.0 * _EPS * cond) <= _FLOAT_POLISH_TOL:
        return k, float(np.max(np.abs(r)))
    try:
        inv = np.linalg.inv(_relative_jacobian(model, k, denom))
    except np.linalg.LinAlgError:
        return k, float(np.max(np.abs(r)))
    k = _polish_extended(model, k, target, denom, inv)
    return k, roundtrip_residual(model, k, m)


def _polish_extended(model, k, target, denom, inv) -> np.ndarray:
    """Iterative refinement with the residual in extended precision.

    The float64 moments are treated as exact.  Each correction is
    solved with the float64 inverse Jacobian ``inv``, which converges
    linearly as long as the Jacobian's condition number stays well below
    1/eps.  Falls back to ``k`` when the corrections stop shrinking
    before they fall far below float64 resolution.
    """
    with mp.workdps(_POLISH_DPS):
        want = [mp.mpf(float(x)) for x in target]
        km = [mp.mpf(float(x)) for x in k]
        last = np.inf
        for _ in range(12):
            got = direct.moment_vector(model, km)
            r = np.array([float((g - w) / d)
                          for g, w, d in zip(got, want, denom)])
            step = -inv @ r
            size = float(np.max(np.abs(step)))
            if not size < last:
                return k
            km = [x * (1 + mp.mpf(float(s))) for x, s in zip(km, step)]
            if size <= 1e-3 * _EPS:
                return np.array([float(x) for x in km])
            last = size
    return k


def _make_solution(model, rates, branch, m, free=(), polish=True):
    rates = np.asarray(rates, dtype=float)
    if polish and not free:
        rates, residual = _polish(model, rates, m)
    else:
        residual = roundtrip_residual(model, rates, m)
    return InverseSolution(model=model, rates=rates, branch=branch,
                           residual=residual, free_params=tuple(free))


def _nonzero(what, value, terms):
    """Inequation ``value != 0``, failed where ``value`` lies within the
    rounding band of its terms, which keeps the test meaningful when the
    moments span many decades."""
    return (GenericBranchMiss, f"{what} != 0", value,
            np.abs(value) <= _ROUNDING_BAND * terms)


def _holds(checks):
    """Mask of the inputs on which none of ``checks`` failed."""
    return ~np.logical_or.reduce([failed for *_, failed in checks])


def _raise_first_failure(checks):
    for error, what, value, failed in checks:
        if np.any(failed):
            raise error(f"generic branch requires {what}, "
                        f"got {np.ravel(value)[0]:.3e}")


def _three_state(m: SymmetricMoments):
    """(L1, L2, L3, S1, S2), each a float or an array over a batch."""
    if len(m.L) != 3 or len(m.S) != 2:
        raise WrongArity("three-state inverse formulas need 3 exponential "
                         f"components, got {len(m.L)}")
    return (*m.L, *m.S)


def _family_condition(L1, L2, L3, S1, S2):
    """G, which vanishes on the M3 hypersurface, and the sum of the
    absolute values of its terms."""
    G = L1 * S1 * S2 - L2 * S1 ** 2 + L3 * S1 - S2 ** 2
    terms = (np.abs(L1 * S1 * S2) + np.abs(L2) * S1 ** 2
             + np.abs(L3 * S1) + S2 ** 2)
    return G, terms


def generic_branches(tag: str, m: SymmetricMoments):
    """Closed forms of the generic branch of M2, M4, M8 or M9.

    ``m.L`` and ``m.S`` hold a batch of inputs along their second axis.
    Returns ``(branches, checks)``: ``branches`` has one ``(rates, ok)``
    pair per branch (one for M2, one per quadratic root otherwise), the
    rates k1..k5 and the mask of the inputs on which every inequation of
    that branch holds; elsewhere the rates may be inf or nan.  ``checks``
    lists the inequations in the order invert_generic tests them, as
    (error type, condition, value, failed mask).
    """
    L1, L2, L3, S1, S2 = _three_state(m)
    G, G_terms = _family_condition(L1, L2, L3, S1, S2)
    s1_cubed = S1 ** 3 - S1 * S2
    # Inequations that M2 and M4 share
    shared_24 = [_nonzero("S1^3 - S1 S2", s1_cubed,
                          np.abs(S1) ** 3 + np.abs(S1 * S2)),
                 _nonzero("S2", S2, S1 ** 2 + np.abs(L2))]
    k5 = -S1
    with np.errstate(divide="ignore", invalid="ignore"):
        # k2 and k4 of M2 and of M4
        k2_24 = G / s1_cubed
        k4_24 = (S1 ** 2 - S2) / S1
        if tag == "M2":
            num = (L1 ** 2 * S1 ** 3 * S2 + L2 ** 2 * S1 ** 3 + S1 * S2 ** 3
                   + L3 ** 2 * S1
                   + (-2.0 * S1 ** 2 * S2 ** 2
                      + (-S1 ** 4 - S1 ** 2 * S2) * L2
                      + (S1 ** 3 + S1 * S2) * L3) * L1
                   + (S1 ** 3 * S2 - 2.0 * L3 * S1 ** 2 + S1 * S2 ** 2) * L2
                   + (S1 ** 4 - 3.0 * S1 ** 2 * S2) * L3)
            den = (-S1 ** 2 * S2 ** 2 + S2 ** 3
                   + (S1 ** 3 * S2 - S1 * S2 ** 2) * L1
                   + (-S1 ** 4 + S1 ** 2 * S2) * L2
                   + (S1 ** 3 - S1 * S2) * L3)
            den_terms = (S1 ** 2 * S2 ** 2 + np.abs(S2) ** 3
                         + np.abs(S1 ** 3 * S2 * L1)
                         + np.abs(S1 * S2 ** 2 * L1)
                         + S1 ** 4 * np.abs(L2) + S1 ** 2 * np.abs(S2 * L2)
                         + np.abs(S1 ** 3 * L3) + np.abs(S1 * S2 * L3))
            checks = [_nonzero("G", G, G_terms), *shared_24,
                      _nonzero("the k1 pivot", den, den_terms)]
            rates = (-num / den, k2_24, (S1 ** 2 - S2) * L3 / G, k4_24, k5)
            return [(rates, _holds(checks))], checks

        checks = [_nonzero("L3", L3, np.abs(L1 * L2))]
        if tag == "M4":
            checks += [*shared_24, _nonzero("S1^2 - S2", S1 ** 2 - S2,
                                            S1 ** 2 + np.abs(S2))]
        elif tag in ("M8", "M9"):
            checks += [_nonzero("S1", S1, np.abs(L1))]
        else:
            raise ValueError(f"no generic inverse formulas for model {tag}")
        disc = (L1 * S1) ** 2 - 2.0 * L1 * S1 * S2 - 4.0 * L3 * S1 + S2 ** 2
        disc_terms = ((L1 * S1) ** 2 + 2.0 * np.abs(L1 * S1 * S2)
                      + 4.0 * np.abs(L3 * S1) + S2 ** 2)
        checks += [
            (GenericBranchMiss, "a discriminant outside the degenerate band",
             disc, np.abs(disc) <= _ROUNDING_BAND * disc_terms),
            (NegativeDiscriminant, "a real quadratic branch, discriminant > 0",
             disc, disc < 0.0)]
        root = np.sqrt(disc)
        quads = [-(L1 * S1 - S2 + root) / (2.0 * S1),
                 -(L1 * S1 - S2 - root) / (2.0 * S1)]

        # The quadratic gives k3 of M4 and k2 of M8 and M9.
        branches, pivots = [], []
        for j, q in enumerate(quads):
            own = []
            if tag == "M4":
                k1 = (-L1 * S1 ** 2 + L2 * S1 + S1 * S2
                      - (S1 ** 2 - S2) * q - L3) / (S1 ** 2 - S2)
                rates = (k1, k2_24, q, k4_24, k5)
            elif tag == "M8":
                k3 = -(-S1 ** 3 * q + L1 * S1 * S2 - L2 * S1 ** 2
                       + S1 * S2 * q + L3 * S1 - S2 ** 2) / (q * S1 ** 2)
                rates = (L3 / (S1 * q), q, k3, G / (q * S1 ** 2), k5)
            else:
                pivot = 2.0 * q * S1 + L1 * S1 - S2
                own = [_nonzero(f"the k4 pivot of root {j}", pivot,
                                2.0 * np.abs(q * S1) + np.abs(L1 * S1)
                                + np.abs(S2))]
                k1 = -(q * S1 + L1 * S1 - S2) / S1
                k3 = -(-S1 ** 3 * q + L1 * S1 * S2 - L2 * S1 ** 2
                       + S1 * S2 * q + L3 * S1 - S2 ** 2) / (S1 * pivot)
                k4 = (L1 * S1 ** 2 + S1 ** 2 * q - L2 * S1 - S1 * S2
                      - S2 * q + L3) / pivot
                rates = (k1, q, k3, k4, k5)
            pivots += own
            branches.append((rates, _holds(checks + own)))
        return branches, checks + pivots


def invert_generic(model: models.ModelId, m: SymmetricMoments,
                   tol: float = DEFAULT_TOL,
                   k3_grid=DEFAULT_K3_GRID,
                   hypersurface_tol: float | None = None) -> list[InverseSolution]:
    """Closed-form solutions of the generic branch for one catalog model.

    Raises GenericBranchMiss when an inequation of the generic branch
    fails, that is when the quantity lies within the float64 rounding
    error of zero, 64 eps times the sum of its absolute terms (callers
    should then fall back to invert_thomas), and NegativeDiscriminant
    when the quadratic branch turns complex.  ``tol`` sets the band of
    the M3 solvability hypersurface test; ``hypersurface_tol`` loosens
    only that test, measured against its polynomial's term sizes, for
    inputs estimated from finite data.
    """
    if model != models.M3:
        # As a batch of one: numpy's scalar powers can differ in the last
        # bit from its array loops, which the experiment's batches take.
        batch = SymmetricMoments(L=m.L[:, None], S=m.S[:, None])
        branches, checks = generic_branches(model.tag, batch)
        _raise_first_failure(checks)
        return [_make_solution(model, np.ravel(rates),
                               "generic" if len(branches) == 1
                               else f"generic/root{j}", m)
                for j, (rates, _) in enumerate(branches)]

    L1, L2, L3, S1, S2 = _three_state(m)
    G, G_terms = _family_condition(L1, L2, L3, S1, S2)
    hs_band = tol * _moment_scale(m)
    if hypersurface_tol is not None:
        hs_band = hypersurface_tol * (1.0 + G_terms)
    if abs(G) > hs_band:
        raise M3HypersurfaceMiss(
            f"family condition |{G:.3e}| > {hs_band:.3e}; moments are "
            "off the solvability hypersurface")
    _raise_first_failure([_nonzero("S1", S1, abs(L1)),
                          _nonzero("S2", S2, S1 ** 2 + abs(L2))])
    k4 = (S1 ** 2 - S2) / S1
    k5 = -S1
    out = []
    for k3 in k3_grid:
        k2 = L3 / (k3 * S1)
        k1 = -(k3 ** 2 * S1 * S2 + L3 * S2
               + (L2 * S1 ** 2 - L3 * S1) * k3) / (k3 * S1 * S2)
        out.append(_make_solution(model, (k1, k2, k3, k4, k5),
                                  "family", m, free=(("k3", k3),)))
    return out


@functools.lru_cache(maxsize=None)
def _systems_for(tag: str) -> simple_systems.ModelSystems:
    return simple_systems.load_systems(tag)


def invert_thomas(model: models.ModelId, m: SymmetricMoments,
                  tol: float = DEFAULT_TOL,
                  free_grid=DEFAULT_K3_GRID) -> list[InverseSolution]:
    """Full branch search over the encoded triangular decomposition.

    Handles every stratum, including the degenerate ones the generic
    formulas reject.  Raises NoBranchMatches when no stratum accepts
    the input within tolerance.
    """
    ms = _systems_for(model.tag)
    branch_sols = simple_systems.solve_for_moments(ms, m.as_vector(),
                                                   tol=tol,
                                                   free_grid=free_grid)
    out = []
    for bs in branch_sols:
        label = f"S{bs.system_index}/" + "".join(map(str, bs.branch))
        out.append(_make_solution(model, bs.rate_vector(), label, m,
                                  free=tuple(sorted(bs.free_values.items()))))
    return out


def _lanczos_tridiagonal(lam: np.ndarray,
                         weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Jacobi matrix with spectrum ``lam`` and first-coordinate spectral
    weights ``weights``.

    Lanczos on diag(lam) started from sqrt(weights), with full
    reorthogonalization.  Weights smaller than the square of machine
    epsilon still carry rate information, so the iteration works with
    mpmath numbers and must run inside an ``mp.workdps`` block.
    Returns (diagonal, off-diagonal) as mpmath lists.
    """
    n = lam.size
    lam_mp = [mp.mpf(float(x)) for x in lam]
    q = [mp.sqrt(mp.mpf(float(x))) for x in weights]
    norm = mp.sqrt(mp.fsum(x * x for x in q))
    basis = [[x / norm for x in q]]
    alpha = [mp.mpf(0)] * n
    beta = [mp.mpf(0)] * (n - 1)
    for m in range(n):
        v = [lam_mp[j] * basis[m][j] for j in range(n)]
        alpha[m] = mp.fsum(basis[m][j] * v[j] for j in range(n))
        if m == n - 1:
            break
        # two orthogonalization passes; one leaves rounding residue
        for _ in range(2):
            for vec in basis:
                proj = mp.fsum(vec[j] * v[j] for j in range(n))
                v = [v[j] - proj * vec[j] for j in range(n)]
        norm = mp.sqrt(mp.fsum(x * x for x in v))
        if norm <= mp.mpf(10) ** -50 * max(abs(x) for x in lam_mp):
            raise ZeroPivot(f"spectral data degenerates at Lanczos step {m}")
        beta[m] = norm
        basis.append([x / norm for x in v])
    return alpha, beta


def invert_unbranched(N: int, p: PhaseTypeParams) -> InverseSolution:
    """Recover chain rates (k_1^+..k_{N-1}^+, k_1^-..k_{N-1}^-, k_N).

    The reduced rate matrix of an unbranched chain is similar to a
    symmetric tridiagonal matrix, and the density weights
    w_i = -A_i lambda_i / k_N are the squared last eigenvector
    components of that matrix.  Reconstructing the tridiagonal from
    (lambda, w) is the classical Jacobi inverse eigenvalue problem,
    solved here by reorthogonalized Lanczos; the rates then unwind from
    the tridiagonal entries one position at a time.
    """
    lam = np.asarray(p.lam, dtype=float)
    A = np.asarray(p.A, dtype=float)
    if lam.size != N:
        raise ValueError(f"expected {N} components, got {lam.size}")

    k_exit = float(-np.sum(A * lam))
    if N == 1:
        model = models.unbranched_chain(1)
        m = symmetric_inputs(p)
        return _make_solution(model, [k_exit], "chain", m)

    scale = float(np.max(np.abs(lam)))
    if abs(k_exit) <= 1e-12 * scale:
        raise ZeroPivot("exit rate k_N evaluates to zero")
    weights = -A * lam / k_exit
    if np.any(weights <= 0.0):
        raise ZeroPivot("nonpositive spectral weight in the chain data")

    with mp.workdps(60):
        alpha, beta = _lanczos_tridiagonal(lam, weights)
        # Lanczos anchors the weights at coordinate 1; the chain carries
        # the exit at state N, so flip the tridiagonal end for end.
        diag = alpha[::-1]
        off = beta[::-1]

        # diag[n] = -(k^+_{n+1} + k^-_n) for n < N-1 (k^-_0 = 0),
        # off[n]^2 = k^+_{n+1} k^-_{n+1}; peel forward from state 1.
        k_plus = np.zeros(N - 1)
        k_minus = np.zeros(N - 1)
        carry = mp.mpf(0)
        for n in range(N - 1):
            kp = -diag[n] - carry
            if kp <= mp.mpf(1e-14) * scale:
                raise ZeroPivot(f"vanishing forward rate at position {n + 1}")
            km = off[n] ** 2 / kp
            k_plus[n] = float(kp)
            k_minus[n] = float(km)
            carry = km

    model = models.unbranched_chain(N)
    rates = np.concatenate([k_plus, k_minus, [k_exit]])
    m = symmetric_inputs(p)
    return _make_solution(model, rates, "chain", m, polish=False)
