"""Recovery of transition rates from multi-exponential survival parameters.

Three solver paths are provided:

* ``invert_generic``: closed-form solutions of the generic triangular
  branch for each catalogued three-state model (unique for M2, two
  quadratic branches for M4/M8/M9, a one-parameter family for M3).
* ``invert_thomas``: full branch search over the encoded triangular
  decompositions, covering every degenerate stratum.
* ``invert_unbranched``: reversible chains 1 <-> 2 <-> ... <-> N -> N+1 of
  any length, by the Stieltjes three-term recurrence, O(N^2) in 70 digits
  of the standard library's ``decimal`` arithmetic.

The first two also give their candidates unrefined
(``generic_candidates``, ``thomas_candidates``); ``candidates`` takes the
generic branch where it applies and the Thomas search elsewhere, for
many models from one call of ``generic_branches``, and
``make_solutions`` Newton-refines the candidates of one input, whatever
their models, in one batch.  ``invert`` is the one entry that chooses a
solver for any solvable model: the chain recurrence for a chain, and
``candidates`` then ``make_solutions`` for a catalog model.  Every
returned solution carries a forward round-trip residual; that residual,
not the solver algebra, is the acceptance oracle.
"""

from __future__ import annotations

import decimal
from dataclasses import dataclass
from decimal import Decimal

import numpy as np

from . import direct, models, simple_systems
from .direct import PhaseTypeParams, SymmetricMoments
from .errors import (GenericBranchMiss, M3HypersurfaceMiss,
                     NegativeDiscriminant, NoBranchMatches, NoSolution,
                     PhasekitError, WrongArity, ZeroPivot)

_EPS = np.finfo(float).eps
#: Band of the generic-branch inequations, as a fraction of the sum of the
#: absolute values of each polynomial's terms.  It covers the rounding
#: error of evaluating those polynomials in float64, so a quantity outside
#: it is nonzero in exact arithmetic and the generic branch applies.
_ROUNDING_BAND = 64.0 * _EPS
#: Float64 Newton results whose estimated relative error exceeds this are
#: finished in extended precision.
_FLOAT_POLISH_TOL = 1e-10
#: Arithmetic of the extended-precision finish of the polish: ``decimal``
#: at 40 significant digits.
_POLISH = decimal.Context(prec=40)


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


def clearly_positive(k) -> np.ndarray:
    """Whether every rate along the first axis of ``k`` is positive.

    A rate at most ``_ROUNDING_BAND`` times the largest rate of its
    vector is zero to within rounding (lumpable inputs give such rates
    as +-1e-15 noise on an exact zero), so it does not count; neither
    does a nan or an infinite rate.
    """
    k = np.asarray(k, dtype=float)
    return k.min(axis=0) > _ROUNDING_BAND * k.max(axis=0)


def _moment_denominators(target: np.ndarray) -> np.ndarray:
    return np.where(target != 0.0, np.abs(target), 1.0)


def roundtrip_residual(model: models.ModelId, rates: np.ndarray,
                       target: SymmetricMoments) -> float:
    """Max relative deviation of the forward moments from the target."""
    got = np.array(direct.moment_vector(
        model, np.asarray(rates, dtype=float).tolist()), dtype=float)
    want = target.as_vector()
    return float(np.max(np.abs(got - want) / _moment_denominators(want)))


def _inverse(jac: np.ndarray) -> np.ndarray:
    """Inverse of each stacked matrix, nan where one is singular."""
    try:
        return np.linalg.inv(jac)
    except np.linalg.LinAlgError:
        return (np.array([_inverse(mat) for mat in jac]) if jac.ndim > 2
                else np.full_like(jac, np.nan))


def make_solutions(m: SymmetricMoments, candidates) -> list[InverseSolution]:
    """Solutions from the candidates for the input ``m``, each a tuple
    (model, rates, branch, free parameters), all models of the same N,
    refined by :func:`_polish` in one batch."""
    if not candidates:
        return []
    batch, rates, branches, free = zip(*candidates)
    k, res = _polish(batch, np.array(rates, dtype=float).T, m,
                     [not f for f in free])
    return [InverseSolution(*sol, float(e), tuple(f)) for *sol, e, f
            in zip(batch, k.T.copy(), branches, res, free)]


def _polish(batch, k: np.ndarray, m: SymmetricMoments,
            fixed) -> tuple[np.ndarray, np.ndarray]:
    """Newton-refine the rates ``k`` of the models ``batch``, one column
    each, against the moments ``m``, all at once: the chord method of the
    README's numerical conventions, one batched forward call per step.

    Only the columns marked in ``fixed`` that are :func:`clearly_positive`
    at their closed form are refined, as relative steps cannot make the
    others valid, and only those whose float64 result may be off by more
    than ``_FLOAT_POLISH_TOL`` are finished in extended precision.
    Returns the rates and each column's :func:`roundtrip_residual`, which
    the batched forward map gives bit for bit.
    """
    target = m.as_vector()[:, None]
    denom = _moment_denominators(target)

    def resid(cols, x):
        got = direct.moment_vector([batch[c] for c in cols], x)
        return (np.array(got, dtype=float) - target) / denom

    def jacobian(cols):
        # d(moment_i / denom_i) / d(log k_j) from the imaginary part of
        # the (rational) forward map at k_j (1 + i h), all in one batch.
        n, h = k.shape[0], 1e-20
        kc = np.repeat(k[:, cols, None], n, axis=2).astype(complex)
        kc[np.arange(n), :, np.arange(n)] *= complex(1.0, h)
        got = direct.moment_vector([batch[c] for c in np.repeat(cols, n)],
                                   kc.reshape(n, -1))
        jac = np.array([z.imag / h for z in got]).reshape(-1, cols.size, n)
        return (jac / denom[:, :, None]).transpose(1, 0, 2)

    with np.errstate(all="ignore"):
        r = resid(range(len(batch)), k)
        res = np.max(np.abs(r), axis=0)
        cols = np.flatnonzero(clearly_positive(k) & np.asarray(fixed))
        if not cols.size:
            return k, res
        jac = jacobian(cols)
        inv = _inverse(jac)
        r = r[:, cols]
        step = np.zeros_like(r)
        live = np.arange(cols.size)
        for _ in range(8):
            step[:, live] = -(inv[live] @ r[:, live].T[:, :, None])[:, :, 0].T
            trial = k[:, cols[live]] * (1.0 + step[:, live])
            r_trial = resid(cols[live], trial)
            took = np.all(np.isfinite(r_trial), axis=0) & ~(
                np.max(np.abs(r_trial), axis=0)
                >= np.max(np.abs(r[:, live]), axis=0))
            k[:, cols[live[took]]] = trial[:, took]
            r[:, live[took]] = r_trial[:, took]
            live = live[took & (np.max(np.abs(step[:, live]), axis=0)
                                > 4.0 * _EPS)]
            if not live.size:
                break
        res[cols] = np.max(np.abs(r), axis=0)
        last = np.max(np.abs(step), axis=0)
        bound = 4.0 * _EPS * (np.linalg.norm(jac, np.inf, axis=(1, 2))
                              * np.linalg.norm(inv, np.inf, axis=(1, 2)))
        hand = cols[~(np.where(bound > last, bound, last)
                      <= _FLOAT_POLISH_TOL)]
        if not hand.size:
            return k, res
        for c, inv_c in zip(hand, _inverse(jacobian(hand))):
            k[:, c] = _polish_extended(batch[c], k[:, c], target[:, 0],
                                       denom[:, 0], inv_c)
        res[hand] = np.max(np.abs(resid(hand, k[:, hand])), axis=0)
    return k, res


def _polish_extended(model, k, target, denom, inv) -> np.ndarray:
    """Iterative refinement with the residual in extended precision,
    40 significant digits of ``decimal`` arithmetic (``_POLISH``).

    The float64 moments, rates and denominators convert to ``Decimal``
    exactly and are treated as exact.  Each correction is solved with the
    float64 inverse Jacobian ``inv``, which converges linearly as long as
    the Jacobian's condition number stays well below 1/eps.  Falls back
    to ``k`` when the corrections stop shrinking before they fall far
    below float64 resolution.
    """
    with decimal.localcontext(_POLISH):
        want = [Decimal(float(x)) for x in target]
        den = [Decimal(float(x)) for x in denom]
        km = [Decimal(float(x)) for x in k]
        last = np.inf
        for _ in range(12):
            got = direct.moment_vector(model, km)
            r = np.array([float((g - w) / d)
                          for g, w, d in zip(got, want, den)])
            step = -inv @ r
            size = float(np.max(np.abs(step)))
            if not size < last:
                return k
            km = [x * (1 + Decimal(float(s))) for x, s in zip(km, step)]
            if size <= 1e-3 * _EPS:
                return np.array([float(x) for x in km])
            last = size
    return k


def _nonzero(what, value, terms):
    """Inequation ``value != 0``, failed where ``value`` lies within the
    rounding band of its terms, which keeps the test meaningful when the
    moments span many decades."""
    return (GenericBranchMiss, f"{what} != 0", value,
            np.abs(value) <= _ROUNDING_BAND * terms)


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


@np.errstate(divide="ignore", invalid="ignore")
def generic_branches(m: SymmetricMoments,
                     wanted=models.SOLVABLE_N3) -> dict:
    """Closed forms of the generic branches of the models ``wanted``, any
    of M2, M4, M8 and M9, from one evaluation of the values they share.

    ``m.L`` and ``m.S`` hold one input or a batch along their second
    axis.  Returns a dict from each wanted model, in the order given, to
    ``(k, ok, checks)``: the rates k1..k5 of each branch (one for M2, one
    per quadratic root otherwise), shape (5, branches, batch); the mask
    (branches, batch) of the inputs on which every inequation of the
    branch holds, elsewhere the rates may be inf or nan; and the
    inequations in the order :func:`generic_candidates` tests them, as
    (error type, condition, value, failed mask).  A shared value (G,
    S1^3, k2 and k4 of M2 and M4, the quadratic of M4, M8 and M9) is
    evaluated once, and only if a model that uses it is wanted.

    So is each power above the square: numpy takes ``x ** 3`` and ``x **
    4`` through ``pow``, at about 150 ns per element for a negative base
    (S1 < 0 on 88% of the experiment's draws) against about 4 ns for a
    positive one and 0.3 ns for ``x ** 2``.  The products ``S1 * S1 *
    S1`` are cheaper still, but they differ from ``S1 ** 3`` in the last
    bit on about a quarter of the draws, so rates, masks and reports
    would change; a power bound once keeps them bit for bit.
    """
    tags = {model.tag for model in wanted}
    # One input as a batch of one: numpy's scalar powers can differ in the
    # last bit from its array loops, which the experiment's batches take.
    L1, L2, L3, S1, S2 = map(np.atleast_1d, _three_state(m))
    out = {}
    G, G_terms = _family_condition(L1, L2, L3, S1, S2)
    s1_3 = S1 ** 3
    k5 = -S1
    if tags & {"M2", "M4"}:
        s1_cubed = s1_3 - S1 * S2
        shared_24 = [_nonzero("S1^3 - S1 S2", s1_cubed,
                              np.abs(S1) ** 3 + np.abs(S1 * S2)),
                     _nonzero("S2", S2, S1 ** 2 + np.abs(L2))]
        k2_24 = G / s1_cubed
        k4_24 = (S1 ** 2 - S2) / S1
    if "M2" in tags:
        s1_4, s2_3 = S1 ** 4, S2 ** 3
        num = (L1 ** 2 * s1_3 * S2 + L2 ** 2 * s1_3 + S1 * s2_3
               + L3 ** 2 * S1
               + (-2.0 * S1 ** 2 * S2 ** 2
                  + (-s1_4 - S1 ** 2 * S2) * L2
                  + (s1_3 + S1 * S2) * L3) * L1
               + (s1_3 * S2 - 2.0 * L3 * S1 ** 2 + S1 * S2 ** 2) * L2
               + (s1_4 - 3.0 * S1 ** 2 * S2) * L3)
        den = (-S1 ** 2 * S2 ** 2 + s2_3
               + (s1_3 * S2 - S1 * S2 ** 2) * L1
               + (-s1_4 + S1 ** 2 * S2) * L2
               + (s1_3 - S1 * S2) * L3)
        den_terms = (S1 ** 2 * S2 ** 2 + np.abs(S2) ** 3
                     + np.abs(s1_3 * S2 * L1)
                     + np.abs(S1 * S2 ** 2 * L1)
                     + s1_4 * np.abs(L2) + S1 ** 2 * np.abs(S2 * L2)
                     + np.abs(s1_3 * L3) + np.abs(S1 * S2 * L3))
        out["M2"] = _branches(
            (-num / den, k2_24, (S1 ** 2 - S2) * L3 / G, k4_24, k5),
            [_nonzero("G", G, G_terms), *shared_24,
             _nonzero("the k1 pivot", den, den_terms)], [[]])
    if tags - {"M2"}:
        l3_nonzero = _nonzero("L3", L3, np.abs(L1 * L2))
        disc = (L1 * S1) ** 2 - 2.0 * L1 * S1 * S2 - 4.0 * L3 * S1 + S2 ** 2
        disc_terms = ((L1 * S1) ** 2 + 2.0 * np.abs(L1 * S1 * S2)
                      + 4.0 * np.abs(L3 * S1) + S2 ** 2)
        disc_checks = [
            (GenericBranchMiss, "a discriminant outside the degenerate band",
             disc, np.abs(disc) <= _ROUNDING_BAND * disc_terms),
            (NegativeDiscriminant, "a real quadratic branch, discriminant > 0",
             disc, disc < 0.0)]
        root = np.sqrt(disc)
        # Both roots at once: k3 of M4, and k2 of M8 and M9.
        q = np.stack([-(L1 * S1 - S2 + root) / (2.0 * S1),
                      -(L1 * S1 - S2 - root) / (2.0 * S1)])
    if "M4" in tags:
        k1 = (-L1 * S1 ** 2 + L2 * S1 + S1 * S2
              - (S1 ** 2 - S2) * q - L3) / (S1 ** 2 - S2)
        out["M4"] = _branches((k1, k2_24, q, k4_24, k5), [
            l3_nonzero, *shared_24, _nonzero("S1^2 - S2", S1 ** 2 - S2,
                                             S1 ** 2 + np.abs(S2)),
            *disc_checks])
    if tags & {"M8", "M9"}:
        checks_89 = [l3_nonzero, _nonzero("S1", S1, np.abs(L1)), *disc_checks]
        k3_num = -(-s1_3 * q + L1 * S1 * S2 - L2 * S1 ** 2
                   + S1 * S2 * q + L3 * S1 - S2 ** 2)
    if "M8" in tags:
        out["M8"] = _branches((L3 / (S1 * q), q, k3_num / (q * S1 ** 2),
                               G / (q * S1 ** 2), k5), checks_89)
    if "M9" in tags:
        pivot = 2.0 * q * S1 + L1 * S1 - S2
        terms = 2.0 * np.abs(q * S1) + np.abs(L1 * S1) + np.abs(S2)
        k1 = -(q * S1 + L1 * S1 - S2) / S1
        k4 = (L1 * S1 ** 2 + S1 ** 2 * q - L2 * S1 - S1 * S2
              - S2 * q + L3) / pivot
        out["M9"] = _branches(
            (k1, q, k3_num / (S1 * pivot), k4, k5), checks_89,
            [[_nonzero(f"the k4 pivot of root {j}", pivot[j], terms[j])]
             for j in range(2)])
    return {model: out[model.tag] for model in wanted}


def _branches(rates, checks, own=([], [])):
    """:func:`generic_branches`' ``(k, ok, checks)`` of one model from its
    rates, the inequations of all its branches and of each (``own``)."""
    k = np.stack(np.broadcast_arrays(*rates))
    return (k.reshape(5, len(own), -1),
            ~np.array([np.logical_or.reduce([f for *_, f in checks + o])
                       for o in own]),
            checks + [check for o in own for check in o])


def invert_generic(model: models.ModelId, m: SymmetricMoments,
                   k3_grid=simple_systems.FREE_GRID,
                   hypersurface_tol: float = simple_systems.TOL
                   ) -> list[InverseSolution]:
    """Closed-form solutions of the generic branch for one catalog model.

    Raises GenericBranchMiss when an inequation of the generic branch
    fails, that is when the quantity lies within the float64 rounding
    error of zero, 64 eps times the sum of its absolute terms
    (:func:`candidates` then falls back to the Thomas search), and
    NegativeDiscriminant when the quadratic branch turns complex.  Both
    are :class:`NoSolution` errors.  The M3 family exists only
    on the solvability hypersurface G = 0, tested as |G| <=
    ``hypersurface_tol`` times the sum of the absolute values of G's
    terms; a looser value admits inputs estimated from finite data.  Its
    free rate k3 takes each value of ``k3_grid``.  Both default to the
    Thomas search's band and grid: the family is its system 1 of M3.
    """
    return make_solutions(m, generic_candidates(model, m, k3_grid,
                                                hypersurface_tol))


def generic_candidates(model: models.ModelId, m: SymmetricMoments,
                       k3_grid=simple_systems.FREE_GRID,
                       hypersurface_tol: float = simple_systems.TOL,
                       closed=None) -> list[tuple]:
    """The solutions of :func:`invert_generic`, unpolished; ``closed``,
    when given, holds this model's :func:`generic_branches` of ``m``."""
    if model != models.M3:
        k, _, checks = (closed or generic_branches(m, (model,)))[model]
        _raise_first_failure(checks)
        return [(model, k[:, j, 0], "generic" if k.shape[1] == 1
                 else f"generic/root{j}", ()) for j in range(k.shape[1])]

    L1, L2, L3, S1, S2 = _three_state(m)
    G, G_terms = _family_condition(L1, L2, L3, S1, S2)
    hs_band = hypersurface_tol * G_terms
    if abs(G) > hs_band:
        raise M3HypersurfaceMiss(
            f"family condition |{G:.3e}| > {hs_band:.3e}; moments are "
            "off the solvability hypersurface")
    _raise_first_failure([_nonzero("S1", S1, abs(L1)),
                          _nonzero("S2", S2, S1 ** 2 + abs(L2))])
    k4 = (S1 ** 2 - S2) / S1
    out = []
    for k3 in k3_grid:
        k2 = L3 / (k3 * S1)
        k1 = -(k3 ** 2 * S1 * S2 + L3 * S2
               + (L2 * S1 ** 2 - L3 * S1) * k3) / (k3 * S1 * S2)
        out.append((model, (k1, k2, k3, k4, -S1), "family", (("k3", k3),)))
    return out


def invert_thomas(model: models.ModelId,
                  m: SymmetricMoments) -> list[InverseSolution]:
    """Full branch search over the encoded triangular decomposition.

    Handles every stratum, including the degenerate ones the generic
    formulas reject.  Raises NoBranchMatches when no stratum accepts
    the input within tolerance, or when none that does has a real
    solution.
    """
    return make_solutions(m, thomas_candidates(model, m))


def thomas_candidates(model: models.ModelId,
                      m: SymmetricMoments) -> list[tuple]:
    """The solutions of :func:`invert_thomas`, unpolished.  Raises
    NoBranchMatches when no system accepts the input, or when the systems
    that do have no real solution."""
    branch_sols = simple_systems.solve_for_moments(
        simple_systems.load_systems(model.tag), m.as_vector())
    if not branch_sols:
        raise NoBranchMatches(
            f"the simple systems of {model} that accept the input have no "
            "real solution")
    return [(model, bs.rate_vector(),
             f"S{bs.system_index}/" + "".join(map(str, bs.branch)),
             tuple(sorted(bs.free_values.items()))) for bs in branch_sols]


def candidates(m: SymmetricMoments, wanted=models.SOLVABLE_N3,
               k3_grid=simple_systems.FREE_GRID,
               hypersurface_tol: float = simple_systems.TOL):
    """The unpolished solutions of the models ``wanted``: the generic
    branch's (one :func:`generic_branches` call for all; the M3 family
    over ``k3_grid`` within ``hypersurface_tol``), else the Thomas
    search's; and a dict of the Thomas NoSolution, "<generic error>;
    <Thomas error>", of each model that neither solves."""
    generic = [model for model in wanted if model != models.M3]
    closed = generic_branches(m, generic) if generic else {}
    found, missed = [], {}
    for model in wanted:
        try:
            found += generic_candidates(model, m, k3_grid, hypersurface_tol,
                                        closed)
        except NoSolution as generic_miss:
            try:
                found += thomas_candidates(model, m)
            except NoSolution as exc:
                exc.args = (f"{generic_miss}; {exc}",)
                missed[model] = exc
    return found, missed


def invert(model: models.ModelId, data, k3_grid=simple_systems.FREE_GRID,
           hypersurface_tol=simple_systems.TOL) -> list[InverseSolution]:
    """The polished solutions of any solvable model for ``data``, its
    (lambda, A) or, for a catalog model, its moments.  A chain takes
    :func:`invert_unbranched`, a catalog model :func:`candidates` (M3 with
    ``k3_grid`` and ``hypersurface_tol``, as :func:`invert_generic`), and
    a model that neither search solves raises that NoSolution."""
    if model.tag == "chain":
        if not isinstance(data, PhaseTypeParams):
            raise PhasekitError(f"{model} inverts from (lambda, A) only")
        return [invert_unbranched(model.n, data)]
    m = data if isinstance(data, SymmetricMoments) else direct.moments(data)
    found, missed = candidates(m, (model,), k3_grid, hypersurface_tol)
    if missed:
        raise missed[model]
    return make_solutions(m, found)


def _stieltjes_tridiagonal(lam: np.ndarray,
                           weights: np.ndarray) -> tuple[list, list]:
    """Jacobi matrix with spectrum ``lam`` and first-coordinate spectral
    weights ``weights``, as (diagonal, squared off-diagonal) lists of
    ``Decimal``.

    The Stieltjes procedure: the monic orthogonal polynomials p_m of the
    discrete measure sum_i w_i delta(x - lam_i), held by their values at
    the nodes, follow p_{m+1} = (x - alpha_m) p_m - beta2_{m-1} p_{m-1}
    with alpha_m = <x p_m, p_m> / <p_m, p_m> and
    beta2_m = <p_{m+1}, p_{m+1}> / <p_m, p_m>: O(N^2), no square roots.
    Runs in 70 significant digits (``direct._EXTENDED``); the float
    inputs convert to ``Decimal`` exactly.
    """
    n = lam.size
    with decimal.localcontext(direct._EXTENDED):
        x = [Decimal(v) for v in lam.tolist()]
        w = [Decimal(v) for v in weights.tolist()]
        floor = (Decimal("1e-50") * max(abs(v) for v in x)) ** 2
        p_prev, p = [Decimal(0)] * n, [Decimal(1)] * n
        norm, alpha, beta2 = sum(w), [], []
        for m in range(n):
            alpha.append(sum(wi * xi * pi * pi
                             for wi, xi, pi in zip(w, x, p)) / norm)
            if m == n - 1:
                break
            b2 = beta2[-1] if beta2 else 0
            p_prev, p = p, [(xi - alpha[m]) * pi - b2 * qi
                            for xi, pi, qi in zip(x, p, p_prev)]
            next_norm = sum(wi * pi * pi for wi, pi in zip(w, p))
            beta2.append(next_norm / norm)
            if beta2[m] <= floor:
                raise ZeroPivot(
                    f"spectral data degenerates at Stieltjes step {m}")
            norm = next_norm
    return alpha, beta2


def invert_unbranched(N: int, p: PhaseTypeParams) -> InverseSolution:
    """Recover chain rates (k_1^+..k_{N-1}^+, k_1^-..k_{N-1}^-, k_N).

    The reduced rate matrix of an unbranched chain is similar to a
    symmetric tridiagonal matrix, and the density weights
    w_i = -A_i lambda_i / k_N are the squared last eigenvector
    components of that matrix.  Reconstructing the tridiagonal from
    (lambda, w) is the classical Jacobi inverse eigenvalue problem,
    solved here by the Stieltjes three-term recurrence in O(N^2); the
    rates then unwind from the tridiagonal entries one position at a
    time.  Both run in 70 digits of ``decimal`` arithmetic
    (``direct._EXTENDED``): the weights of long chains fall below eps^2
    yet carry rate information, and the peel's -diag - carry cancels.
    """
    lam, A = p.lam, p.A  # float arrays, as PhaseTypeParams keeps them
    if lam.size != N:
        raise ValueError(f"expected {N} components, got {lam.size}")

    k_exit = float(-np.sum(A * lam))
    scale = float(np.max(np.abs(lam)))
    if abs(k_exit) <= 1e-12 * scale:
        raise ZeroPivot("exit rate k_N evaluates to zero")
    weights = -A * lam / k_exit
    if np.any(weights <= 0.0):
        raise ZeroPivot("nonpositive spectral weight in the chain data")

    alpha, beta2 = _stieltjes_tridiagonal(lam, weights)
    with decimal.localcontext(direct._EXTENDED):
        # The recurrence anchors the weights at coordinate 1; the chain
        # carries the exit at state N, so flip the tridiagonal end for end.
        diag = alpha[::-1]
        off2 = beta2[::-1]

        # diag[n] = -(k^+_{n+1} + k^-_n) for n < N-1 (k^-_0 = 0),
        # off2[n] = k^+_{n+1} k^-_{n+1}; peel forward from state 1.
        k_plus = np.zeros(N - 1)
        k_minus = np.zeros(N - 1)
        carry = Decimal(0)
        least = Decimal(1e-14) * Decimal(scale)
        for n in range(N - 1):
            kp = -diag[n] - carry
            if kp <= least:
                raise ZeroPivot(f"vanishing forward rate at position {n + 1}")
            km = off2[n] / kp
            k_plus[n] = float(kp)
            k_minus[n] = float(km)
            carry = km

    model = models.unbranched_chain(N)
    rates = np.concatenate([k_plus, k_minus, [k_exit]])
    return InverseSolution(model, rates, "chain", roundtrip_residual(
        model, rates, direct.moments(p)))
