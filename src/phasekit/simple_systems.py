"""Triangular branch systems for the catalogued three-state models.

Inverting the survival-parameter map for a catalogued model amounts to
solving a polynomial system in the rates k1..k5 and the symmetric inputs
L1..L3, S1..S2.  For each model that system has been decomposed into a
disjoint list of simple triangular systems: every input vector satisfies
the equations and inequations of exactly one of them, and within that
system the rate equations can be solved one leader at a time (each is
linear or quadratic in its leader).

The systems ship as plain-text data files with pinned checksums.  This
module loads them once, splitting each system's relations by role,
decides which system an input lies on, and enumerates the numeric
solutions of the matched system.  Every relation is weighted-homogeneous
(weight 1 per rate, j for L_j and S_j), so a relation with terms t_j is
zero when |sum t_j| <= TOL * sum |t_j|, whatever the unit of time.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import json
from dataclasses import dataclass
from importlib import resources

import numpy as np

from .errors import NoBranchMatches, ZeroPivot

VAR_NAMES = ("k1", "k2", "k3", "k4", "k5", "L1", "L2", "L3", "S1", "S2")
RATE_VARS = VAR_NAMES[:5]

#: Band of every zero test, relative to the terms tested.
TOL = 1e-9
#: Values tried for each free rate.
FREE_GRID = (0.1, 1.0, 10.0)


@dataclass(frozen=True)
class Relation:
    """One polynomial relation, either expr = 0 ('EQ') or expr != 0 ('NEQ').

    Terms are stored as integer coefficient and exponent rows over the
    fixed variable order k1..k5, L1..L3, S1..S2.
    """

    kind: str
    leader: str
    coeffs: np.ndarray
    expons: np.ndarray

    def evaluate(self, values: np.ndarray) -> tuple[float, float]:
        """Return (value, scale) at a full assignment of the 10 variables.

        The scale is the sum of absolute term magnitudes, used to make
        the zero test relative.
        """
        terms = self.coeffs * (values ** self.expons).prod(axis=1)
        return float(terms.sum()), float(np.abs(terms).sum())

    def leader_poly(self, values: np.ndarray
                    ) -> tuple[np.ndarray, np.ndarray]:
        """Coefficients [c0, c1, c2] of the relation as a polynomial in
        its leader, with all other variables bound to ``values``, and the
        sum of the absolute values of the terms of each."""
        idx = VAR_NAMES.index(self.leader)
        degs = self.expons[:, idx]
        masked = self.expons.copy()
        masked[:, idx] = 0
        terms = self.coeffs * (values ** masked).prod(axis=1)
        return np.bincount(degs, terms), np.bincount(degs, np.abs(terms))


@dataclass(frozen=True)
class SimpleSystem:
    """One simple system, its relations split once by role: the checks
    in the moments alone, which decide whether an input lies on it; the
    equations with a rate leader, lowest-ranked leader first; the
    relations that involve a rate, tested on each candidate; and the
    rates that lead no equation."""

    model: str
    index: int
    relations: tuple[Relation, ...]
    moment_checks: tuple[Relation, ...]
    rate_equations: tuple[Relation, ...]
    rate_relations: tuple[Relation, ...]
    free_rates: tuple[str, ...]


@dataclass(frozen=True)
class ModelSystems:
    model: str
    ranking: tuple[str, ...]
    systems: tuple[SimpleSystem, ...]


def _parse_relation(line: str) -> Relation:
    kind, leader, terms = line.split(";")
    rows = [[int(x) for x in t.split()] for t in terms.split("|")]
    arr = np.array(rows, dtype=np.int64)
    coeffs = arr[:, 0].astype(float)
    # load_systems caches the relations: every caller gets these arrays
    coeffs.flags.writeable = arr.flags.writeable = False
    return Relation(kind=kind, leader=leader, coeffs=coeffs,
                    expons=arr[:, 1:])


def _split(model_tag: str, index: int, relations: list[Relation],
           ranking: tuple[str, ...]) -> SimpleSystem:
    has_rate = [bool(r.expons[:, :5].any()) for r in relations]
    eqs = [r for r in relations if r.kind == "EQ" and r.leader in RATE_VARS]
    led = {r.leader for r in relations if r.kind == "EQ"}
    return SimpleSystem(
        model_tag, index, tuple(relations),
        moment_checks=tuple(r for r, h in zip(relations, has_rate) if not h),
        rate_equations=tuple(sorted(eqs,
                                    key=lambda r: -ranking.index(r.leader))),
        rate_relations=tuple(r for r, h in zip(relations, has_rate) if h),
        free_rates=tuple(v for v in RATE_VARS if v not in led))


@functools.lru_cache(maxsize=None)
def load_systems(model_tag: str) -> ModelSystems:
    """Load and checksum-verify the triangular systems for one model,
    once per process."""
    pkg = resources.files("phasekit") / "data"
    fname = f"{model_tag}.systems"
    payload = (pkg / fname).read_text()
    expected = json.loads((pkg / "checksums.json").read_text())[fname]
    actual = hashlib.sha256(payload.encode()).hexdigest()
    if actual != expected:
        raise RuntimeError(f"checksum mismatch for {fname}")

    lines = payload.strip().splitlines()
    assert lines[0] == f"MODEL {model_tag}"
    ranking = tuple(lines[1].split()[1:])
    assert tuple(lines[2].split()[1:]) == VAR_NAMES

    systems = []
    current: list[Relation] = []
    index = 0
    for line in lines[3:]:
        if line.startswith("SYSTEM"):
            if current:
                systems.append(_split(model_tag, index, current, ranking))
            index = int(line.split()[1])
            current = []
        else:
            current.append(_parse_relation(line))
    systems.append(_split(model_tag, index, current, ranking))
    return ModelSystems(model_tag, ranking, tuple(systems))


def _miss(rel: Relation, values: np.ndarray, tol: float) -> float:
    """|value| less the band tol * sum |terms| for an equation, the band
    less |value| for an inequation: ``rel`` fails where this is > 0."""
    val, scale = rel.evaluate(values)
    band = tol * scale
    return abs(val) - band if rel.kind == "EQ" else band - abs(val)


def _relation_holds(rel: Relation, values: np.ndarray, tol: float) -> bool:
    """An equation holds within its band, an inequation strictly outside."""
    miss = _miss(rel, values, tol)
    return miss <= 0.0 if rel.kind == "EQ" else miss < 0.0


def _moment_values(moments) -> np.ndarray:
    values = np.zeros(10)
    values[5:] = np.asarray(moments, dtype=float)
    return values


def match_systems(model_systems: ModelSystems, moments) -> list[SimpleSystem]:
    """Return the systems whose moment-only relations accept the input.

    ``moments`` is the vector (L1, L2, L3, S1, S2).  By construction of
    the decomposition exactly one system should match.
    """
    values = _moment_values(moments)
    return [sys_ for sys_ in model_systems.systems
            if all(_relation_holds(r, values, TOL)
                   for r in sys_.moment_checks)]


def match_diagnostics(model_systems: ModelSystems, moments) -> dict:
    """Worst relation violation per system, for no-match error reports."""
    values = _moment_values(moments)
    return {sys_.index: max([0.0, *(_miss(r, values, TOL)
                                    for r in sys_.moment_checks)])
            for sys_ in model_systems.systems}


@dataclass(frozen=True)
class BranchSolution:
    """One numeric rate assignment from a simple system."""

    system_index: int
    rates: dict[str, float]
    free_values: dict[str, float]
    branch: tuple[int, ...]

    def rate_vector(self) -> np.ndarray:
        return np.array([self.rates[v] for v in RATE_VARS])


def _solve_leader(rel: Relation, values: np.ndarray) -> list[float]:
    # Each coefficient, and the discriminant, is tested against its own
    # term scale: the coefficients have different weights.
    poly, scale = rel.leader_poly(values)
    if poly.size == 3 and abs(poly[2]) > TOL * scale[2]:
        disc = poly[1] ** 2 - 4.0 * poly[2] * poly[0]
        if disc < 0.0:
            if disc > -TOL * (scale[1] ** 2 + 4.0 * scale[2] * scale[0]):
                disc = 0.0
            else:
                return []
        root = np.sqrt(disc)
        return [(-poly[1] + root) / (2.0 * poly[2]),
                (-poly[1] - root) / (2.0 * poly[2])]
    if abs(poly[1]) <= TOL * scale[1]:
        if abs(poly[0]) <= TOL * scale[0]:
            # relation degenerates to 0 = 0; leader is unconstrained here
            return [np.nan]
        raise ZeroPivot(f"vanishing pivot for {rel.leader}")
    return [-poly[0] / poly[1]]


def solve_system(system: SimpleSystem, moments) -> list[BranchSolution]:
    """Enumerate the numeric rate solutions of one simple system.

    The input must already satisfy the system's moment checks
    (:func:`match_systems`).  Rate equations are solved in ascending
    leader rank, branching at quadratic leaders.  Rates without an
    equation are free; each value in ``FREE_GRID`` is tried for them and
    solutions violating any relation that involves a rate are discarded.
    Equations whose pivot vanishes leave their leader free as well (it is
    then filled from the grid).
    """
    free = system.free_rates
    solutions = []

    for free_vals in itertools.product(FREE_GRID, repeat=len(free)):
        base = _moment_values(moments)
        for name, val in zip(free, free_vals):
            base[VAR_NAMES.index(name)] = val

        partials: list[tuple[np.ndarray, tuple[int, ...]]] = [(base, ())]
        for rel in system.rate_equations:
            lead = VAR_NAMES.index(rel.leader)
            nxt = []
            for values, branch in partials:
                for j, root in enumerate(_solve_leader(rel, values)):
                    # an unconstrained leader is sampled like a free rate
                    for g in (FREE_GRID if np.isnan(root) else (root,)):
                        values2 = values.copy()
                        values2[lead] = g
                        nxt.append((values2, branch + (j,)))
            partials = nxt

        for values, branch in partials:
            vec = values[:5]
            # an assignment reached through several grid choices is kept once
            if all(_relation_holds(r, values, TOL)
                   for r in system.rate_relations) and not any(
                    np.allclose(vec, u.rate_vector(), rtol=1e-12, atol=1e-12)
                    for u in solutions):
                solutions.append(BranchSolution(
                    system.index, dict(zip(RATE_VARS, map(float, vec))),
                    dict(zip(free, map(float, free_vals))), branch))
    return solutions


def solve_for_moments(model_systems: ModelSystems,
                      moments) -> list[BranchSolution]:
    """Match the input to its simple system and solve it.

    Raises NoBranchMatches if no system accepts the input, which for a
    consistent decomposition only happens for inputs outside the image
    of the forward map or for tolerance failures.
    """
    matched = match_systems(model_systems, moments)
    if not matched:
        raise NoBranchMatches(
            f"no simple system of {model_systems.model} accepts the input",
            diagnostics={
                "model": model_systems.model,
                "moments": list(map(float, moments)),
                "worst_violation_per_system":
                    match_diagnostics(model_systems, moments),
            })
    return [sol for sys_ in matched for sol in solve_system(sys_, moments)]
