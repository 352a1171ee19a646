"""Model catalog: transition graphs, generators, and structural validation.

The catalog contains the five three-state models M2, M3, M4, M8, M9 and the
reversible unbranched chain of arbitrary length.  States are numbered
1..N internally as 0..N-1; the observed state N+1 is index N.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import PhasekitError, WrongArity

# Arc lists for the N=3 catalog: (source, target, rate index), all 1-based.
# The exit arc N -> N+1 is always last.
CATALOG_ARCS = {
    "M2": [(1, 2, 1), (2, 1, 3), (1, 3, 2), (3, 1, 4), (3, 4, 5)],
    "M3": [(1, 2, 1), (2, 1, 3), (1, 3, 2), (3, 2, 4), (3, 4, 5)],
    "M4": [(1, 2, 1), (2, 3, 3), (1, 3, 2), (3, 1, 4), (3, 4, 5)],
    "M8": [(1, 2, 1), (2, 3, 2), (3, 1, 3), (3, 2, 4), (3, 4, 5)],
    "M9": [(1, 3, 1), (2, 3, 2), (3, 1, 3), (3, 2, 4), (3, 4, 5)],
}

@dataclass(frozen=True)
class ModelId:
    """Identifier of a catalogued model.

    ``tag`` is one of "M2", "M3", "M4", "M8", "M9", or "chain" with
    ``n`` giving the number of hidden states (always 3 for the catalog).
    """

    tag: str
    n: int = 3

    def __post_init__(self):
        if self.tag == "chain":
            if self.n < 1:
                raise ValueError("chain length must be >= 1")
        elif self.tag not in CATALOG_ARCS:
            raise ValueError(f"unknown model tag {self.tag!r}")
        elif self.n != 3:
            raise ValueError(f"{self.tag} has exactly 3 hidden states")

    @property
    def n_rates(self) -> int:
        return 2 * self.n - 1

    def __str__(self) -> str:
        return self.tag if self.tag != "chain" else f"chain{self.n}"


M2 = ModelId("M2")
M3 = ModelId("M3")
M4 = ModelId("M4")
M8 = ModelId("M8")
M9 = ModelId("M9")
SOLVABLE_N3 = (M2, M4, M8, M9)


def unbranched_chain(n: int) -> ModelId:
    """Reversible nearest-neighbour chain with n hidden states and one exit."""
    return ModelId("chain", n)


def model_from_string(text: str) -> ModelId:
    text = text.strip()
    if text in CATALOG_ARCS:
        return ModelId(text)
    if text.startswith("chain"):
        return unbranched_chain(int(text[len("chain"):]))
    raise ValueError(f"cannot parse model id {text!r}")


def arc_list(model: ModelId) -> list[tuple[int, int, int]]:
    """(source, target, rate index) triples, 1-based, exit arc last.

    Chain rates are laid out as (k_1+ .. k_{N-1}+, k_1- .. k_{N-1}-, k_N).
    """
    if model.tag != "chain":
        return list(CATALOG_ARCS[model.tag])
    n = model.n
    arcs = [(i, i + 1, i) for i in range(1, n)]
    arcs += [(i + 1, i, n - 1 + i) for i in range(1, n)]
    arcs.append((n, n + 1, 2 * n - 1))
    return arcs


@functools.lru_cache(maxsize=256)
def arc_layout(batch: tuple) -> tuple[int, tuple, np.ndarray]:
    """N, the arcs (i, j) of any model of ``batch``, 0-based, and for each
    arc the index of its rate in every column, or one past the last rate
    (a zero row of the batch) where the column's model lacks the arc.
    Each model has at most one arc per pair of states."""
    if not batch or any(model.n != batch[0].n for model in batch):
        raise PhasekitError("a batch needs one or more models of one N")
    rate_of = {model: {(src - 1, dst - 1): idx - 1
                       for src, dst, idx in arc_list(model)}
               for model in batch}
    n = batch[0].n
    arcs = tuple(sorted(set().union(*rate_of.values())))
    index = np.array([[rate_of[model].get(arc, model.n_rates)
                       for model in batch] for arc in arcs])
    index.flags.writeable = False  # cached: every caller gets this array
    return n, arcs, index


@dataclass(frozen=True)
class Generator:
    """A model and its rates.

    The CTMC runs on the hidden states 1..N and the observed state N+1,
    which is absorbing in ``Q``; each event returns it to state N at once.
    ``Q``, the full (N+1) x (N+1) rate matrix, and ``Qtilde``, the
    transposed hidden-state block that drives the hidden-state
    probabilities, are built from the arc list each time they are read.
    """

    model: ModelId
    rates: np.ndarray

    @property
    def N(self) -> int:
        return self.model.n

    @property
    def exit_rate(self) -> float:
        """Rate of the exit arc N -> N+1 (the last rate in the layout)."""
        return float(self.rates[-1])

    @property
    def has_nonpositive_rate(self) -> bool:
        return bool(np.any(self.rates <= 0.0))

    @property
    def Q(self) -> np.ndarray:
        n, arcs, index = arc_layout((self.model,))
        Q = np.zeros((n + 1, n + 1))
        Q[tuple(np.array(arcs).T)] = self.rates[index[:, 0]]
        Q[range(n), range(n)] = -Q[:n].sum(axis=1)
        return Q

    @property
    def Qtilde(self) -> np.ndarray:
        return self.Q[:self.N, :self.N].T.copy()


def build_generator(model: ModelId, rates) -> Generator:
    """The generator of ``model`` at ``rates``, one per arc of its arc
    list.  Raises WrongArity unless there is one rate per arc.

    Nonpositive rates are accepted (inverse-solver outputs round-trip
    through here) but flagged via ``has_nonpositive_rate``.
    """
    rates = np.asarray(rates, dtype=float)
    if rates.shape != (model.n_rates,):
        raise WrongArity(
            f"{model} expects {model.n_rates} rates, got {rates.shape}")
    return Generator(model, rates)


@dataclass
class ValidationReport:
    strongly_connected: bool
    messages: list[str]

    @property
    def ok(self) -> bool:
        return self.strongly_connected


def _reachable(pairs: list[tuple[int, int]], start: int) -> set[int]:
    """States reachable from ``start`` along the arcs (i, j) of ``pairs``."""
    seen, grown = set(), {start}
    while grown != seen:
        seen = grown
        grown = seen | {j for i, j in pairs if i in seen}
    return seen


def validate(gen: Generator) -> ValidationReport:
    """Check that the rates leave the transition graph strongly connected.

    The graph on states 1..N+1 has the arcs whose rates are nonzero and
    the instantaneous return arc N+1 -> N.  Every arc list exits from
    state N only and nothing leaves the observed state, so strong
    connectivity is the one structural condition that rates can break.
    """
    n = gen.N
    pairs = [(src - 1, dst - 1) for src, dst, idx in arc_list(gen.model)
             if gen.rates[idx - 1] != 0.0]
    pairs.append((n, n - 1))
    strong = (len(_reachable(pairs, 0)) == n + 1
              and len(_reachable([(j, i) for i, j in pairs], 0)) == n + 1)
    msgs = [] if strong else ["transition graph not strongly connected"]
    return ValidationReport(strong, msgs)
