"""Model catalog: transition graphs, generators, and structural validation.

The catalog contains the five three-state models M2, M3, M4, M8, M9 and the
reversible unbranched chain of arbitrary length.  States are numbered
1..N internally as 0..N-1; the observed state N+1 is index N.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import WrongArity

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


@dataclass(frozen=True)
class Generator:
    """CTMC generator with absorbing observed state.

    Q is the full (N+1) x (N+1) rate matrix; Qtilde the transposed minor
    driving the hidden-state probabilities.  The return state is stored
    1-based, as in the model definitions.
    """

    model: ModelId
    rates: np.ndarray
    Q: np.ndarray
    Qtilde: np.ndarray
    N: int
    return_state: int
    has_nonpositive_rate: bool

    @property
    def exit_rate(self) -> float:
        """Rate of the exit arc N -> N+1 (the last rate in the layout)."""
        return float(self.rates[-1])


def build_generator(model: ModelId, rates) -> Generator:
    """Assemble Q and Qtilde from the model's arc list.

    Nonpositive rates are accepted (inverse-solver outputs round-trip
    through here) but flagged via ``has_nonpositive_rate``.
    """
    rates = np.asarray(rates, dtype=float)
    if rates.shape != (model.n_rates,):
        raise WrongArity(
            f"{model} expects {model.n_rates} rates, got {rates.shape}")
    n = model.n
    Q = np.zeros((n + 1, n + 1))
    for src, dst, idx in arc_list(model):
        Q[src - 1, dst - 1] += rates[idx - 1]
    for i in range(n):
        Q[i, i] = -np.sum(Q[i, :i]) - np.sum(Q[i, i + 1:])
    Qtilde = Q[:n, :n].T.copy()
    return Generator(
        model=model,
        rates=rates,
        Q=Q,
        Qtilde=Qtilde,
        N=n,
        return_state=n,
        has_nonpositive_rate=bool(np.any(rates <= 0.0)),
    )


@dataclass
class ValidationReport:
    c1_ok: bool
    c2_ok: bool
    strongly_connected: bool
    s_equals_N: bool
    messages: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return (self.c1_ok and self.c2_ok and self.strongly_connected
                and self.s_equals_N)


def _reachable(adj: list[list[int]], start: int) -> set[int]:
    seen = {start}
    stack = [start]
    while stack:
        v = stack.pop()
        for w in adj[v]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return seen


def validate(gen: Generator) -> ValidationReport:
    """Check the structural conditions required of an invertible model.

    C1: the observed state is reachable only from state N.  C2: there is a
    single instantaneous return arc out of the observed state (absorbing
    encoding plus a unique return state).  Strong connectivity is evaluated
    on states 1..N+1 including the return arc.
    """
    n = gen.N
    msgs = []
    c1 = all(gen.Q[i, n] == 0.0 for i in range(n - 1))
    if not c1:
        msgs.append("observed state reachable from a state other than N")
    c2 = bool(np.all(gen.Q[n, :] == 0.0)) and 1 <= gen.return_state <= n
    if not c2:
        msgs.append("observed-state row not absorbing or bad return state")

    adj: list[list[int]] = [[] for _ in range(n + 1)]
    for i in range(n):
        for j in range(n + 1):
            if i != j and gen.Q[i, j] != 0.0:
                adj[i].append(j)
    adj[n].append(gen.return_state - 1)  # instantaneous return
    forward = _reachable(adj, 0)
    radj: list[list[int]] = [[] for _ in range(n + 1)]
    for v, ws in enumerate(adj):
        for w in ws:
            radj[w].append(v)
    backward = _reachable(radj, 0)
    strong = len(forward) == n + 1 and len(backward) == n + 1
    if not strong:
        msgs.append("transition graph not strongly connected")
    s_is_n = gen.return_state == n
    if not s_is_n:
        msgs.append("return state differs from N")
    return ValidationReport(c1, c2, strong, s_is_n, msgs)

