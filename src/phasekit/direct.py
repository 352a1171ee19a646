"""Direct problem: spectra, survival parameters, and symmetric moments.

The survival function of the first hitting time of the observed state is a
signed mixture of exponentials S(t) = sum_i A_i exp(lambda_i t).  This
module computes (lambda, A) from a generator and the permutation-invariant
reparameterization (L, S) used as input by the inverse solvers.
"""

from __future__ import annotations

import decimal
import functools
import math
from dataclasses import dataclass
from decimal import Decimal

import numpy as np

from . import models
from .errors import DegenerateSpectrum, NonErgodic, SingularSteadyState
from .models import Generator

#: Relative eigenvalue separation below which the spectrum is treated as
#: degenerate, and relative imaginary-part threshold for realness.
TOL_SEP = 1e-8
TOL_IM = 1e-10
#: Arithmetic of :func:`phase_type_params` and of the chain recurrence
#: of ``inverse.invert_unbranched``: the standard library's correctly
#: rounded ``decimal``, at 70 significant digits.  An amplitude some 70
#: decades below the largest needs them: a chain8 with rates up to 8e3 has
#: A_8 = 4.06e-70, which comes out as 5.2e-65 at 60 digits, -4.2e-69 at
#: 64 and to 2.2e-5 relative at 70.  In libmpdec 70 digits cost about as
#: much as 60.
_EXTENDED = decimal.Context(prec=70)


@dataclass(frozen=True)
class PhaseTypeParams:
    """Eigenvalues (sorted descending, all < 0) and amplitudes, sum(A) = 1."""

    lam: np.ndarray
    A: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "lam", np.asarray(self.lam, dtype=float))
        object.__setattr__(self, "A", np.asarray(self.A, dtype=float))
        if self.lam.shape != self.A.shape or self.lam.ndim != 1:
            raise ValueError("lambda and A must be 1-d arrays of equal length")

    @property
    def n(self) -> int:
        return len(self.lam)

    def sorted(self) -> "PhaseTypeParams":
        order = np.argsort(self.lam)[::-1]
        return PhaseTypeParams(self.lam[order], self.A[order])


@dataclass(frozen=True)
class SymmetricMoments:
    """Vieta values L_1..L_N and power sums S_k = sum_i A_i lambda_i^k."""

    L: np.ndarray
    S: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "L", np.asarray(self.L, dtype=float))
        object.__setattr__(self, "S", np.asarray(self.S, dtype=float))

    @property
    def n(self) -> int:
        return len(self.L)

    def as_vector(self) -> np.ndarray:
        return np.concatenate([self.L, self.S])


@dataclass(frozen=True)
class Spectrum:
    eigenvalues: np.ndarray
    is_real_distinct: bool


def spectrum(gen: Generator) -> Spectrum:
    """All eigenvalues of Qtilde.

    Raises DegenerateSpectrum when two eigenvalues are closer than
    ``TOL_SEP`` times the larger of their moduli, so that eigenvalues far
    smaller than the rates count as separated by their own scale.  A
    complex (but separated) spectrum is reported via
    ``is_real_distinct = False`` rather than as an error.
    """
    vals = np.linalg.eigvals(gen.Qtilde)
    scale = float(np.max(np.abs(vals), initial=1.0))
    for i in range(len(vals)):
        for j in range(i + 1, len(vals)):
            if abs(vals[i] - vals[j]) <= TOL_SEP * max(abs(vals[i]),
                                                       abs(vals[j])):
                raise DegenerateSpectrum(
                    f"eigenvalues {vals[i]} and {vals[j]} are not separated",
                    pair=(vals[i], vals[j]))
    is_real = bool(np.all(np.abs(vals.imag) <= TOL_IM * scale))
    return Spectrum(vals.real if is_real else vals, is_real)


def _flow_table(model, k) -> tuple[list[list], tuple]:
    """Rates R[i][j] of the arcs i -> j, states 0..N-1 to 0..N (N observed),
    and the arcs (i, j) of the table.

    ``model`` is one model, or a sequence of models with the same N, one
    per column of rates that carry a trailing batch axis.  R[i][j] is
    None where no model has the arc (a structural zero) and is 0 in the
    columns of models without it.  Entries keep the number type of ``k``
    (float, complex, ``decimal.Decimal``, or numpy arrays of a batch), so
    the forward map below runs unchanged in extended precision, under
    complex-step differentiation and on many inputs at once.
    """
    single = isinstance(model, models.ModelId)
    n, arcs, index = models.arc_layout(
        (model,) if single else tuple(model))
    if single:
        rows = [k[idx] for idx in index[:, 0].tolist()]
    else:
        k = np.asarray(k)
        rows = np.concatenate([k, np.zeros_like(k[:1])])[
            index, np.arange(k.shape[1])]
    R = [[None] * (n + 1) for _ in range(n)]
    for (i, j), row in zip(arcs, rows):
        R[i][j] = row
    return R, arcs


def _add(x, y):
    """x + y, where None stands for a structural zero."""
    return y if x is None else x if y is None else x + y


def _sum(terms):
    """Sum of the terms, None (a structural zero) if all of them are."""
    total = None
    for x in terms:
        if x is not None:
            total = x if total is None else total + x
    return total


def _gth_det(R, states: list[int], outside: list[int]):
    """Principal minor det(-Q[I, I]) of the states I by GTH elimination.

    -Q[I, I] is an M-matrix whose row sums are the rates leaking out of
    I.  Eliminating one state redistributes its flows over the states
    left, and every pivot is formed as leak plus remaining out-flows
    rather than read off the diagonal, so for nonnegative rates no
    subtraction occurs and the minor is accurate to a few ulps
    (Grassmann, Taksar and Heyman, 1985; O'Cinneide, 1993).  With
    nonnegative rates a zero pivot means a closed class, whose minor is
    zero; the elimination then goes on dividing by 1, which keeps every
    number finite and, in a batch, leaves the other columns alone.
    Negative rates (invalid solver branches) lose the accuracy guarantee
    but keep the algebra.  Updates are skipped only at structural zeros
    (None in ``R``), and entries are replaced, never updated in place,
    since they may be the caller's arrays.  ``outside`` lists the
    states, the observed one included, that are not in I.
    """
    a = [[R[i][j] for j in states] for i in states]
    leak = [_sum(R[i][j] for j in outside) for i in states]
    det = None
    for p in range(len(states) - 1, -1, -1):
        piv = _add(leak[p], _sum(a[p][:p]))
        if piv is None:  # no flow out of state p: a closed class
            return 0
        det = piv if det is None else det * piv
        if p:
            piv = piv + (piv == 0)
        for i in range(p):
            if a[i][p] is None:
                continue
            f = a[i][p] / piv
            if leak[p] is not None:
                leak[i] = _add(leak[i], f * leak[p])
            row = a[i]
            for j in range(p):
                if j != i and a[p][j] is not None:
                    row[j] = _add(row[j], f * a[p][j])
    return det


@functools.lru_cache(maxsize=None)
def _minor_blocks(n: int, arcs: tuple) -> tuple[list[tuple], list[tuple]]:
    """Connected state sets of an arc graph on N hidden states, and the
    components of every nonempty subset of states.

    ``arcs`` lists the pairs (i, j) of states, 0-based, that an arc
    joins.  Returns ``(blocks, subsets)``.  ``blocks`` lists the sets of
    hidden states whose arcs connect them, each with the states outside
    it, as :func:`_gth_det` takes them; ``subsets`` holds, for the subset
    masks 1 .. 2^N - 1 in order, the subset's size, whether it avoids
    state N, and the indices in ``blocks`` of its components.  No arc
    joins two components, so a principal minor is the product of the
    minors of its components.
    """
    nbr = [0] * n
    for i, j in arcs:
        if j < n:
            nbr[i] |= 1 << j
            nbr[j] |= 1 << i
    index: dict[int, int] = {}
    blocks = []
    subsets = []
    for mask in range(1, 1 << n):
        comps = []
        rest = mask
        while rest:
            comp = rest & -rest
            while True:
                grown = comp
                for i in range(n):
                    if comp >> i & 1:
                        grown |= nbr[i] & mask
                if grown == comp:
                    break
                comp = grown
            rest &= ~comp
            if comp not in index:
                index[comp] = len(blocks)
                blocks.append(([i for i in range(n) if comp >> i & 1],
                               [i for i in range(n + 1)
                                if not comp >> i & 1]))
            comps.append(index[comp])
        subsets.append((bin(mask).count("1"), not mask >> (n - 1) & 1,
                        comps))
    return blocks, subsets


def _charpoly(R, arcs: tuple) -> tuple[list, list]:
    """Coefficients of det(x I - Qtilde) and det(x I - B), highest first.

    e_j (the j-th coefficient) is the sum of the j x j principal minors of
    -Qtilde, and d_j the same sum over minors that avoid state N, so that
    B is the leading (N-1)-block.  Each minor is a product of GTH minors
    of connected state sets (:func:`_minor_blocks`) of the arcs of the
    flow table ``R``, so all of them are positive sums and products
    for nonnegative rates, and a chain of N states needs N (N + 1) / 2
    eliminations instead of 2^N - 1.
    """
    n = len(R)
    blocks, subsets = _minor_blocks(n, arcs)
    dets = [_gth_det(R, *block) for block in blocks]
    e = [1] + [None] * n
    d = [1] + [None] * (n - 1)
    for size, avoids_n, comps in subsets:
        det = dets[comps[0]]
        for c in comps[1:]:
            det = det * dets[c]
        e[size] = _add(e[size], det)
        if avoids_n:
            d[size] = _add(d[size], det)
    return e, d


def moment_vector(model, k) -> list:
    """(L_1..L_N, S_1..S_{N-1}) of the rates ``k`` in their own number type.

    ``model`` and ``k`` are as :func:`_flow_table` takes them: one model
    and one rate vector, or rates with a trailing batch axis and one model
    per column, which gives each moment as an array over the batch, equal
    in every column to the moment of that column alone.
    L_j = (-1)^j e_j with e_j from :func:`_charpoly`, and
    S_j = -k_N (Qtilde^(j-1))_NN.  For the three-state catalog only S_1 =
    -k_N and S_2 = k_N * (total out-rate of N) enter; for an unbranched
    chain every path term of (Qtilde^(j-1))_NN has the same sign because
    the graph is bipartite.  Either way no cancellation occurs.
    """
    R, arcs = _flow_table(model, k)
    n = len(R)
    e, _ = _charpoly(R, arcs)
    out = [_add(_sum(row[:i]), _sum(row[i + 1:])) for i, row in enumerate(R)]
    k_exit = R[n - 1][n]
    u = [None] * (n - 1) + [1]  # row N of (hidden-state block of Q)^j
    S = [-k_exit] if n > 1 else []
    for _ in range(n - 2):
        u = [_add(_sum(u[i] * R[i][j] for i in range(n) if i != j
                       and u[i] is not None and R[i][j] is not None),
                  None if u[j] is None else -(u[j] * out[j]))
             for j in range(n)]
        S.append(-k_exit * u[n - 1])
    return [-e[j] if j % 2 else e[j] for j in range(1, n + 1)] + S


def no_exit_markers(model, k) -> tuple[list, list]:
    """Lifetimes T_1..T_N and occupancies p_1..p_N of the chain without
    its exit arc, in the number type of the rates ``k``.

    ``model`` and ``k`` are as :func:`moment_vector` takes them, so each
    marker is an array over a batch when the rates are.  T_i is 1 / (the
    rate out of state i to the other hidden states); where that rate is
    0 it is infinite for numpy numbers, while Python floats raise
    ZeroDivisionError.  By the Markov chain tree theorem the
    steady state p of the closed chain on the hidden states is
    proportional to the principal minors det(-Q[I, I]) over the states I
    other than i, which :func:`_gth_det` forms as sums of positive terms
    for nonnegative rates: each p_i is then accurate to a few ulps
    relative however far the rates spread, and a closed class gives an
    exact 0.
    """
    R, _ = _flow_table(model, k)
    n = len(R)
    if n < 2:
        raise SingularSteadyState("one state has no hidden out-rate")
    R[n - 1][n] = None  # the exit arc
    T = [1 / _sum(row[j] for j in range(n) if j != i)
         for i, row in enumerate(R)]
    minors = [_gth_det(R, [j for j in range(n) if j != i], [i, n])
              for i in range(n)]
    total = _sum(minors)
    return T, [d / total for d in minors]


def _horner(coeffs: list, x) -> tuple:
    """Value and derivative at ``x`` of the polynomial whose
    coefficients, highest first, are ``coeffs``."""
    p, dp = 0, 0
    for c in coeffs:
        dp = dp * x + p
        p = p * x + c
    return p, dp


def phase_type_params(gen: Generator) -> PhaseTypeParams:
    """Survival parameters (lambda, A) of a generator.

    One path for every model, chains and N = 1 included, with no
    validation first: rates that break strong connectivity raise
    NonErgodic or give a zero amplitude, as the end says.  A dense
    eigensolve gives start values and the checks that the spectrum is
    real and separated.  In 70 significant digits of ``decimal``
    arithmetic (``_EXTENDED``) each eigenvalue is then refined by Newton on
    det(x I - Qtilde) from :func:`_charpoly`, whose coefficients are
    subtraction-free sums of GTH minors of the exact rates (a float
    converts to a ``Decimal`` exactly), so an eigenvalue far smaller than
    the rates keeps its relative accuracy.  The amplitudes follow from
    the closed form
    A_i = -k_exit D_N(lambda_i) / (lambda_i prod_{j != i}(lambda_i - lambda_j))
    with D_N(x) = det(x I - B) from the same minors, and both are rounded
    to float64, correctly, at the end.  Raises NonErgodic when the exact
    e_N = det(-Qtilde) is 0: a zero rate closes a class of states, and 0
    is an eigenvalue.  A state that is merely unreachable leaves e_N
    positive and gets a zero amplitude.
    """
    spec = spectrum(gen)
    if not spec.is_real_distinct:
        raise DegenerateSpectrum("spectrum is not real; no (lambda, A) form")
    with decimal.localcontext(_EXTENDED):
        R, arcs = _flow_table(gen.model,
                              list(map(Decimal, gen.rates.tolist())))
        e, d = _charpoly(R, arcs)
        if not e[-1]:
            raise NonErgodic("det(-Qtilde) = 0: the rates close a class of "
                             "states that never reaches the exit")
        k_exit = R[-1][-1]
        # Newton squares the error: after a step this small, the next one
        # would fall below the working digits.
        small = Decimal("1e-40")
        lam = []
        for x in map(Decimal, spec.eigenvalues.tolist()):
            for _ in range(60):
                p, dp = _horner(e, x)
                step = p / dp
                x -= step
                if abs(step) <= small * abs(x):
                    break
            lam.append(x)
        amps = [-k_exit * _horner(d, x)[0]
                / (x * math.prod(x - y for y in lam[:i] + lam[i + 1:]))
                for i, x in enumerate(lam)]
        # + 0.0: an exact zero amplitude (a lumpable chain) is +0, whatever
        # the sign decimal gave it.
        return PhaseTypeParams([float(x) for x in lam],
                               [float(a) + 0.0 for a in amps]).sorted()


def survival(p: PhaseTypeParams, t):
    """S(t) = sum_i A_i exp(lambda_i t) for t >= 0 (vectorized in t)."""
    t = np.asarray(t, dtype=float)
    return np.exp(np.multiply.outer(t, p.lam)) @ p.A


def density(p: PhaseTypeParams, t):
    """f(t) = -S'(t) = -sum_i A_i lambda_i exp(lambda_i t)."""
    t = np.asarray(t, dtype=float)
    return -np.exp(np.multiply.outer(t, p.lam)) @ (p.A * p.lam)


def mean_time(p: PhaseTypeParams) -> float:
    """Mean of the phase-type distribution, -sum_i A_i / lambda_i."""
    return float(-np.sum(p.A / p.lam))


def elementary_symmetric(lam) -> np.ndarray:
    """e_1..e_N of lam by the stable one-variable-at-a-time recursion."""
    lam = np.asarray(lam, dtype=float)
    e = np.zeros(len(lam) + 1)
    e[0] = 1.0
    for x in lam:
        # update from high degree down so each variable enters once
        for k in range(len(lam), 0, -1):
            e[k] = e[k] + x * e[k - 1]
    return e[1:]


def moments(p: PhaseTypeParams) -> SymmetricMoments:
    """Symmetric moments (L, S) of the survival parameters."""
    L = elementary_symmetric(p.lam)
    n = p.n
    S = np.array([float(np.sum(p.A * p.lam ** k)) for k in range(1, n)])
    return SymmetricMoments(L, S)


def params_from_moments(m: SymmetricMoments) -> PhaseTypeParams:
    """Survival parameters (lambda, A) whose symmetric moments are ``m``.

    The inverse of :func:`moments`: the decay rates are the roots of
    x^N - L_1 x^(N-1) + L_2 x^(N-2) - ... + (-1)^N L_N, and the
    amplitudes solve sum_i A_i = 1 and sum_i A_i lambda_i^j = S_j in the
    least-squares sense.  The rates come in ascending order.  Raises
    DegenerateSpectrum when the roots are complex.
    """
    signs = (-1.0) ** np.arange(1, m.n + 1)
    lam = np.roots(np.concatenate([[1.0], signs * m.L]))
    if np.any(np.abs(lam.imag) > 1e-9):
        raise DegenerateSpectrum("moments give complex decay rates")
    lam = np.sort(lam.real)
    amps = np.linalg.lstsq(np.vander(lam, increasing=True).T,
                           np.concatenate([[1.0], m.S]), rcond=None)[0]
    return PhaseTypeParams(lam, amps)


def moments_from_generator(gen: Generator) -> SymmetricMoments:
    """Symmetric moments straight from the rates, no eigensolve.

    Evaluates :func:`moment_vector`, whose every quantity is a sum of
    positive terms for nonnegative rates, so each component is accurate
    to a few ulps even when the rates span many decades.  This is the
    forward oracle for inversion residuals.
    """
    vec = np.array(moment_vector(gen.model, gen.rates.tolist()), dtype=float)
    return SymmetricMoments(vec[:gen.N], vec[gen.N:])
