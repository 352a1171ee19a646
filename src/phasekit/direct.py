"""Direct problem: spectra, survival parameters, and symmetric moments.

The survival function of the first hitting time of the observed state is a
signed mixture of exponentials S(t) = sum_i A_i exp(lambda_i t).  This
module computes (lambda, A) from a generator and the permutation-invariant
reparameterization (L, S) used as input by the inverse solvers.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
from mpmath import mp

from . import models
from .errors import DegenerateSpectrum
from .models import Generator, validate

#: Relative eigenvalue separation below which the spectrum is treated as
#: degenerate, and relative imaginary-part threshold for realness.
TOL_SEP = 1e-8
TOL_IM = 1e-10
_EPS = np.finfo(float).eps


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

    @property
    def scale(self) -> float:
        return float(np.max(np.abs(self.as_vector()), initial=1.0))


@dataclass(frozen=True)
class Spectrum:
    eigenvalues: np.ndarray
    is_real_distinct: bool
    eigenvectors: np.ndarray


def spectrum(gen: Generator) -> Spectrum:
    """All eigenvalues of Qtilde with eigenvectors normalized at state s.

    Raises DegenerateSpectrum when two eigenvalues are closer than the
    separation threshold.  A complex (but separated) spectrum is reported
    via ``is_real_distinct = False`` rather than as an error.
    """
    vals, vecs = np.linalg.eig(gen.Qtilde)
    scale = float(np.max(np.abs(vals), initial=1.0))
    for i in range(len(vals)):
        for j in range(i + 1, len(vals)):
            if abs(vals[i] - vals[j]) <= TOL_SEP * scale:
                raise DegenerateSpectrum(
                    f"eigenvalues {vals[i]} and {vals[j]} are not separated",
                    pair=(vals[i], vals[j]))
    is_real = bool(np.all(np.abs(vals.imag) <= TOL_IM * scale))
    s = gen.return_state - 1
    cols = []
    for i in range(len(vals)):
        u = vecs[:, i]
        if abs(u[s]) > 1e-300:
            u = u / u[s]
        cols.append(u)
    vecs = np.array(cols).T
    if is_real:
        vals = vals.real
        vecs = vecs.real
    return Spectrum(vals, is_real, vecs)


def _flow_table(model, k) -> list[list]:
    """Rates R[i][j] of the arcs i -> j, states 0..N-1 to 0..N (N observed).

    Entries keep the number type of ``k`` (float, complex, mpmath), so
    the forward map below runs unchanged in extended precision and under
    complex-step differentiation.
    """
    n = model.n
    zero = k[0] * 0
    R = [[zero] * (n + 1) for _ in range(n)]
    for src, dst, idx in models.arc_list(model):
        R[src - 1][dst - 1] = R[src - 1][dst - 1] + k[idx - 1]
    return R


def _gth_det(R, states: list[int], outside: list[int]):
    """Principal minor det(-Q[I, I]) of the states I by GTH elimination.

    -Q[I, I] is an M-matrix whose row sums are the rates leaking out of
    I.  Eliminating one state redistributes its flows over the states
    left, and every pivot is formed as leak plus remaining out-flows
    rather than read off the diagonal, so for nonnegative rates no
    subtraction occurs and the minor is accurate to a few ulps
    (Grassmann, Taksar and Heyman, 1985; O'Cinneide, 1993).  With
    nonnegative rates a zero pivot means a closed class, whose minor is
    zero; negative rates (invalid solver branches) lose the accuracy
    guarantee but keep the algebra.  ``outside`` lists the states, the
    observed one included, that are not in I.
    """
    if len(states) == 1:  # a lone state's minor is its leak
        return sum(R[states[0]][j] for j in outside)
    a = [[R[i][j] for j in states] for i in states]
    leak = [sum(R[i][j] for j in outside) for i in states]
    det = 1
    for p in range(len(states) - 1, -1, -1):
        piv = leak[p] + sum(a[p][:p])
        if piv == 0:
            return piv
        det = det * piv
        for i in range(p):
            f = a[i][p] / piv
            if f:
                leak[i] += f * leak[p]
                row = a[i]
                for j in range(p):
                    if j != i:
                        row[j] += f * a[p][j]
    return det


@functools.lru_cache(maxsize=None)
def _minor_blocks(model) -> tuple[list[tuple], list[tuple]]:
    """Connected state sets of the arc graph, and the components of
    every nonempty subset of states.

    Returns ``(blocks, subsets)``.  ``blocks`` lists the sets of hidden
    states whose arcs connect them, each with the states outside it, as
    :func:`_gth_det` takes them; ``subsets`` holds, for the subset
    masks 1 .. 2^N - 1 in order, the subset's size, whether it avoids
    state N, and the indices in ``blocks`` of its components.  No arc
    joins two components, so a principal minor is the product of the
    minors of its components.
    """
    n = model.n
    nbr = [0] * n
    for src, dst, _ in models.arc_list(model):
        if dst <= n:
            nbr[src - 1] |= 1 << (dst - 1)
            nbr[dst - 1] |= 1 << (src - 1)
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


def _charpoly(model, R) -> tuple[list, list]:
    """Coefficients of det(x I - Qtilde) and det(x I - B), highest first.

    e_j (the j-th coefficient) is the sum of the j x j principal minors of
    -Qtilde, and d_j the same sum over minors that avoid state N, so that
    B is the leading (N-1)-block.  Each minor is a product of GTH minors
    of connected state sets (:func:`_minor_blocks`), so all of them are
    positive sums and products for nonnegative rates, and a chain of N
    states needs N (N + 1) / 2 eliminations instead of 2^N - 1.
    """
    n = model.n
    blocks, subsets = _minor_blocks(model)
    dets = [_gth_det(R, *block) for block in blocks]
    e = [1] + [0] * n
    d = [1] + [0] * (n - 1)
    for size, avoids_n, comps in subsets:
        det = dets[comps[0]]
        for c in comps[1:]:
            det = det * dets[c]
        e[size] += det
        if avoids_n:
            d[size] += det
    return e, d


def moment_vector(model, k) -> list:
    """(L_1..L_N, S_1..S_{N-1}) of the rates ``k`` in their own number type.

    L_j = (-1)^j e_j with e_j from :func:`_charpoly`, and
    S_j = -k_N (Qtilde^(j-1))_NN.  For the three-state catalog only S_1 =
    -k_N and S_2 = k_N * (total out-rate of N) enter; for an unbranched
    chain every path term of (Qtilde^(j-1))_NN has the same sign because
    the graph is bipartite.  Either way no cancellation occurs.
    """
    n = model.n
    R = _flow_table(model, k)
    e, _ = _charpoly(model, R)
    out = [sum(row[:i]) + sum(row[i + 1:]) for i, row in enumerate(R)]
    k_exit = R[n - 1][n]
    u = [0] * (n - 1) + [1]  # row N of (hidden-state block of Q)^j
    S = [-k_exit] if n > 1 else []
    for _ in range(n - 2):
        u = [sum(u[i] * R[i][j] for i in range(n) if i != j) - u[j] * out[j]
             for j in range(n)]
        S.append(-k_exit * u[n - 1])
    return [(-1) ** j * e[j] for j in range(1, n + 1)] + S


def _tridiagonal_params(gen: Generator) -> PhaseTypeParams | None:
    """(lambda, A) through the symmetrized tridiagonal eigenproblem.

    When the reduced matrix is an unbranched chain (tridiagonal with
    strictly positive couplings) it is similar to a symmetric
    tridiagonal matrix, whose eigenvectors carry far better relative
    accuracy for tiny components than a dense nonsymmetric solve.
    Returns None when the structure does not apply.
    """
    n = gen.N
    if n < 2:
        return None
    mat = gen.Qtilde.T
    mask = np.ones((n, n), dtype=bool)
    for off in (-1, 0, 1):
        mask &= ~np.eye(n, k=off, dtype=bool)
    if np.any(mat[mask] != 0.0):
        return None
    upper = np.diag(mat, 1)
    lower = np.diag(mat, -1)
    if np.any(upper <= 0.0) or np.any(lower <= 0.0):
        return None

    import scipy.linalg  # here: it would double the package's import time

    a = np.diag(mat).copy()
    lam, vecs = scipy.linalg.eigh_tridiagonal(a, np.sqrt(upper * lower))
    scale = float(np.max(np.abs(lam), initial=1.0))
    if np.min(np.diff(lam)) <= TOL_SEP * scale:
        raise DegenerateSpectrum("chain eigenvalues are not separated")
    peaks = [int(np.argmax(np.abs(vecs[:, i]))) for i in range(n)]
    lam, amps = _chain_params_extended(upper, lower, gen.exit_rate,
                                       lam, peaks)
    return PhaseTypeParams(lam, amps).sorted()


def _chain_params_extended(upper: np.ndarray, lower: np.ndarray,
                           k_exit: float, lam0: np.ndarray,
                           peaks: list[int]) -> tuple[np.ndarray, np.ndarray]:
    """Refine chain eigenvalues and amplitudes in extended precision.

    The chain matrix is similar to the symmetric tridiagonal with
    couplings sqrt(upper * lower); the coupling products and the
    diagonal (minus each state's total out-rate) are formed from the
    rates in extended precision, so the similarity stays exact to
    working accuracy.  A float64 diagonal would not do: one ulp in it
    moves an eigenvalue far smaller than the rates by O(1) in relative
    terms, and the amplitudes with it.  Each eigenvalue is polished by
    Newton on the Sturm characteristic recurrence, the eigenvector is
    rebuilt by a two-sided three-term recurrence joined at its peak
    component (both halves then run in their growing, stable direction),
    and the amplitude follows from the absorption-density identity
    A_i = -k_exit w_i / lambda_i with w_i the squared normalized last
    component.  Results are rounded back to float64.
    """
    n = lam0.size
    with mp.workdps(60):
        up = [mp.mpf(float(u)) for u in upper] + [mp.mpf(0)]
        down = [mp.mpf(0)] + [mp.mpf(float(x)) for x in lower]
        k_mp = mp.mpf(float(k_exit))
        am = [-(up[m] + down[m]) for m in range(n)]
        am[n - 1] -= k_mp
        bm = [mp.sqrt(u * l) for u, l in zip(up[:-1], down[1:])]
        lam_out = np.empty(n)
        amp_out = np.empty(n)
        for i in range(n):
            lam = mp.mpf(float(lam0[i]))
            for _ in range(60):
                p_prev, p = mp.mpf(1), lam - am[0]
                dp_prev, dp = mp.mpf(0), mp.mpf(1)
                for m in range(1, n):
                    p_new = (lam - am[m]) * p - bm[m - 1] ** 2 * p_prev
                    dp_new = (p + (lam - am[m]) * dp
                              - bm[m - 1] ** 2 * dp_prev)
                    p_prev, p = p, p_new
                    dp_prev, dp = dp, dp_new
                if dp == 0:
                    break
                step = p / dp
                lam -= step
                if abs(step) <= abs(lam) * mp.mpf(10) ** -55:
                    break
            peak = peaks[i]
            v = [mp.mpf(0)] * n
            v[n - 1] = mp.mpf(1)
            if n > 1:
                v[n - 2] = (lam - am[n - 1]) / bm[n - 2]
            for m in range(n - 2, peak, -1):
                v[m - 1] = ((lam - am[m]) * v[m]
                            - bm[m] * v[m + 1]) / bm[m - 1]
            if peak > 0:
                fwd = [mp.mpf(0)] * (peak + 1)
                fwd[0] = mp.mpf(1)
                if peak >= 1:
                    fwd[1] = (lam - am[0]) / bm[0]
                for m in range(1, peak):
                    fwd[m + 1] = ((lam - am[m]) * fwd[m]
                                  - bm[m - 1] * fwd[m - 1]) / bm[m]
                ratio = v[peak] / fwd[peak]
                for m in range(peak):
                    v[m] = fwd[m] * ratio
            weight = v[-1] ** 2 / mp.fsum(x * x for x in v)
            lam_out[i] = float(lam)
            amp_out[i] = float(-k_mp * weight / lam)
    return lam_out, amp_out


def phase_type_params(gen: Generator) -> PhaseTypeParams:
    """Survival parameters (lambda, A) for a validated generator.

    Unbranched-chain generators go through a symmetrized tridiagonal
    eigenproblem.  Otherwise the eigenvalues of a dense solve are
    Newton-polished on the subtraction-free characteristic polynomial,
    which restores the relative accuracy of eigenvalues far smaller than
    the rates, and the amplitudes follow from the closed form
    A_i = -k_exit D_N(lambda_i) / (lambda_i prod_{j != i}(lambda_i - lambda_j))
    with D_N(x) = det(x I - B) from the same principal minors.
    """
    report = validate(gen)
    if not report.s_equals_N:
        raise ValueError("phase-type parameters require return state N")
    tri = _tridiagonal_params(gen)
    if tri is not None:
        return tri
    spec = spectrum(gen)
    if not spec.is_real_distinct:
        raise DegenerateSpectrum("spectrum is not real; no (lambda, A) form")
    n = gen.N
    e, d = (np.array(c, dtype=float)
            for c in _charpoly(gen.model,
                               _flow_table(gen.model, gen.rates.tolist())))
    de = np.polyder(e)
    lam = spec.eigenvalues.copy()
    for _ in range(8):
        step = np.polyval(e, lam) / np.polyval(de, lam)
        lam -= step
        if np.all(np.abs(step) <= 4.0 * _EPS * np.abs(lam)):
            break

    amps = np.empty(n)
    for i in range(n):
        denom = lam[i] * np.prod([lam[i] - lam[j] for j in range(n) if j != i])
        amps[i] = -gen.exit_rate * np.polyval(d, lam[i]) / denom

    return PhaseTypeParams(lam, amps).sorted()


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


def homogeneous_symmetric(lam, m: int) -> float:
    """Complete homogeneous symmetric polynomial h_m(lam); h_0 = 1."""
    if m < 0:
        raise ValueError("degree must be nonnegative")
    lam = np.asarray(lam, dtype=float)
    h = np.zeros(m + 1)
    h[0] = 1.0
    for x in lam:
        for k in range(1, m + 1):
            h[k] = h[k] + x * h[k - 1]
    return float(h[m])


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
