"""Independent reference for the forward map, in exact rational arithmetic.

Everything here is built from a model's arc list (``models.arc_list``)
alone and never calls ``phasekit.direct``.  Every float input converts to
a ``Fraction`` without rounding, so the moments and occupancies are exact
and a check against them measures only the library's error.  The true
survival function behind the trace checks is float64, from a dense
eigendecomposition, which is ample for the statistical bounds it serves.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np


def hidden_block(arcs, n: int, rates):
    """Rows-from block of Q over the hidden states, and the exit rate.

    ``arcs`` are (source, target, rate index) triples, 1-based, with the
    exit arc N -> N+1 last, as ``phasekit.models.arc_list`` gives them.
    """
    k = [Fraction(float(x)) for x in rates]
    q = [[Fraction(0)] * n for _ in range(n)]
    for src, dst, idx in arcs:
        q[src - 1][src - 1] -= k[idx - 1]
        if dst <= n:
            q[src - 1][dst - 1] += k[idx - 1]
    return q, k[arcs[-1][2] - 1]


def _matmul(a, b):
    n = len(a)
    out = [[Fraction(0)] * n for _ in range(n)]
    for i, row in enumerate(a):
        acc = out[i]
        for m, x in enumerate(row):
            if x:
                for j, y in enumerate(b[m]):
                    if y:
                        acc[j] += x * y
    return out


def charpoly(q):
    """c_1..c_N of det(x I - q) = x^N + c_1 x^(N-1) + ... + c_N.

    Faddeev-LeVerrier, which is exact in rationals.
    """
    n = len(q)
    m = [[Fraction(0)] * n for _ in range(n)]
    c = [Fraction(1)]
    for k in range(1, n + 1):
        for i in range(n):
            m[i][i] += c[-1]
        am = _matmul(q, m)
        c.append(-sum(am[i][i] for i in range(n)) / k)
        m = am
    return c[1:]


def moments(arcs, n: int, rates) -> list[Fraction]:
    """(L_1..L_N, S_1..S_{N-1}) of the rates, exactly.

    L_j = (-1)^j c_j from the characteristic polynomial of Qtilde (whose
    coefficients equal those of its transpose, the hidden block of Q),
    and S_j = -k_N (Qtilde^(j-1))_NN.
    """
    q, k_exit = hidden_block(arcs, n, rates)
    L = [(-1) ** j * c for j, c in enumerate(charpoly(q), start=1)]
    S = []
    u = [Fraction(0)] * (n - 1) + [Fraction(1)]  # row N of q^(j-1)
    for _ in range(n - 1):
        S.append(-k_exit * u[n - 1])
        u = [sum(u[i] * q[i][j] for i in range(n) if q[i][j]) for j in range(n)]
    return L + S


def moments_of_params(lam, amps) -> list[Fraction]:
    """(L_1..L_N, S_1..S_{N-1}) of float survival parameters, exactly."""
    lam = [Fraction(float(x)) for x in lam]
    amps = [Fraction(float(x)) for x in amps]
    n = len(lam)
    e = [Fraction(1)] + [Fraction(0)] * n
    for x in lam:
        for j in range(n, 0, -1):
            e[j] += x * e[j - 1]
    S = [sum(a * x ** j for a, x in zip(amps, lam)) for j in range(1, n)]
    return e[1:] + S


def rel_errors(got, want) -> list[float]:
    """|got_i - want_i| / |want_i| per component (absolute where want is 0)."""
    out = []
    for g, w in zip(got, want):
        diff = abs((g if isinstance(g, Fraction) else Fraction(float(g))) - w)
        out.append(float(diff / abs(w)) if w else float(diff))
    return out


def occupancy_markers(arcs, n: int, rates):
    """(T, p) of the chain with the exit arc removed, exactly.

    T_i = 1 / (out-rate of state i to hidden states); p solves
    p Q_red = 0 with sum(p) = 1, by Gaussian elimination in rationals.
    Returns None when a state has no hidden out-rate.
    """
    q, k_exit = hidden_block(arcs, n, rates)
    q[n - 1][n - 1] += k_exit
    if any(q[i][i] >= 0 for i in range(n)):
        return None
    T = [-1 / q[i][i] for i in range(n)]
    # Unknowns p_0..p_{n-1}: equations sum_i p_i q[i][j] = 0 for j < n-1,
    # and sum_i p_i = 1 in place of the last (dependent) balance equation.
    a = [[q[i][j] for i in range(n)] + [Fraction(0)] for j in range(n - 1)]
    a.append([Fraction(1)] * n + [Fraction(1)])
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col]), None)
        if piv is None:
            return None
        a[col], a[piv] = a[piv], a[col]
        for r in range(n):
            if r != col and a[r][col]:
                f = a[r][col] / a[col][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    p = [a[i][n] / a[i][i] for i in range(n)]
    return T, p


def float_block(arcs, n: int, rates) -> np.ndarray:
    """The hidden block of Q in float64, for the dense checks."""
    q = np.zeros((n, n))
    for src, dst, idx in arcs:
        q[src - 1, src - 1] -= rates[idx - 1]
        if dst <= n:
            q[src - 1, dst - 1] += rates[idx - 1]
    return q


def true_params(arcs, n: int, rates):
    """(lambda, A) in float64 from a dense eigendecomposition.

    S(t) = e_N^T exp(Q_h t) 1 for the hidden block Q_h; with
    Q_h = V diag(lambda) V^-1, A_i = V[N, i] (V^-1 1)_i.
    """
    lam, vec = np.linalg.eig(float_block(arcs, n, rates))
    amps = vec[n - 1, :] * np.linalg.solve(vec, np.ones(n))
    return lam.real, amps.real


def survival(lam, amps, t):
    return np.exp(np.multiply.outer(t, lam)) @ amps


def log_likelihood(lam, amps, gaps) -> float:
    """sum_i log f(t_i) with f(t) = -sum_j A_j lambda_j exp(lambda_j t).

    Returns -inf when the density is not positive at some gap.
    """
    f = np.exp(np.multiply.outer(gaps, lam)) @ (-amps * lam)
    if np.any(f <= 0.0):
        return -np.inf
    return float(np.sum(np.log(f)))


def ks_distance(lam, amps, gaps) -> float:
    """Kolmogorov distance between the empirical and true distributions."""
    t = np.sort(gaps)
    n = t.size
    cdf = 1.0 - survival(lam, amps, t)
    hi = np.arange(1, n + 1) / n
    lo = np.arange(0, n) / n
    return float(max(np.max(hi - cdf), np.max(cdf - lo)))


def dkw_bound(n: int, alpha: float) -> float:
    """Dvoretzky-Kiefer-Wolfowitz radius: P(KS > eps) <= alpha."""
    return float(np.sqrt(np.log(2.0 / alpha) / (2.0 * n)))
