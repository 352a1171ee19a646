"""Extended-precision references for the forward map, built from the
arc list alone and independent of the library's numerical paths.

At 50 digits the cancellation that rules out the naive formulas in
float64 is harmless, so determinants, matrix powers and a dense
eigensolve serve as the reference.
"""

import itertools

import numpy as np
from mpmath import mp

import phasekit as pk

DPS = 50


def _qtilde(model, k):
    n = model.n
    Q = mp.zeros(n + 1, n + 1)
    for src, dst, idx in pk.arc_list(model):
        Q[src - 1, dst - 1] += mp.mpf(k[idx - 1])
    for i in range(n):
        Q[i, i] = -mp.fsum(Q[i, j] for j in range(n + 1) if j != i)
    return Q[:n, :n].T, Q[n - 1, n]


def mp_moments(model, k) -> list:
    """(L_1..L_N, S_1..S_{N-1}) of rates ``k`` as mpmath numbers.

    L_j from principal minors of Qtilde, S_j = -k_N (Qtilde^(j-1))_NN.
    """
    n = model.n
    with mp.workdps(DPS):
        Qt, k_exit = _qtilde(model, k)
        L = []
        for size in range(1, n + 1):
            total = mp.mpf(0)
            for idx in itertools.combinations(range(n), size):
                total += mp.det(mp.matrix([[Qt[a, b] for b in idx]
                                           for a in idx]))
            L.append(total)
        S = []
        power = mp.eye(n)
        for _ in range(n - 1):
            S.append(-k_exit * power[n - 1, n - 1])
            power = power * Qt
        return L + S


def mp_preimage(model, k, m) -> np.ndarray:
    """Rates whose exact moments equal the float64 moment vector ``m``.

    Newton from the rates ``k`` on relative residuals and relative
    steps, with a finite-difference Jacobian whose step (1e-25) is far
    below the accuracy sought.
    """
    with mp.workdps(DPS):
        want = [mp.mpf(x) for x in m.as_vector()]
        h = mp.mpf(10) ** -25
        km = [mp.mpf(x) for x in k]
        for _ in range(30):
            got = mp_moments(model, km)
            r = mp.matrix([(g - w) / abs(w) for g, w in zip(got, want)])
            jac = mp.matrix(len(want), len(km))
            for j in range(len(km)):
                bumped = list(km)
                bumped[j] *= 1 + h
                col = mp_moments(model, bumped)
                for i in range(len(want)):
                    jac[i, j] = (col[i] - got[i]) / (abs(want[i]) * h)
            step = mp.lu_solve(jac, -r)
            km = [x * (1 + s) for x, s in zip(km, step)]
            if max(abs(s) for s in step) < mp.mpf(10) ** -30:
                break
        return np.array([float(x) for x in km])


def mp_phase_type_params(model, k) -> tuple[np.ndarray, np.ndarray]:
    """(lambda, A) sorted by descending lambda, rounded to float64.

    A_i = -k_N det(lambda_i I - B) / (lambda_i prod_{j != i}(lambda_i -
    lambda_j)) with B the leading (N-1)-block of Qtilde.  On a 1 x 1
    matrix mpmath's ``eig`` returns its vectors too, whatever ``left``
    and ``right`` say, so N = 1 reads the eigenvalue off the matrix.
    """
    n = model.n
    with mp.workdps(DPS):
        Qt, k_exit = _qtilde(model, k)
        eigs = [Qt[0, 0]] if n == 1 else mp.eig(Qt, left=False, right=False)
        lam = sorted((mp.re(x) for x in eigs), reverse=True)
        amps = []
        for i, x in enumerate(lam):
            minor = (mp.det(x * mp.eye(n - 1) - Qt[:n - 1, :n - 1])
                     if n > 1 else mp.mpf(1))
            denom = x * mp.fprod(x - y for j, y in enumerate(lam) if j != i)
            amps.append(-k_exit * minor / denom)
        return (np.array([float(x) for x in lam]),
                np.array([float(x) for x in amps]))


def mp_closed_form_markers(tag, k) -> list:
    """(T1, T2, T3, p1, p2, p3) of M2, M4, M8 or M9 as mpmath numbers.

    T_i = 1 / (hidden out-rate of state i); p_i is the spanning-tree sum
    of the chain without its exit arc rooted at state i, over the sum of
    all three, written out by hand for each model.
    """
    with mp.workdps(DPS):
        k1, k2, k3, k4, _ = (mp.mpf(float(x)) for x in k)
        if tag in ("M2", "M4"):
            T = [1 / (k1 + k2), 1 / k3, 1 / k4]
            if tag == "M2":
                trees = [k3 * k4, k1 * k4, k2 * k3]
            else:
                trees = [k3 * k4, k1 * k4, (k1 + k2) * k3]
        elif tag == "M8":
            T = [1 / k1, 1 / k2, 1 / (k3 + k4)]
            trees = [k2 * k3, k1 * (k3 + k4), k1 * k2]
        elif tag == "M9":
            T = [1 / k1, 1 / k2, 1 / (k3 + k4)]
            trees = [k2 * k3, k1 * k4, k1 * k2]
        else:
            raise ValueError(f"no closed-form markers for {tag}")
        total = mp.fsum(trees)
        return T + [t / total for t in trees]


def mp_no_exit_markers(model, k) -> list:
    """(T_1..T_N, p_1..p_N) of any model as mpmath numbers.

    Drops the exit arc from the generator, takes T_i = -1 / Q_ii, and
    solves p Q = 0 with the last balance equation replaced by
    sum(p) = 1, by dense LU.
    """
    n = model.n
    with mp.workdps(DPS):
        Qt, k_exit = _qtilde(model, k)
        Qt[n - 1, n - 1] += k_exit  # Qt is Q transposed: rows are balances
        a = mp.matrix(Qt)
        b = mp.matrix(n, 1)
        for j in range(n):
            a[n - 1, j] = 1
        b[n - 1] = 1
        p = mp.lu_solve(a, b)
        return [-1 / Qt[i, i] for i in range(n)] + [p[i] for i in range(n)]


def rel_error_eps(got, want) -> float:
    """Largest |got_i - want_i| / |want_i| in units of float64 eps."""
    with mp.workdps(DPS):
        worst = max(abs(mp.mpf(float(g)) - w) / abs(w)
                    for g, w in zip(got, want))
        return float(worst) / float(np.finfo(float).eps)
