"""Simulation and fitting tests."""

import numpy as np
import pytest

from phasekit import direct, models, stochastic
from phasekit.errors import NonErgodic


def m9_generator():
    return models.build_generator(
        models.M9, np.array([1.0, 2.0, 3.0, 4.0, 5.0]))


class TestSimulate:
    def test_deterministic(self):
        gen = m9_generator()
        t1 = stochastic.simulate_events(gen, 500, seed=9)
        t2 = stochastic.simulate_events(gen, 500, seed=9)
        np.testing.assert_array_equal(t1.gaps, t2.gaps)

    def test_seed_changes_trace(self):
        gen = m9_generator()
        t1 = stochastic.simulate_events(gen, 500, seed=9)
        t2 = stochastic.simulate_events(gen, 500, seed=10)
        assert not np.array_equal(t1.gaps, t2.gaps)

    def test_exponential_mean(self):
        gen = models.build_generator(models.unbranched_chain(1), [2.0])
        trace = stochastic.simulate_events(gen, 100_000, seed=1)
        # 3 sigma of the exponential sample mean
        assert abs(trace.gaps.mean() - 0.5) < 3 * 0.5 / np.sqrt(100_000)

    def test_m9_mean(self):
        gen = m9_generator()
        p = direct.phase_type_params(gen)
        trace = stochastic.simulate_events(gen, 100_000, seed=2)
        sd = np.std(trace.gaps)
        assert abs(trace.gaps.mean() - direct.mean_time(p)) < (
            3 * sd / np.sqrt(100_000))

    def test_provenance_recorded(self):
        gen = m9_generator()
        trace = stochastic.simulate_events(gen, 10, seed=0)
        assert str(trace.model) == "M9"
        np.testing.assert_array_equal(trace.rates, gen.rates)

    def test_all_gaps_positive(self):
        trace = stochastic.simulate_events(m9_generator(), 2000, seed=5)
        assert np.all(trace.gaps > 0.0)

    def test_walkers_left_after_max_jumps_raise(self, monkeypatch):
        # 3.8 jumps per event are expected, so the loop starts, and some
        # of the 100 walkers take more than 4.
        monkeypatch.setattr(stochastic, "MAX_JUMPS", 4)
        with pytest.raises(NonErgodic, match="within 4 jumps"):
            stochastic.simulate_events(m9_generator(), 100, seed=0)

    @pytest.mark.parametrize("max_jumps, rates, expected", [
        (1, [1.0, 2.0, 3.0, 4.0, 5.0], "3.8"),
        (stochastic.MAX_JUMPS, [1.0, 2.0, 1e12, 4.0, 5.0], "4e\\+11"),
    ], ids=["max-1", "stiff"])
    def test_expected_jumps_over_max_raise_before_drawing(
            self, monkeypatch, max_jumps, rates, expected):
        def no_draws(*args, **kwargs):
            raise AssertionError("a random number generator was made")

        monkeypatch.setattr(stochastic, "MAX_JUMPS", max_jumps)
        monkeypatch.setattr(np.random, "default_rng", no_draws)
        gen = models.build_generator(models.M9, rates)
        with pytest.raises(NonErgodic, match=f"take {expected} jumps"):
            stochastic.simulate_events(gen, 1000, seed=0)


class TestEmpiricalSurvival:
    def test_step_values(self):
        trace = stochastic.EventTrace(gaps=np.array([1.0, 2.0, 3.0]), seed=0)
        es = stochastic.empirical_survival(trace)
        assert es(1.5) == pytest.approx(2.0 / 3.0)
        assert es(0.0) == pytest.approx(1.0)
        assert es(5.0) == pytest.approx(0.0)
        # right-continuous: S(t) = #(gaps > t) / n at a gap too
        assert es(1.0) == pytest.approx(2.0 / 3.0)
        assert es(3.0) == pytest.approx(0.0)
        tied = stochastic.empirical_survival(
            stochastic.EventTrace(gaps=np.array([1.0, 1.0, 2.0]), seed=0))
        assert tied(1.0) == pytest.approx(1.0 / 3.0)

    def test_ks_self_consistency(self):
        gen = m9_generator()
        p = direct.phase_type_params(gen)
        trace = stochastic.simulate_events(gen, 100_000, seed=3)
        assert stochastic.ks_statistic(trace, p) <= 0.00515

    def test_ks_detects_wrong_model(self):
        gen = models.build_generator(models.unbranched_chain(1), [1.0])
        trace = stochastic.simulate_events(gen, 10_000, seed=4)
        wrong = direct.PhaseTypeParams(lam=(-10.0,), A=(1.0,))
        assert stochastic.ks_statistic(trace, wrong) > 0.5


class TestFit:
    def test_single_exponential(self):
        gen = models.build_generator(models.unbranched_chain(1), [2.0])
        trace = stochastic.simulate_events(gen, 10_000, seed=6)
        fit = stochastic.fit_multiexp(
            trace, 1, stochastic.FitConfig(restarts=3))
        mle = -1.0 / trace.gaps.mean()
        # the exponential MLE has standard error rate/sqrt(n)
        assert abs(fit.params.lam[0] - mle) < 3 * 2.0 / np.sqrt(10_000)
        assert fit.params.A[0] == pytest.approx(1.0)

    def test_three_component_recovery(self):
        gen = m9_generator()
        p = direct.phase_type_params(gen)
        trace = stochastic.simulate_events(gen, 200_000, seed=7)
        fit = stochastic.fit_multiexp(
            trace, 3, stochastic.FitConfig(restarts=6))
        got = np.sort(fit.params.lam)
        want = np.sort(p.lam)
        assert np.max(np.abs(got - want) / np.abs(want)) < 0.10

    def test_likelihood_sanity_floor(self):
        gen = m9_generator()
        p = direct.phase_type_params(gen)
        trace = stochastic.simulate_events(gen, 20_000, seed=8)
        fit = stochastic.fit_multiexp(
            trace, 3, stochastic.FitConfig(restarts=6))
        truth_ll = float(
            np.sum(np.log(direct.density(p, trace.gaps))))
        assert fit.log_likelihood >= truth_ll - 1e-6 * len(trace)

    def test_nesting_improves_likelihood(self):
        gen = models.build_generator(models.unbranched_chain(1), [1.0])
        trace = stochastic.simulate_events(gen, 5_000, seed=9)
        f1 = stochastic.fit_multiexp(
            trace, 1, stochastic.FitConfig(restarts=3))
        f2 = stochastic.fit_multiexp(
            trace, 2, stochastic.FitConfig(restarts=6))
        assert f2.log_likelihood >= f1.log_likelihood - 1e-6

    @pytest.mark.parametrize("restarts", [0, -2])
    def test_needs_a_restart(self, restarts):
        with pytest.raises(ValueError, match="at least 1"):
            stochastic.FitConfig(restarts=restarts)

    def test_insufficient_data(self):
        trace = stochastic.EventTrace(gaps=np.linspace(0.1, 1.0, 10), seed=0)
        with pytest.raises(ValueError):
            stochastic.fit_multiexp(trace, 3)


def _nonpositive_gaps(theta, t, n):
    lam = -np.exp(theta[:n])
    amps = np.append(theta[n:], 1.0 - np.sum(theta[n:]))
    return direct.density(direct.PhaseTypeParams(lam, amps), t) <= 0.0


def _central_gradient(theta, t, n, h=1e-6):
    """Central differences of the objective of ``fit_multiexp``.

    The penalty counts the nonpositive gaps, so the objective is smooth
    only while that set stays the same; every step checks that it does.
    """
    bad = _nonpositive_gaps(theta, t, n)
    grad = np.empty_like(theta)
    for i in range(theta.size):
        step = np.zeros_like(theta)
        step[i] = h
        for moved in (theta + step, theta - step):
            assert np.array_equal(_nonpositive_gaps(moved, t, n), bad)
        hi = stochastic._negloglik((theta + step)[None], t, n)[0][0]
        lo = stochastic._negloglik((theta - step)[None], t, n)[0][0]
        grad[i] = (hi - lo) / (2 * h)
    return grad


def test_negloglik_gradient():
    t = np.concatenate([np.linspace(0.05, 1.0, 40), np.linspace(1.1, 6.0, 60)])
    rng = np.random.default_rng(11)
    cases = [
        # n = 1: c = -lambda > 0 always, so only an exponential that
        # underflows to 0 reaches the penalty branch: here at every gap
        # past 1.1, while f stays a normal number at the gaps up to 1.
        (1, np.log([2.0]), False),
        (1, np.log([0.3]), False),
        (1, np.log([680.0]), True),
        (3, np.array([np.log(5.0), np.log(2.0), np.log(0.5), 0.3, 0.3]),
         False),
        # f = 10 e^-5t - 3 e^-2t + 0.25 e^-t/2 is negative near t = 1.
        (3, np.array([np.log(5.0), np.log(2.0), np.log(0.5), 2.0, -1.5]),
         True),
        # A pinned at the amplitude bound, negative in the tail.
        (3, np.array([np.log(8.0), np.log(3.0), np.log(0.7), 10.0, -10.0]),
         True),
    ]
    for _ in range(4):
        log_rates = rng.uniform(-1.5, 2.5, 3)
        # Positive amplitudes give a positive density.
        cases.append((3, np.append(log_rates, rng.uniform(0.05, 0.45, 2)),
                      False))
        cases.append((3, np.append(log_rates, rng.uniform(-3.0, 3.0, 2)),
                      None))
    for n, theta, penalized in cases:
        if penalized is not None:
            assert _nonpositive_gaps(theta, t, n).any() == penalized
        grad = stochastic._negloglik(theta[None], t, n)[1][0]
        want = _central_gradient(theta, t, n)
        assert np.linalg.norm(grad - want) <= 1e-6 * np.linalg.norm(want), (
            n, theta)


def _gaps():
    return np.concatenate([np.linspace(0.05, 1.0, 40),
                           np.linspace(1.1, 6.0, 60)])


# Feasible and penalized iterates for n = 1 and n = 3 (see
# test_negloglik_gradient for why each is penalized or not).
HESSIAN_CASES = [
    (1, np.log([2.0]), False),
    (1, np.log([680.0]), True),
    (3, np.array([np.log(5.0), np.log(2.0), np.log(0.5), 0.3, 0.3]), False),
    (3, np.array([np.log(5.0), np.log(2.0), np.log(0.5), 2.0, -1.5]), True),
    (3, np.array([np.log(8.0), np.log(3.0), np.log(0.7), 10.0, -10.0]), True),
]


@pytest.mark.parametrize("n, theta, penalized", HESSIAN_CASES)
def test_negloglik_hessian(n, theta, penalized):
    """The Hessian matches central differences of the gradient."""
    t, h = _gaps(), 1e-6
    bad = _nonpositive_gaps(theta, t, n)
    assert bad.any() == penalized
    hess = stochastic._negloglik(theta[None], t, n)[2][0]
    want = np.empty_like(hess)
    for i in range(theta.size):
        step = np.zeros_like(theta)
        step[i] = h
        for moved in (theta + step, theta - step):
            assert np.array_equal(_nonpositive_gaps(moved, t, n), bad)
        hi = stochastic._negloglik((theta + step)[None], t, n)[1][0]
        lo = stochastic._negloglik((theta - step)[None], t, n)[1][0]
        want[:, i] = (hi - lo) / (2 * h)
    assert np.linalg.norm(hess - want) <= 1e-6 * np.linalg.norm(want)


def test_negloglik_rows_are_independent():
    """Each row of a batched evaluation equals its one-row evaluation."""
    t = _gaps()
    theta = np.array([case[1] for case in HESSIAN_CASES[2:]])
    batched = stochastic._negloglik(theta, t, 3)
    for i, row in enumerate(theta):
        single = stochastic._negloglik(row[None], t, 3)
        for got, want in zip(batched, single):
            np.testing.assert_array_equal(got[i], want[0])


def test_negloglik_blocks_sum_to_the_whole(monkeypatch):
    """Summing over blocks of gaps changes the result only by rounding."""
    t = _gaps()
    theta = np.array([case[1] for case in HESSIAN_CASES[2:]])
    whole = stochastic._negloglik(theta, t, 3)
    monkeypatch.setattr(stochastic, "_GAP_BLOCK", 7)
    blocked = stochastic._negloglik(theta, t, 3)
    for got, want in zip(blocked, whole):
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("n_events", [1000, 20_000])
def test_fit_is_reproducible(n_events):
    # 20 000 gaps exceed _SUBSAMPLE, so the restarts run on the subsample.
    trace = stochastic.simulate_events(m9_generator(), n_events, seed=12)
    first = stochastic.fit_multiexp(trace, 3)
    second = stochastic.fit_multiexp(trace, 3)
    np.testing.assert_array_equal(first.params.lam, second.params.lam)
    np.testing.assert_array_equal(first.params.A, second.params.A)
    assert first.log_likelihood == second.log_likelihood


@pytest.mark.parametrize("tag,n_events,seed,want", [
    # With a margin _PRUNE of 1 these two drop by 2.8e-4 and 8.6e-4.
    ("M8", 1000, 1893093023, -1225.69796095239),
    ("M8", 1000, 1297861076, -1090.357982863726),
    # Over _SUBSAMPLE gaps: pruning the subsample batch as well drops
    # this one by 1.2e-3.
    ("M2", 12_000, 2032373415, -5209.076375274339),
])
def test_pruning_keeps_the_best_fit(tag, n_events, seed, want):
    # Log-likelihoods of these fits before runs were pruned.
    gen = models.build_generator(models.model_from_string(tag),
                                 np.arange(1.0, 6.0))
    trace = stochastic.simulate_events(gen, n_events, seed)
    fit = stochastic.fit_multiexp(trace, 3)
    assert fit.log_likelihood == pytest.approx(want, rel=1e-9, abs=0.0)


def test_a_run_that_cannot_win_leaves_unconverged():
    gen = models.build_generator(models.M8, np.arange(1.0, 6.0))
    t = stochastic.simulate_events(gen, 1000, 1297861076).gaps
    n = 3
    lo = np.array([np.log(0.01 / t.max())] * n + [-10.0] * (n - 1))
    hi = np.array([np.log(100.0 / t.min())] * n + [10.0] * (n - 1))
    starts = np.clip(stochastic._initial_points(
        t, n, stochastic.FitConfig()), lo, hi)
    theta, fval, converged = stochastic._newton_batch(
        starts, t, n, lo, hi, prune=False)
    done = np.flatnonzero(converged)
    win, lose = done[np.argmin(fval[done])], done[np.argmax(fval[done])]
    assert fval[lose] - fval[win] > 1.0
    # The winner at its optimum, and a loser moved off its own.
    batch = np.array([theta[win], theta[lose] + 0.01])
    kept = stochastic._newton_batch(batch, t, n, lo, hi, prune=False)
    pruned = stochastic._newton_batch(batch, t, n, lo, hi)
    assert kept[2].tolist() == [True, True]
    assert pruned[2].tolist() == [True, False]
    np.testing.assert_array_equal(pruned[0][0], kept[0][0])
    assert pruned[1][0] == kept[1][0] < pruned[1][1]


def test_halvings_to_positive_ends_match_one_at_a_time():
    # Steps from admissible points that leave f(0) > 0 or the positive
    # tail, at step lengths 1 .. 2**-11: the one-pass choice against
    # halving one round at a time, down to _MIN_STEP.
    rng = np.random.default_rng(4)
    n = 3
    theta = np.concatenate([rng.uniform(-1.0, 1.0, (400, n)),
                            rng.uniform(0.0, 0.6, (400, n - 1))], axis=1)
    theta = theta[stochastic._positive_ends(theta, n)]
    step = rng.normal(0.0, 50.0, theta.shape)
    alpha = np.ldexp(1.0, -rng.integers(0, 12, len(theta)))
    hi = np.array([3.0] * n + [10.0] * (n - 1))
    lost = ~stochastic._positive_ends(
        np.clip(theta + alpha[:, None] * step, -hi, hi), n)
    th, step, alpha = theta[lost], step[lost], alpha[lost]
    got = stochastic._halve_to_ends(th, step, alpha, -hi, hi, n)
    for i in range(len(th)):
        a = alpha[i]
        while True:
            a *= 0.5
            point = np.clip(th[i] + a * step[i], -hi, hi)
            if a < stochastic._MIN_STEP or stochastic._positive_ends(
                    point[None], n)[0]:
                break
        found = a >= stochastic._MIN_STEP
        assert got[2][i] == found
        if found:
            assert got[0][i] == a
            np.testing.assert_array_equal(got[1][i], point)
    assert 0 < got[2].sum() < len(th)


class TestCsv:
    def test_round_trip(self, tmp_path):
        gen = m9_generator()
        trace = stochastic.simulate_events(gen, 200, seed=10)
        path = str(tmp_path / "trace.csv")
        stochastic.write_trace_csv(trace, path)
        loaded = stochastic.read_trace_csv(path)
        np.testing.assert_array_equal(loaded.gaps, trace.gaps)

    def test_header_required(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("0.5\n0.7\n")
        with pytest.raises(ValueError):
            stochastic.read_trace_csv(str(path))
