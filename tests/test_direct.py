"""Forward-problem tests: spectra, survival functions, and moments.

The independent oracle throughout is the matrix exponential of the full
generator: starting from the return state, the survival function is the
probability mass not yet absorbed at time t.
"""

import os
import subprocess
import sys

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings, strategies as st

from phasekit import direct, inverse, models
from phasekit.errors import DegenerateSpectrum, NonErgodic, PhasekitError

import mp_reference
from mp_reference import mp_moments, mp_phase_type_params, rel_error_eps


RATES = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
EPS = np.finfo(float).eps


def expm_survival(gen, ts):
    """Absorption-based survival oracle via scipy's matrix exponential."""
    start = np.zeros(gen.N + 1)
    start[gen.return_state - 1] = 1.0
    return np.array([
        1.0 - (start @ scipy.linalg.expm(gen.Q * t))[gen.N] for t in ts
    ])


rate_vectors = st.lists(
    st.floats(min_value=0.05, max_value=20.0), min_size=5, max_size=5
)


class TestSpectrum:
    def test_matches_scipy_eigenvalues(self):
        gen = models.build_generator(models.M9, RATES)
        spec = direct.spectrum(gen)
        ref = np.sort(np.linalg.eigvals(gen.Qtilde).real)
        np.testing.assert_allclose(np.sort(spec.eigenvalues), ref, rtol=1e-12)

    def test_negative_real(self):
        gen = models.build_generator(models.M2, RATES)
        spec = direct.spectrum(gen)
        assert spec.is_real_distinct
        assert all(l < 0 for l in spec.eigenvalues)


class TestPhaseTypeParams:
    @pytest.mark.parametrize("tag", ["M2", "M3", "M4", "M8", "M9"])
    def test_survival_matches_expm(self, tag):
        gen = models.build_generator(models.model_from_string(tag), RATES)
        p = direct.phase_type_params(gen)
        ts = np.linspace(0.0, 5.0, 11)
        np.testing.assert_allclose(
            direct.survival(p, ts), expm_survival(gen, ts), atol=1e-10)

    def test_amplitudes_sum_to_one(self):
        gen = models.build_generator(models.M8, RATES)
        p = direct.phase_type_params(gen)
        assert np.isclose(sum(p.A), 1.0, atol=1e-12)

    def test_survival_at_zero(self):
        gen = models.build_generator(models.M4, RATES)
        p = direct.phase_type_params(gen)
        assert np.isclose(direct.survival(p, 0.0), 1.0)

    def test_density_integrates_to_one(self):
        gen = models.build_generator(models.M9, RATES)
        p = direct.phase_type_params(gen)
        ts = np.linspace(0.0, 200.0, 400001)
        integral = np.trapezoid(direct.density(p, ts), ts)
        assert np.isclose(integral, 1.0, atol=1e-6)

    def test_mean_time(self):
        gen = models.build_generator(models.M9, RATES)
        p = direct.phase_type_params(gen)
        # Integral of the survival function equals the mean gap.
        ts = np.linspace(0.0, 300.0, 600001)
        mean_num = np.trapezoid(direct.survival(p, ts), ts)
        assert np.isclose(direct.mean_time(p), mean_num, rtol=1e-6)

    @pytest.mark.parametrize("rates", [[0.0, 2.0, 3.0], [1.0, 2.0, 0.0]])
    def test_closed_class_is_non_ergodic(self, rates):
        # A zero rate traps the walker in state 1, or keeps it from the
        # exit: det(-Qtilde) = 0, and 0 is an eigenvalue.
        gen = models.build_generator(models.unbranched_chain(2),
                                     np.array(rates))
        with pytest.raises(NonErgodic, match="det"):
            direct.phase_type_params(gen)

    def test_unreachable_state_keeps_its_form(self):
        # k2 = 0: state 1 is never re-entered, but every state reaches
        # the exit, so det(-Qtilde) = 3 and state 1 loads nothing.
        gen = models.build_generator(models.unbranched_chain(2),
                                     np.array([1.0, 0.0, 3.0]))
        assert not models.validate(gen).strongly_connected
        p = direct.phase_type_params(gen)
        np.testing.assert_array_equal(p.lam, [-1.0, -3.0])
        np.testing.assert_array_equal(p.A, [0.0, 1.0])

    @settings(max_examples=40, deadline=None)
    @given(rates=rate_vectors)
    # lambda_min = -4.46e-4 beside rates up to 14: a dense eigensolve
    # alone leaves S(0) - 1 = 2.2e-12.
    @example(rates=[0.125, 2.0, 14.0, 1.0, 0.05078125])
    def test_survival_decreasing_property(self, rates):
        gen = models.build_generator(models.M9, np.array(rates))
        eigs = np.linalg.eigvals(gen.Qtilde)
        if np.any(np.abs(eigs.imag) > 1e-10):
            return
        if np.min(np.diff(np.sort(eigs.real))) < 1e-6:
            return
        try:
            p = direct.phase_type_params(gen)
        except DegenerateSpectrum:
            # Non-degeneracy restriction: mixtures need every mode to
            # load on the observed state.
            return
        ts = np.linspace(0.0, 10.0, 200)
        vals = direct.survival(p, ts)
        assert np.all(np.diff(vals) <= 1e-12)
        assert np.all(vals <= 1.0 + 1e-12)


class TestSymmetricFunctions:
    def test_elementary_symmetric(self):
        lam = np.array([-1.0, -2.0, -5.0])
        esp = direct.elementary_symmetric(lam)
        # Signed coefficients of the monic polynomial with these roots.
        ref = np.poly(lam)
        np.testing.assert_allclose(
            esp, [-ref[1], ref[2], -ref[3]], rtol=1e-14)

    def test_moments_consistency(self):
        gen = models.build_generator(models.M9, RATES)
        p = direct.phase_type_params(gen)
        m_spec = direct.moments(p)
        m_gen = direct.moments_from_generator(gen)
        np.testing.assert_allclose(
            m_spec.as_vector(), m_gen.as_vector(), rtol=1e-9)

    def test_m9_example_moments(self):
        gen = models.build_generator(models.M9, RATES)
        m = direct.moments_from_generator(gen)
        np.testing.assert_allclose(m.L, (-15.0, 27.0, -10.0), rtol=1e-12)
        np.testing.assert_allclose(m.S, (-5.0, 60.0), rtol=1e-12)

    def test_s1_is_negated_exit_flux(self):
        gen = models.build_generator(models.M4, RATES)
        p = direct.phase_type_params(gen)
        m = direct.moments(p)
        # S1 equals minus the stationary exit flux density f(0).
        assert np.isclose(m.S[0], -direct.density(p, 0.0), rtol=1e-10)

    @settings(max_examples=40, deadline=None)
    @given(rates=rate_vectors)
    def test_charpoly_oracle_property(self, rates):
        gen = models.build_generator(models.M8, np.array(rates))
        m = direct.moments_from_generator(gen)
        # L holds the signed characteristic coefficients of Qtilde.
        coeffs = np.poly(gen.Qtilde)
        np.testing.assert_allclose(
            m.L, (-coeffs[1], coeffs[2], -coeffs[3]),
            rtol=1e-8, atol=1e-10)


class TestParamsFromMoments:
    @pytest.mark.parametrize("model,rates", [
        (models.M9, [1.0, 2.0, 3.0, 4.0, 5.0]),
        (models.unbranched_chain(4), [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0]),
    ])
    def test_round_trip(self, model, rates):
        p = direct.phase_type_params(models.build_generator(model, rates))
        back = direct.params_from_moments(direct.moments(p)).sorted()
        np.testing.assert_allclose(back.lam, p.lam, rtol=1e-12)
        np.testing.assert_allclose(back.A, p.A, rtol=1e-9)

    def test_complex_roots_raise(self):
        # Roots -1 and -1 +- i.
        m = direct.SymmetricMoments(L=(-3.0, 4.0, -2.0), S=(-1.0, 1.0))
        with pytest.raises(DegenerateSpectrum):
            direct.params_from_moments(m)


def test_import_leaves_scipy_unloaded():
    # The library does not use scipy: it would double the time
    # `import phasekit` takes.
    src = os.path.dirname(os.path.dirname(direct.__file__))
    out = subprocess.run(
        [sys.executable, "-c",
         "import os, sys, phasekit as pk\n"
         "from phasekit import cli\n"
         "print('scipy' in sys.modules)\n"
         "pk.phase_type_params(pk.build_generator(pk.unbranched_chain(4),\n"
         "                                        range(1, 8)))\n"
         "print('scipy' in sys.modules)\n"
         "gen = pk.build_generator(pk.model_from_string('M9'), range(1, 6))\n"
         "pk.fit_multiexp(pk.simulate_events(gen, 200, 1), 3)\n"
         "print('scipy' in sys.modules)\n"
         "cli.main(['pipeline', '--model', 'M9', '--rates', '1,2,3,4,5',\n"
         "          '--n', '300', '--seed', '1', '--restarts', '2',\n"
         "          '--out', os.devnull])\n"
         "print('scipy' in sys.modules)"],
        capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": src})
    # Nor does the forward map of a chain, the fit or the pipeline load it.
    assert out.stdout.split() == ["False"] * 4


def test_import_leaves_mpmath_unloaded():
    # Extended precision runs on the standard library's decimal module;
    # mpmath serves only the tests' independent references.
    src = os.path.dirname(os.path.dirname(direct.__file__))
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, phasekit as pk\n"
         "from phasekit import cli\n"
         "print('mpmath' in sys.modules)\n"
         "gen = pk.build_generator(pk.unbranched_chain(4), range(1, 8))\n"
         "p = pk.phase_type_params(gen)\n"
         "pk.invert_unbranched(4, p)\n"
         "print('mpmath' in sys.modules)"],
        capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.split() == ["False"] * 2


class TestForwardAccuracy:
    """Regression inputs where the float64 forward map used to lose
    relative accuracy to cancellation."""

    def test_moments_match_extended_precision(self):
        # Criterion-5 draw (seed 22, input 238): L3 ~ 2.3e-5 beside rates
        # up to 91; trace-based coefficients put its variants' p3 3.5e-7
        # apart.
        k = [0.011295008395206122, 0.5359560150546294, 90.7269817444433,
             0.08982790586779642, 0.022631436015290683]
        got = direct.moments_from_generator(
            models.build_generator(models.M8, k)).as_vector()
        ref = np.array([float(x) for x in mp_moments(models.M8, k)])
        np.testing.assert_allclose(got, ref, rtol=4 * EPS, atol=0.0)

    def test_chain_slow_mode_matches_extended_precision(self):
        # Criterion-2 draw (seed 102, N = 6): lambda_min = -1.1e-14 beside
        # rates up to 67, so one ulp of a float64 diagonal entry moves it
        # by O(1) in relative terms.
        k = [0.14177956492734972, 0.3696689545639599, 0.028318294303533952,
             0.06418020038817743, 0.017507960899422352, 30.898753528954014,
             42.61716953178391, 67.48692500526684, 51.82203245524198,
             16.158537571264116, 0.5241788603072293]
        model = models.unbranched_chain(6)
        p = direct.phase_type_params(models.build_generator(model, k))
        lam, amps = mp_phase_type_params(model, k)
        np.testing.assert_allclose(p.lam, lam, rtol=1e-13, atol=0.0)
        np.testing.assert_allclose(p.A, amps, rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize("model, draws", [
        *((models.model_from_string(tag), 200)
          for tag in ("M2", "M3", "M4", "M8", "M9")),
        *((models.unbranched_chain(n), 30) for n in range(1, 9)),
    ], ids=str)
    def test_params_match_extended_precision(self, model, draws):
        # Rates over four decades.  Every model takes the same path: 70-digit
        # Newton on the GTH characteristic polynomial, then the closed-form
        # amplitudes, so each lambda_i and A_i is good to a few eps.
        rng = np.random.default_rng(list(str(model).encode()))  # per model
        for _ in range(draws):
            k = 10.0 ** rng.uniform(-2.0, 2.0, size=model.n_rates)
            try:
                p = direct.phase_type_params(models.build_generator(model, k))
            except DegenerateSpectrum:  # complex or unseparated spectrum
                continue
            lam, amps = mp_phase_type_params(model, k)
            assert rel_error_eps(p.lam, lam) <= 8.0, k
            assert rel_error_eps(p.A, amps) <= 8.0, k

    def test_chain_amplitudes_keep_their_sign(self, monkeypatch):
        # Chain8 draw over +-4 decades whose smallest amplitude, 4.06e-70,
        # came out as -4.7e-66 from a 60-digit forward map, after which
        # invert_unbranched rejected the chain's own parameters as a
        # nonpositive spectral weight.  The reference needs 150 digits to
        # resolve it beside rates up to 8e3.
        k = [4.227255942169772, 0.05274945304531849, 0.007934002165281116,
             0.00034893639988267325, 0.008942442662062573,
             0.020519348975889536, 0.056630512511512375, 8012.64817916364,
             5.489896929960661, 0.0034463790215504874, 0.09219363671359658,
             0.28775787350692794, 0.00046257834600548273,
             0.5586868736638637, 1.1649685534861618]
        model = models.unbranched_chain(8)
        p = direct.phase_type_params(models.build_generator(model, k))
        monkeypatch.setattr(mp_reference, "DPS", 150)
        _, amps = mp_phase_type_params(model, k)
        assert np.all(p.A > 0.0), p.A
        np.testing.assert_allclose(p.A, amps, rtol=1e-4, atol=0.0)
        sol = inverse.invert_unbranched(8, p)
        np.testing.assert_allclose(sol.rates, k, rtol=1e-4, atol=0.0)

    @pytest.mark.parametrize("n", range(2, 9))
    def test_chain_moments_match_extended_precision(self, n):
        # Rates over four decades.  Each minor of a chain is a product of
        # the minors of its intervals, which must keep the accuracy of
        # one GTH elimination over the whole subset.
        rng = np.random.default_rng(n)
        k = 10.0 ** rng.uniform(-2.0, 2.0, size=2 * n - 1)
        model = models.unbranched_chain(n)
        got = np.array(direct.moment_vector(model, k.tolist()), dtype=float)
        ref = np.array([float(x) for x in mp_moments(model, k)])
        np.testing.assert_allclose(got, ref, rtol=8 * EPS, atol=0.0)


class TestBatchedForwardMap:
    """moment_vector on rates with a trailing batch axis, one model per
    column, against one scalar call per column."""

    CATALOG = (models.M2, models.M4, models.M8, models.M9)

    def scalar_columns(self, batch, k):
        return np.array([direct.moment_vector(model, k[:, j].tolist())
                         for j, model in enumerate(batch)]).T

    def test_mixed_models_match_scalar_calls_bit_for_bit(self):
        rng = np.random.default_rng(7)
        k = 10.0 ** rng.uniform(-2.0, 2.0, size=(5, 400))
        k[rng.uniform(size=k.shape) < 0.15] *= -1.0  # invalid branches
        batch = tuple(self.CATALOG[i] for i in rng.integers(0, 4, 400))
        got = np.array(direct.moment_vector(batch, k))
        np.testing.assert_array_equal(got, self.scalar_columns(batch, k))

    def test_zero_pivot_zeroes_its_column_only(self):
        # With k3 = k4 = k5 = 0 no flow leaves state 3 of M9, so the
        # minors over {1, 3}, {2, 3} and {1, 2, 3} meet a zero pivot.
        k = np.array([[1.0, 0.3, 1.0], [2.0, 2.0, 2.0], [0.0, 7.0, 3.0],
                      [0.0, 0.5, 4.0], [0.0, 1.5, 5.0]])
        batch = (models.M9, models.M2, models.M9)
        with np.errstate(all="raise"):
            got = np.array(direct.moment_vector(batch, k))
        want = self.scalar_columns(batch, k)
        np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(want[:, 0], [-3.0, 2.0, 0.0, 0.0, 0.0])
        np.testing.assert_array_equal(
            got[:, 1:], np.array(direct.moment_vector(batch[1:], k[:, 1:])))

    @pytest.mark.parametrize("batch, k", [
        ([], np.empty((5, 0, 1))),
        ([models.M9, models.unbranched_chain(2)], np.ones((5, 2))),
    ], ids=["empty", "mixed-N"])
    @pytest.mark.parametrize("fn", [direct.moment_vector,
                                    direct.no_exit_markers])
    def test_batch_without_one_N_is_typed_error(self, fn, batch, k):
        with pytest.raises(PhasekitError, match="one or more models of one"):
            fn(batch, k)

    def test_caller_rates_unmodified(self):
        rng = np.random.default_rng(3)
        k = rng.uniform(0.1, 5.0, size=(5, 8))
        rows = [row.copy() for row in k]
        before = k.copy()
        direct.moment_vector(self.CATALOG * 2, k)
        direct.moment_vector(models.M9, rows)
        np.testing.assert_array_equal(k, before)
        np.testing.assert_array_equal(np.array(rows), before)
        # A dense flow table, whose elimination updates every entry of
        # the states left, keeps its arrays as well.
        R = [[None if i == j else rng.uniform(0.1, 5.0, size=8)
              for j in range(4)] for i in range(3)]
        saved = [[None if x is None else x.copy() for x in row] for row in R]
        direct._gth_det(R, [0, 1, 2], [3])
        for row, old in zip(R, saved):
            for x, y in zip(row, old):
                assert x is None and y is None or np.array_equal(x, y)
