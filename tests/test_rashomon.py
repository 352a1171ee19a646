"""Variant-model tests: markers, symmetries, maps, and the experiment."""

import numpy as np
import pytest

from phasekit import direct, inverse, models, rashomon
from phasekit.errors import (DomainViolation, GenericBranchMiss,
                             NegativeDiscriminant, SingularSteadyState)

from mp_reference import (mp_closed_form_markers, mp_no_exit_markers,
                          rel_error_eps)


M9_RATES = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
#: Lumpable M9 rates (k1 = k2), from the variants benchmark inputs.
LUMPABLE_M9 = [6.436347528366836, 6.436347528366836, 1.0508460580421164,
               4.414599337967416, 0.6003726803842672]
#: Lumpable M9 rates, also from the variants benchmark inputs, whose M8
#: Thomas solution S3/00000 has k3 at 127.5 eps of its largest rate.
LUMPABLE_M9_K3 = [0.23748954533683428, 0.23748954533683428,
                  11.467584218175574, 75.86419643542978,
                  0.019443050680591042]


def params_for(tag, rates):
    gen = models.build_generator(
        models.model_from_string(tag), np.asarray(rates, dtype=float))
    return direct.phase_type_params(gen)


class TestMarkers:
    def test_m9_worked_example(self):
        mk = rashomon.markers(models.M9, M9_RATES)
        np.testing.assert_allclose(mk.T, (1.0, 0.5, 1.0 / 7.0), rtol=1e-12)
        np.testing.assert_allclose(
            mk.p, (0.5, 1.0 / 3.0, 1.0 / 6.0), rtol=1e-12)

    def test_m8_worked_example(self):
        mk = rashomon.markers(models.M8, [1.0, 2.0, 1.5, 5.5, 5.0])
        np.testing.assert_allclose(
            mk.p, (0.25, 7.0 / 12.0, 1.0 / 6.0), rtol=1e-12)

    @pytest.mark.parametrize("tag,rates", [
        ("M2", [1.0, 2.0, 3.0, 4.0, 5.0]),
        ("M4", [1.0, 1.5, 4.0, 3.0, 5.0]),
        ("M8", [1.0, 2.0, 1.5, 5.5, 5.0]),
        ("M9", [1.0, 2.0, 3.0, 4.0, 5.0]),
    ])
    def test_against_closed_forms(self, tag, rates):
        model = models.model_from_string(tag)
        mk = rashomon.markers(model, rates)
        ref = [float(x) for x in mp_closed_form_markers(tag, rates)]
        np.testing.assert_allclose(mk.T, ref[:3], rtol=1e-10)
        np.testing.assert_allclose(mk.p, ref[3:], rtol=1e-10)

    @pytest.mark.parametrize("tag", ["M2", "M4", "M8", "M9"]
                             + [f"chain{n}" for n in range(2, 9)])
    def test_few_ulps_relative(self, tag):
        # Every lifetime and occupancy is within 8 eps, relative, of its
        # 50-digit value on rates spanning four decades.
        model = models.model_from_string(tag)
        oracle = (mp_no_exit_markers if model.tag == "chain"
                  else lambda model, k: mp_closed_form_markers(tag, k))
        rng = np.random.default_rng(9)
        worst = 0.0
        for _ in range(200):
            k = 10.0 ** rng.uniform(-2.0, 2.0, size=model.n_rates)
            mk = rashomon.markers(model, k)
            worst = max(worst, rel_error_eps(mk.T + mk.p, oracle(model, k)))
        assert worst <= 8.0

    @pytest.mark.parametrize("rates", [
        [1.0, 2.0, 0.0, 0.0, 5.0],  # state 3 has no hidden out-rate
        [1.0, 2.0, 0.0, 4.0, 5.0],  # states 2, 3 form a closed class
    ])
    def test_undefined_markers_raise(self, rates):
        with pytest.raises(SingularSteadyState):
            rashomon.markers(models.M9, rates)

    def test_occupancies_sum_to_one(self):
        mk = rashomon.markers(models.M4, [1.0, 1.5, 4.0, 3.0, 5.0])
        assert np.isclose(sum(mk.p), 1.0, rtol=1e-12)

    def test_mean_gap_identity(self):
        # mean inter-event time = 1 / (p_N * exit rate)
        p = params_for("M9", M9_RATES)
        mk = rashomon.markers(models.M9, M9_RATES)
        assert np.isclose(
            direct.mean_time(p), 1.0 / (mk.p[2] * M9_RATES[-1]), rtol=1e-12)


class TestSymmetryAndMaps:
    def test_sigma_m9_preserves_moments(self):
        gen = models.build_generator(models.M9, M9_RATES)
        gen2 = models.build_generator(models.M9, rashomon.sigma_m9(M9_RATES))
        np.testing.assert_allclose(
            direct.moments_from_generator(gen).as_vector(),
            direct.moments_from_generator(gen2).as_vector(), rtol=1e-12)

    def test_sigma_m9_is_involution(self):
        np.testing.assert_array_equal(
            rashomon.sigma_m9(rashomon.sigma_m9(M9_RATES)), M9_RATES)

    @pytest.mark.parametrize("fwd,back,target", [
        (rashomon.map_m9_to_m8, rashomon.map_m8_to_m9, "M8"),
        (rashomon.map_m9_to_m4, rashomon.map_m4_to_m9, "M4"),
    ])
    def test_maps_preserve_moments_and_invert(self, fwd, back, target):
        src = rashomon.sigma_m9(M9_RATES) if target == "M4" else M9_RATES
        image = fwd(src)
        assert np.all(image > 0.0)
        gen_src = models.build_generator(models.M9, src)
        gen_img = models.build_generator(
            models.model_from_string(target), image)
        np.testing.assert_allclose(
            direct.moments_from_generator(gen_src).as_vector(),
            direct.moments_from_generator(gen_img).as_vector(), rtol=1e-10)
        np.testing.assert_allclose(back(image), src, rtol=1e-10)

    def test_maps_share_lifetimes(self):
        src = M9_RATES
        mk_src = rashomon.markers(models.M9, src)
        mk_img = rashomon.markers(models.M8, rashomon.map_m9_to_m8(src))
        np.testing.assert_allclose(mk_src.T, mk_img.T, rtol=1e-10)

    def test_map_domain_violation(self):
        # m9 -> m8 needs the second rate above the first
        with pytest.raises(DomainViolation):
            rashomon.map_m9_to_m8([2.0, 1.0, 3.0, 4.0, 5.0])


class TestEnumerateVariants:
    def test_m9_example_variant_set(self):
        report = rashomon.enumerate_variants(params_for("M9", M9_RATES))
        assert report.n_valid >= 4
        by_model = {}
        for inst in report.instances:
            if inst.valid:
                by_model.setdefault(str(inst.solution.model), []).append(inst)
        assert set(by_model) == {"M2", "M4", "M8", "M9"}

    def test_shared_invariants_tiny(self):
        report = rashomon.enumerate_variants(params_for("M9", M9_RATES))
        for name in ("k5", "T3", "p3"):
            assert report.constraint_spreads[name] < 1e-8

    def test_p1_discriminates(self):
        report = rashomon.enumerate_variants(params_for("M9", M9_RATES))
        assert report.deltas["p1"] > 0.1
        assert report.deltas["p3"] < 1e-8

    def test_lumpable_m9_keeps_report(self):
        # k1 = k2.  Validity is positivity of the rates beyond the
        # rounding band and nothing else: every positive solution has
        # markers.  On the second input the M8 Thomas solution has k3 at
        # 127.5 eps of its largest rate, outside the band, so it is a
        # valid variant with p1 > 0.
        for rates in (LUMPABLE_M9, LUMPABLE_M9_K3):
            report = rashomon.enumerate_variants(params_for("M9", rates))
            for inst in report.instances:
                assert inst.valid == inst.solution.all_positive
                assert (inst.markers is not None) == inst.valid
            assert not any(v.startswith("markers:")
                           for v in report.diagnostics.values())
            for name in ("k5", "T3", "p3"):
                assert report.constraint_spreads[name] < 1e-8
        m8, = [inst for inst in report.instances
               if str(inst.solution.model) == "M8"
               and inst.solution.branch == "S3/00000"]
        assert m8.valid and m8.markers.p[0] > 0.0

    def test_lumpable_m9_rounding_zero_rates_invalid(self):
        # The M2 generic and M4 Thomas solutions have k1 ~ 3e-15 here, an
        # exact zero plus rounding noise; they are no valid variants.
        report = rashomon.enumerate_variants(params_for("M9", LUMPABLE_M9))
        band = 64.0 * np.finfo(float).eps
        small = [i for i in report.instances
                 if np.min(i.solution.rates)
                 <= band * np.max(i.solution.rates)]
        assert {str(i.solution.model) for i in small} >= {"M2", "M4"}
        assert not any(i.valid or i.solution.all_positive for i in small)

    def test_diagnostics_name_both_searches(self):
        # An M8 input with k1 = k2: the M9 generic discriminant is zero
        # to rounding, and no simple system of M9 accepts the input.
        report = rashomon.enumerate_variants(params_for("M8", [
            5.67266219538856, 5.67266219538856, 0.03470451824669471,
            7.690478472027461, 1.2630405385729204]))
        generic, thomas = report.diagnostics["M9"].split("; ")
        assert generic.startswith("generic branch requires")
        assert thomas == "no simple system of M9 accepts the input"
        valid = {(str(i.solution.model), i.solution.branch)
                 for i in report.instances if i.valid}
        assert {("M4", "S4/00000"), ("M8", "S3/00000")} <= valid

    def test_original_rates_in_variant_set(self):
        report = rashomon.enumerate_variants(params_for("M9", M9_RATES))
        dists = [
            np.max(np.abs(np.asarray(i.solution.rates) - M9_RATES))
            for i in report.instances
            if i.valid and str(i.solution.model) == "M9"
        ]
        assert min(dists) < 1e-8


class TestVariantMarkers:
    """_variant_markers applies the one variant rule (validity, markers
    and spreads) for enumerate_variants and the experiment."""

    EPS = np.finfo(float).eps
    # Rates k[:, variant, input] of two inputs.  Input 0 has a valid M9
    # column, an M9 column with k3 inside the 64-eps band, an M9 column
    # with a nan rate and a valid M8 column.  Input 1 has no valid
    # column: a rate in the band, a negative rate, a nan rate, and
    # positive M8 rates whose inequations failed.
    M9_K = np.array([
        [[1.0, 2.0, 3.0, 4.0, 5.0], [0.3, 2.0, 7.0, 100 * EPS, 1.5]],
        [[1.0, 2.0, 50 * EPS, 4.0, 5.0], [0.3, -2.0, 7.0, 0.5, 1.5]],
        [[np.nan, 2.0, 3.0, 4.0, 5.0], [0.3, 2.0, 7.0, np.nan, 1.5]],
    ]).transpose(2, 0, 1)
    M8_K = np.array([[[1.0, 2.0, 1.5, 5.5, 5.0],
                      [1.0, 2.0, 1.5, 5.5, 5.0]]]).transpose(2, 0, 1)
    M8_OK = np.array([[True, False]])
    VALID = [[True, False], [False, False], [False, False], [True, False]]

    def expected_spreads(self, cols):
        """Each row of SPREAD_ROWS over the (model, rates) columns, from
        rashomon.markers, by np.ptp and max."""
        rows = []
        for model, k in cols:
            mk = rashomon.markers(model, k)
            rows.append([mk.p[0], np.log10(mk.T[0]), mk.p[1],
                         np.log10(mk.T[1]), mk.p[2], np.log10(mk.T[2]),
                         mk.T[2], k[4]])
        rows = np.array(rows)
        return np.ptp(rows, axis=0), rows.max(axis=0)

    def check_markers(self, cols, valid, T, p):
        for v, (model, k) in enumerate(cols):
            if valid[v]:
                mk = rashomon.markers(model, k)
                assert tuple(T[:, v].tolist()) == mk.T
                assert tuple(p[:, v].tolist()) == mk.p

    def test_batch_of_inputs(self):
        # As the experiment calls it: one model per group, n inputs.
        each, spread, top = rashomon._variant_markers([
            (models.M9, (self.M9_K, True)),
            (models.M8, (self.M8_K, self.M8_OK))])
        valid = np.concatenate([v for v, _, _ in each])
        T, p = (np.concatenate([np.array(g[i]) for g in each], axis=1)
                for i in (1, 2))
        np.testing.assert_array_equal(valid, self.VALID)
        assert T.shape == p.shape == (3, 4, 2)
        cols = [(models.M9, self.M9_K[:, v, 0]) for v in range(3)] + [
            (models.M8, self.M8_K[:, 0, 0])]
        self.check_markers(cols, valid[:, 0], T[:, :, 0], p[:, :, 0])
        # Input 1 has no valid column and is dropped.
        assert spread.shape == top.shape == (len(rashomon.SPREAD_ROWS), 1)
        want, want_top = self.expected_spreads([cols[0], cols[3]])
        np.testing.assert_array_equal(spread[:, 0], want)
        np.testing.assert_array_equal(top[:, 0], want_top)

    def test_one_input_of_many_models(self):
        # As enumerate_variants calls it: one model per column of one input.
        cols = [(models.M9, self.M9_K[:, v, 0]) for v in range(3)] + [
            (models.M8, self.M8_K[:, 0, 0])]
        [(valid, T, p)], spread, top = rashomon._variant_markers([
            ([model for model, _ in cols],
             (np.array([k for _, k in cols]).T[:, :, None], True))])
        np.testing.assert_array_equal(valid[:, 0], [True, False, False,
                                                     True])
        T, p = np.array(T), np.array(p)
        self.check_markers(cols, valid[:, 0], T[:, :, 0], p[:, :, 0])
        want, want_top = self.expected_spreads([cols[0], cols[3]])
        np.testing.assert_array_equal(spread[:, 0], want)
        np.testing.assert_array_equal(top[:, 0], want_top)

    def test_no_valid_column_drops_the_input(self):
        cols = [(models.M9, self.M9_K[:, v, 1]) for v in range(3)]
        _, spread, top = rashomon._variant_markers([
            ([model for model, _ in cols],
             (np.array([k for _, k in cols]).T[:, :, None], True))])
        assert spread.shape == top.shape == (len(rashomon.SPREAD_ROWS), 0)


class TestExperiment:
    def test_small_run_deterministic(self):
        cfg = rashomon.ExperimentConfig(n_samples=500, seed=3)
        r1 = rashomon.discrimination_experiment(cfg)
        r2 = rashomon.discrimination_experiment(cfg)
        assert r1.n_retained == r2.n_retained
        assert r1.histograms == r2.histograms

    def test_kernel_batch_matches_scalar_calls(self):
        # A batch of experiment draws, plus a lumpable M9 input (zero
        # discriminant) and an M3 input (G = 0), gives element for element
        # the candidates and masks of calls on a batch of one, as
        # invert_generic makes them, and those masks all hold exactly when
        # invert_generic accepts the moments.
        draws = rashomon._draw_moments(np.random.default_rng(5), 60)
        degenerate = [direct.moments(params_for(tag, rates)) for tag, rates
                      in (("M9", [2.0, 2.0, 3.0, 4.0, 5.0]),
                          ("M3", [1.0, 2.0, 3.0, 4.0, 5.0]))]
        m = direct.SymmetricMoments(
            L=np.column_stack([draws.L] + [d.L for d in degenerate]),
            S=np.column_stack([draws.S] + [d.S for d in degenerate]))
        batch = inverse.generic_branches(m)
        assert list(batch) == list(models.SOLVABLE_N3)
        for i in range(m.L.shape[1]):
            one = direct.SymmetricMoments(L=m.L[:, i:i + 1],
                                          S=m.S[:, i:i + 1])
            scalar = inverse.generic_branches(one)
            # A single input is taken as a batch of one.
            single = inverse.generic_branches(
                direct.SymmetricMoments(L=m.L[:, i], S=m.S[:, i]))
            for model in models.SOLVABLE_N3:
                (rates, ok, _), (rates_i, ok_i, _) = (batch[model],
                                                      scalar[model])
                assert rates_i.shape[1] == rates.shape[1]
                np.testing.assert_array_equal(rates[:, :, i],
                                              rates_i[:, :, 0])
                np.testing.assert_array_equal(ok[:, i], ok_i[:, 0])
                np.testing.assert_array_equal(single[model][0], rates_i)
                np.testing.assert_array_equal(single[model][1], ok_i)
                try:
                    inverse.invert_generic(
                        model, direct.SymmetricMoments(L=m.L[:, i],
                                                       S=m.S[:, i]))
                    accepted = True
                except (GenericBranchMiss, NegativeDiscriminant):
                    accepted = False
                assert accepted == all(ok_i[:, 0])

    @pytest.mark.parametrize("n", [0, -3])
    def test_needs_a_sample(self, n):
        with pytest.raises(ValueError, match="at least 1"):
            rashomon.ExperimentConfig(n_samples=n)

    def test_retained_fraction_range(self):
        cfg = rashomon.ExperimentConfig(n_samples=2000, seed=7)
        report = rashomon.discrimination_experiment(cfg)
        assert 0.3 < report.retained_fraction < 0.9


class TestBatchedPolish:
    """enumerate_variants polishes the candidates of all four models in
    one batch."""

    RATES = [0.3, 2.0, 7.0, 0.5, 1.5]

    def test_forward_calls_per_input(self, monkeypatch):
        p = params_for("M9", self.RATES)
        forward = direct.moment_vector
        calls = []

        def counted(*args):
            calls.append(args)
            return forward(*args)

        monkeypatch.setattr(direct, "moment_vector", counted)
        report = rashomon.enumerate_variants(p)
        assert len(report.instances) == 7
        assert len(calls) <= 8

    @pytest.mark.parametrize("tag,rates", [
        ("M9", RATES),
        ("M8", [0.011295008395206122, 0.5359560150546294, 90.7269817444433,
                0.08982790586779642, 0.022631436015290683]),
        ("M9", LUMPABLE_M9),
    ])
    def test_residual_is_roundtrip_residual(self, tag, rates):
        p = params_for(tag, rates)
        m = direct.moments(p)
        for inst in rashomon.enumerate_variants(p).instances:
            sol = inst.solution
            assert sol.residual == inverse.roundtrip_residual(
                sol.model, sol.rates, m)

    def test_unpolished_when_not_clearly_positive(self):
        p = params_for("M9", self.RATES)
        m = direct.moments(p)
        batch = direct.SymmetricMoments(L=m.L[:, None], S=m.S[:, None])
        branches = inverse.generic_branches(batch)
        skipped = 0
        for inst in rashomon.enumerate_variants(p).instances:
            sol = inst.solution
            j = 0 if sol.branch == "generic" else int(sol.branch[-1])
            closed = np.ravel(branches[sol.model][0][:, j])
            if not inverse.clearly_positive(closed):
                np.testing.assert_array_equal(sol.rates, closed)
                assert not inst.valid
                skipped += 1
        assert skipped == 2
