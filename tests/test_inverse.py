"""Inverse-problem tests: generic branches, full search, chain recursion."""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from mpmath import mp

from phasekit import direct, inverse, models
from phasekit.errors import (
    GenericBranchMiss,
    M3HypersurfaceMiss,
    NegativeDiscriminant,
    NoBranchMatches,
    NoSolution,
    PhasekitError,
    ZeroPivot,
)


M9_MOMENTS = direct.SymmetricMoments(L=(-15.0, 27.0, -10.0), S=(-5.0, 60.0))


def forward_moments(tag, rates):
    model = models.model_from_string(tag)
    gen = models.build_generator(model, np.asarray(rates, dtype=float))
    return model, direct.moments_from_generator(gen)


def best_recovery(solutions, rates):
    rates = np.asarray(rates, dtype=float)
    return min(
        float(np.max(np.abs(np.asarray(s.rates) - rates) / np.abs(rates)))
        for s in solutions
    )


class TestGenericBranch:
    def test_m9_worked_example(self):
        sols = inverse.invert_generic(models.M9, M9_MOMENTS)
        assert len(sols) == 2
        found = sorted(tuple(np.round(s.rates, 9)) for s in sols)
        assert found == [
            (1.0, 2.0, 3.0, 4.0, 5.0),
            (2.0, 1.0, 4.0, 3.0, 5.0),
        ]
        assert all(s.residual < 1e-9 for s in sols)

    def test_m2_unique_solution(self):
        model, m = forward_moments("M2", [1.0, 2.0, 3.0, 4.0, 5.0])
        sols = inverse.invert_generic(model, m)
        assert len(sols) == 1
        assert best_recovery(sols, [1.0, 2.0, 3.0, 4.0, 5.0]) < 1e-9

    @pytest.mark.parametrize("tag,rates", [
        ("M4", [1.0, 1.5, 4.0, 3.0, 5.0]),
        ("M8", [1.0, 2.0, 1.5, 5.5, 5.0]),
        ("M9", [0.3, 0.7, 2.0, 1.1, 0.9]),
    ])
    def test_quadratic_models_recover(self, tag, rates):
        model, m = forward_moments(tag, rates)
        sols = inverse.invert_generic(model, m)
        assert len(sols) == 2
        assert best_recovery(sols, rates) < 1e-8

    def test_m2_small_k1_pivot_is_generic(self):
        # Criterion-1 draw (seed 101): the k1 pivot is 5e-11 of its term
        # sum, thousands of ulps from zero, and a 1e-9 band used to reject
        # it as "vanishing pivot in the k1 formula".
        rates = [5.0233661136537, 0.012621520732008997, 0.017614177400371064,
                 0.03457694544855765, 40.298773921989046]
        model, m = forward_moments("M2", rates)
        sols = inverse.invert_generic(model, m)
        assert len(sols) == 1
        assert best_recovery(sols, rates) < 1e-8

    def test_k5_is_minus_s1(self):
        model, m = forward_moments("M8", [1.0, 2.0, 1.5, 5.5, 5.0])
        for sol in inverse.invert_generic(model, m):
            assert np.isclose(sol.rates[4], -m.S[0], rtol=1e-12)

    def test_m3_family_on_hypersurface(self):
        model, m = forward_moments("M3", [1.0, 2.0, 3.0, 4.0, 5.0])
        sols = inverse.invert_generic(model, m, k3_grid=(0.5, 1.0, 3.0, 8.0))
        assert len(sols) == 4
        for sol in sols:
            assert sol.residual < 1e-9
            assert sol.free_params[0][0] == "k3"

    def test_m3_rejects_generic_moments(self):
        with pytest.raises(M3HypersurfaceMiss):
            inverse.invert_generic(models.M3, M9_MOMENTS)

    def test_negative_discriminant(self):
        m = direct.SymmetricMoments(L=(1.0, 1.0, 1.0), S=(1.0, 1.0))
        with pytest.raises(NegativeDiscriminant):
            inverse.invert_generic(models.M9, m)

    def test_loose_hypersurface_tolerance(self):
        # Slightly perturbed M3 moments fail the tight test but pass a
        # statistical one.
        model, m = forward_moments("M3", [1.0, 2.0, 3.0, 4.0, 5.0])
        vec = m.as_vector() * (1.0 + 1e-4)
        m_off = direct.SymmetricMoments(L=tuple(vec[:3]), S=tuple(vec[3:]))
        with pytest.raises(M3HypersurfaceMiss):
            inverse.invert_generic(model, m_off)
        sols = inverse.invert_generic(model, m_off, hypersurface_tol=0.01)
        assert sols

    def test_m3_rejects_slow_generic_moments(self):
        # The hypersurface band scales with G's terms, not with 1 + |m|.
        model, m = forward_moments("M9", [1e-3, 2e-3, 3e-3, 4e-3, 5e-3])
        with pytest.raises(M3HypersurfaceMiss):
            inverse.invert_generic(models.M3, m)


class CountedPowers(np.ndarray):
    """An array that counts the powers above the square taken of it and
    of the arrays computed from it."""

    slow = 0

    def __pow__(self, exponent):
        if np.ndim(exponent) == 0 and exponent >= 3:
            CountedPowers.slow += 1
        return super().__pow__(exponent)


@pytest.mark.parametrize("tags,most", [("M2", 5), ("M4", 2), ("M8", 1),
                                       ("M9", 1), ("M2,M4,M8,M9", 5)])
def test_generic_branches_take_each_slow_power_once(tags, most, monkeypatch):
    # x ** 3 and x ** 4 cost about 150 ns per element for a negative base,
    # so each is evaluated once per call, and only for the models asked
    # for.  M2 needs S1^3, S1^4 and S2^3 and the cubes of |S1| and |S2| for
    # its bands; M4 S1^3 and |S1|^3; M8 and M9 S1^3 alone.  One call for
    # all four models takes no more than M2 alone.
    wanted = [models.model_from_string(tag) for tag in tags.split(",")]
    _, m = forward_moments(wanted[0].tag, [0.3, 0.7, 2.0, 1.1, 0.9])
    # SymmetricMoments would strip the subclass: generic_branches reads
    # only L and S.
    counted = SimpleNamespace(L=m.L[:, None].view(CountedPowers),
                              S=m.S[:, None].view(CountedPowers))
    monkeypatch.setattr(CountedPowers, "slow", 0)
    got = inverse.generic_branches(counted, wanted)
    assert CountedPowers.slow <= most
    assert list(got) == wanted
    # The rates and masks of plain arrays, each model in a call of its own.
    plain = direct.SymmetricMoments(L=m.L[:, None], S=m.S[:, None])
    for model in wanted:
        k, ok, _ = inverse.generic_branches(plain, (model,))[model]
        np.testing.assert_array_equal(got[model][0], k)
        np.testing.assert_array_equal(got[model][1], ok)


class TestThomasSearch:
    def test_matches_generic_on_generic_input(self):
        generic = inverse.invert_generic(models.M9, M9_MOMENTS)
        full = inverse.invert_thomas(models.M9, M9_MOMENTS)
        got = sorted(tuple(np.round(s.rates, 8)) for s in full)
        want = sorted(tuple(np.round(s.rates, 8)) for s in generic)
        assert got == want

    @pytest.mark.parametrize("tag,rates", [
        ("M2", [1.0, 2.0, 3.0, 4.0, 5.0]),
        ("M4", [1.0, 1.5, 4.0, 3.0, 5.0]),
        ("M8", [1.0, 2.0, 1.5, 5.5, 5.0]),
    ])
    def test_recovers_forward_instances(self, tag, rates):
        model, m = forward_moments(tag, rates)
        sols = inverse.invert_thomas(model, m)
        assert best_recovery(sols, rates) < 1e-7

    @pytest.mark.parametrize("rates", [[1.0, 2.0, 3.0, 4.0, 5.0],
                                       [0.02, 3.0, 0.7, 11.0, 0.4]])
    def test_m3_family_is_thomas_system_1(self, rates):
        # The closed-form M3 family and Thomas system 1 of M3 are one
        # family, so they share the free-rate grid and the band.
        model, m = forward_moments("M3", rates)
        generic = inverse.invert_generic(model, m)
        full = inverse.invert_thomas(model, m)
        assert [s.free_params for s in generic] == [
            s.free_params for s in full]
        for g, t in zip(generic, full):
            np.testing.assert_allclose(g.rates, t.rates, rtol=1e-12, atol=0)

    def test_branch_labels(self):
        sols = inverse.invert_thomas(models.M9, M9_MOMENTS)
        assert all(s.branch.startswith("S") for s in sols)

    def test_slow_lumpable_input_gives_only_exact_solutions(self):
        # Rates near 1e-3 with k1 = k2: an absolute band floor accepted
        # M8 candidates whose round-trip residuals were 18 to 186.
        k = [0.0026348794283414397, 0.0026348794283414397,
             0.002546975033826566, 0.010389276623150333,
             0.00026066978087333013]
        gen = models.build_generator(models.M9, np.array(k))
        m = direct.moments(direct.phase_type_params(gen))
        sols = inverse.invert_thomas(models.M8, m)
        assert sols
        assert all(s.residual <= 1e-9 for s in sols)


class TestCandidates:
    @pytest.mark.parametrize("error", [
        GenericBranchMiss, NegativeDiscriminant, M3HypersurfaceMiss,
        NoBranchMatches, ZeroPivot])
    def test_no_solution_errors_share_a_base(self, error):
        assert issubclass(error, NoSolution)

    def test_generic_input_takes_generic_branch(self):
        found, _ = inverse.candidates(M9_MOMENTS, (models.M9,))
        assert [c[2] for c in found] == ["generic/root0", "generic/root1"]

    def test_m3_family_takes_the_grid(self):
        _, m = forward_moments("M3", [1.0, 2.0, 3.0, 4.0, 5.0])
        got, _ = inverse.candidates(m, (models.M3,), k3_grid=(0.5, 2.0))
        assert [c[3] for c in got] == [(("k3", 0.5),), (("k3", 2.0),)]

    def test_both_misses_raise_the_thomas_error(self):
        # The M9 generic formulas of slow generic M9 moments hold, but M3's
        # hypersurface misses and so does every M3 simple system.
        _, m = forward_moments("M9", [1e-3, 2e-3, 3e-3, 4e-3, 5e-3])
        with pytest.raises(M3HypersurfaceMiss) as generic:
            inverse.generic_candidates(models.M3, m)
        _, missed = inverse.candidates(m, (models.M3,))
        with pytest.raises(NoBranchMatches) as both:
            raise missed[models.M3]
        assert str(both.value) == (
            f"{generic.value}; no simple system of M3 accepts the input")
        assert both.value.diagnostics["model"] == "M3"

    @pytest.mark.parametrize("model", [models.M4, models.M8, models.M9])
    def test_no_real_thomas_solution_raises(self, model):
        # A simple system of each model accepts these moments, but every
        # branch it gives is complex, so the model must still be reported.
        m = direct.SymmetricMoments(L=(1.0, 1.0, 1.0), S=(1.0, 1.0))
        _, missed = inverse.candidates(m, (model,))
        with pytest.raises(NoBranchMatches, match="no real solution"):
            raise missed[model]


#: Lumpable M9 (k1 = k2): the generic discriminant is zero, so its
#: solutions come from the Thomas search.
LUMPABLE_M9 = [0.23748954533683428, 0.23748954533683428, 11.467584218175574,
               75.86419643542978, 0.019443050680591042]


def _invert_case(name):
    """(model, data, keywords, the solutions of the route that ``phasekit
    invert`` and ``pipeline`` took before :func:`inverse.invert`, or the
    error it raised) of a case of the test below."""
    if name == "M3-loose":
        # Moments 1e-6 off the M3 hypersurface: the default band rejects
        # them, the band of 0.2 takes them.
        _, m = forward_moments("M3", [1.0, 2.0, 3.0, 4.0, 5.0])
        m = direct.SymmetricMoments(L=m.L, S=(m.S[0], m.S[1] * (1.0 + 1e-6)))
        return models.M3, m, {"hypersurface_tol": 0.2}, (
            lambda: inverse.invert_generic(models.M3, m,
                                           hypersurface_tol=0.2))
    if name == "M9-lumpable":
        p = direct.phase_type_params(models.build_generator(
            models.M9, np.array(LUMPABLE_M9)))
        return models.M9, p, {}, (
            lambda: inverse.invert_thomas(models.M9, direct.moments(p)))
    model = models.model_from_string(name.removesuffix("-moments"))
    p = direct.phase_type_params(models.build_generator(
        model, np.arange(1.0, 2.0 * model.n)))
    if name.endswith("-moments"):
        return model, direct.moments(p), {}, PhasekitError
    return model, p, {}, lambda: [inverse.invert_unbranched(model.n, p)]


@pytest.mark.parametrize("name", [*(f"chain{n}" for n in range(2, 9)),
                                  "M3-loose", "M9-lumpable", "chain3-moments"])
def test_invert_takes_the_route_it_replaces(name):
    model, data, keywords, old = _invert_case(name)
    if old is PhasekitError:
        with pytest.raises(PhasekitError, match=r"\(lambda, A\) only"):
            inverse.invert(model, data, **keywords)
        return

    def bits(sols):
        return [(s.model, s.branch, s.free_params, s.rates.tobytes(),
                 s.residual.hex()) for s in sols]

    got = inverse.invert(model, data, **keywords)
    assert got and bits(got) == bits(old())
    if model.tag == "chain":
        np.testing.assert_allclose(got[0].rates,
                                   np.arange(1.0, 2.0 * model.n), rtol=1e-6)
    else:
        assert {s.branch for s in got} == {"M3-loose": {"family"},
                                           "M9-lumpable": {"S4/0000"}}[name]


class TestUnbranchedChain:
    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_round_trip(self, n):
        rng = np.random.default_rng(17 + n)
        rates = rng.uniform(0.3, 3.0, size=2 * n - 1)
        gen = models.build_generator(models.unbranched_chain(n), rates)
        p = direct.phase_type_params(gen)
        sol = inverse.invert_unbranched(n, p)
        np.testing.assert_allclose(sol.rates, rates, rtol=1e-7)

    def test_single_state_is_exponential(self):
        gen = models.build_generator(models.unbranched_chain(1), [2.0])
        p = direct.phase_type_params(gen)
        sol = inverse.invert_unbranched(1, p)
        np.testing.assert_allclose(sol.rates, [2.0], rtol=1e-12)

    @settings(max_examples=25, deadline=None)
    @given(raw=st.lists(st.floats(min_value=0.2, max_value=5.0),
                        min_size=3, max_size=3))
    def test_n2_property(self, raw):
        rates = np.array(raw)
        gen = models.build_generator(models.unbranched_chain(2), rates)
        eigs = np.linalg.eigvals(gen.Qtilde)
        if np.min(np.abs(np.subtract.outer(eigs, eigs)
                         + np.eye(2) * 1e9)) < 1e-3:
            return
        p = direct.phase_type_params(gen)
        sol = inverse.invert_unbranched(2, p)
        np.testing.assert_allclose(sol.rates, rates, rtol=1e-6)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_recurrence_reproduces_the_moments(self, n):
        # (J^k)_11 = sum_i w_i lam_i^k / sum_i w_i for k < 2N defines the
        # Jacobi matrix J of the weights; it depends only on the diagonal
        # and the squared off-diagonal, so the recurrence's output is
        # checked without a reference solver.
        rng = np.random.default_rng(40 + n)
        lam = -np.sort(10.0 ** rng.uniform(-4.0, 4.0, size=n))
        weights = 10.0 ** rng.uniform(-40.0, 0.0, size=n)
        weights[::2] = 10.0 ** rng.uniform(-40.0, -35.0, size=(n + 1) // 2)
        alpha, beta2 = inverse._stieltjes_tridiagonal(lam, weights)
        with mp.workdps(60):
            # mpmath would take a Decimal operand as a float.
            alpha = [mp.mpf(str(v)) for v in alpha]
            beta2 = [mp.mpf(str(v)) for v in beta2]
            x = [mp.mpf(float(v)) for v in lam]
            w = [mp.mpf(float(v)) for v in weights]
            v = [mp.mpf(1)] + [mp.mpf(0)] * (n - 1)  # T^k e_1
            for k in range(2 * n):
                want = mp.fsum(wi * xi ** k
                               for wi, xi in zip(w, x)) / mp.fsum(w)
                assert abs(v[0] - want) <= mp.mpf(10) ** -45 * abs(want)
                # T: diagonal alpha, superdiagonal beta2, subdiagonal 1,
                # so (T^k)_11 = (J^k)_11.
                v = [alpha[i] * v[i]
                     + (beta2[i] * v[i + 1] if i + 1 < n else 0)
                     + (v[i - 1] if i else 0) for i in range(n)]

    @pytest.mark.parametrize("lam,A,match", [
        ([-1.0, -1.0, -3.0], [0.3, 0.3, 0.4], "at Stieltjes step 1"),
        ([-1.0, -2.0], [1.2, -0.2], "nonpositive spectral weight"),
        ([-1.0, -2.0], [2.0, -1.0], "exit rate"),
    ])
    def test_typed_failures(self, lam, A, match):
        p = direct.PhaseTypeParams(lam, A)
        with pytest.raises(ZeroPivot, match=match) as info:
            inverse.invert_unbranched(len(lam), p)
        assert isinstance(info.value, NoSolution)


class TestPolish:
    def test_one_jacobian_per_solution(self, monkeypatch):
        # A well-conditioned M9 input whose closed forms need two steps:
        # the polish takes one residual at the start, one complex-step
        # Jacobian and one call per step, each batched over both
        # solutions, and the stored residual needs no further call.
        model, m = forward_moments("M9", [0.3, 2.0, 7.0, 0.5, 1.5])
        forward = direct.moment_vector
        calls = []

        def counted(*args):
            calls.append(args)
            return forward(*args)

        monkeypatch.setattr(direct, "moment_vector", counted)
        sols = inverse.invert_generic(model, m)
        assert len(sols) == 2
        assert len(calls) <= 10 * len(sols)

    @pytest.mark.parametrize("tag,rates", [
        ("M2", [0.3, 2.0, 7.0, 0.5, 1.5]),
        ("M4", [1.0, 1.5, 4.0, 3.0, 5.0]),
        ("M8", [0.011295008395206122, 0.5359560150546294, 90.7269817444433,
                0.08982790586779642, 0.022631436015290683]),
        ("M9", [0.05, 3.0, 20.0, 0.7, 1.1]),
    ])
    def test_stored_residual_is_roundtrip_residual(self, tag, rates):
        model, m = forward_moments(tag, rates)
        for sol in inverse.invert_generic(model, m):
            assert sol.residual == inverse.roundtrip_residual(
                model, sol.rates, m)


class TestResidual:
    def test_residual_definition(self):
        model, m = forward_moments("M9", [1.0, 2.0, 3.0, 4.0, 5.0])
        res = inverse.roundtrip_residual(
            model, np.array([1.0, 2.0, 3.0, 4.0, 5.0]), m)
        assert res < 1e-12

    def test_residual_flags_wrong_rates(self):
        model, m = forward_moments("M9", [1.0, 2.0, 3.0, 4.0, 5.0])
        res = inverse.roundtrip_residual(
            model, np.array([1.0, 2.0, 3.0, 4.0, 6.0]), m)
        assert res > 1e-2
