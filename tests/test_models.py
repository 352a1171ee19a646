"""Model catalog and generator assembly tests."""

import dataclasses

import numpy as np
import pytest

from phasekit import models
from phasekit.errors import WrongArity


RATES = np.array([1.0, 2.0, 3.0, 4.0, 5.0])


class TestCatalog:
    def test_catalog_tags(self):
        assert set(models.CATALOG_ARCS) == {"M2", "M3", "M4", "M8", "M9"}

    def test_solvable_subset(self):
        tags = {m.tag for m in models.SOLVABLE_N3}
        assert tags == {"M2", "M4", "M8", "M9"}

    def test_model_from_string(self):
        assert models.model_from_string("M9").tag == "M9"
        chain = models.model_from_string("chain5")
        assert chain.tag == "chain" and chain.n == 5

    def test_model_from_string_rejects_junk(self):
        with pytest.raises(ValueError):
            models.model_from_string("M1")

    def test_n_rates(self):
        assert models.M9.n_rates == 5
        assert models.unbranched_chain(4).n_rates == 7


class TestArcLists:
    @pytest.mark.parametrize("tag", ["M2", "M3", "M4", "M8", "M9"])
    def test_exit_arc_last(self, tag):
        model = models.model_from_string(tag)
        arcs = models.arc_list(model)
        assert arcs[-1] == (3, 4, 5)
        assert len(arcs) == 5

    def test_chain_layout(self):
        arcs = models.arc_list(models.unbranched_chain(3))
        # forward arcs, then backward arcs, then the exit arc
        assert arcs == [
            (1, 2, 1), (2, 3, 2),
            (2, 1, 3), (3, 2, 4),
            (3, 4, 5),
        ]

    def test_m9_arcs(self):
        arcs = set(models.arc_list(models.M9))
        assert arcs == {(1, 3, 1), (2, 3, 2), (3, 1, 3), (3, 2, 4), (3, 4, 5)}


class TestGenerator:
    def test_row_sums_vanish(self):
        gen = models.build_generator(models.M9, RATES)
        sums = gen.Q[:3].sum(axis=1)
        np.testing.assert_allclose(sums, 0.0, atol=1e-14)

    def test_observed_row_absorbing(self):
        gen = models.build_generator(models.M4, RATES)
        np.testing.assert_array_equal(gen.Q[3], 0.0)

    def test_qtilde_is_transposed_minor(self):
        gen = models.build_generator(models.M8, RATES)
        np.testing.assert_array_equal(gen.Qtilde, gen.Q[:3, :3].T)

    @pytest.mark.parametrize("model", [
        *(models.model_from_string(tag)
          for tag in ("M2", "M3", "M4", "M8", "M9")),
        *(models.unbranched_chain(n) for n in range(1, 9)),
    ], ids=str)
    def test_q_matches_arc_loop(self, model):
        # Reference: one arc at a time, then each diagonal entry as minus
        # the sums left and right of it.  The dense eigensolve starts
        # from these bits.
        rng = np.random.default_rng(list(str(model).encode()))
        n = model.n
        for _ in range(50):
            k = 10.0 ** rng.uniform(-4.0, 4.0, size=model.n_rates)
            q = np.zeros((n + 1, n + 1))
            for src, dst, idx in models.arc_list(model):
                q[src - 1, dst - 1] += k[idx - 1]
            for i in range(n):
                q[i, i] = -np.sum(q[i, :i]) - np.sum(q[i, i + 1:])
            gen = models.build_generator(model, k)
            np.testing.assert_array_equal(gen.Q, q)
            np.testing.assert_array_equal(gen.Qtilde, q[:n, :n].T)

    def test_exit_rate(self):
        gen = models.build_generator(models.M2, RATES)
        assert gen.exit_rate == 5.0

    def test_wrong_arity(self):
        with pytest.raises(WrongArity):
            models.build_generator(models.M9, [1.0, 2.0])

    def test_nonpositive_rates_flagged(self):
        gen = models.build_generator(models.M9, [1.0, -2.0, 3.0, 4.0, 5.0])
        assert gen.has_nonpositive_rate

    def test_chain_generator_tridiagonal(self):
        gen = models.build_generator(
            models.unbranched_chain(3), np.arange(1.0, 6.0))
        q = gen.Q
        for i in range(3):
            for j in range(4):
                if abs(i - j) > 1:
                    assert q[i, j] == 0.0


class TestValidation:
    def test_catalog_models_validate(self):
        for tag in ("M2", "M3", "M4", "M8", "M9"):
            gen = models.build_generator(models.model_from_string(tag), RATES)
            assert models.validate(gen).ok

    def test_chain_validates(self):
        gen = models.build_generator(
            models.unbranched_chain(4), np.arange(1.0, 8.0))
        assert models.validate(gen).ok

    def test_disconnected_chain_fails(self):
        gen = models.build_generator(
            models.unbranched_chain(3), [0.0, 1.0, 1.0, 1.0, 1.0])
        report = models.validate(gen)
        assert not report.ok
        assert any("connected" in msg for msg in report.messages)

    @pytest.mark.parametrize("model", [
        *(models.model_from_string(tag)
          for tag in ("M2", "M3", "M4", "M8", "M9")),
        *(models.unbranched_chain(n) for n in range(1, 9)),
    ], ids=str)
    def test_connectivity_matches_dense_rule(self, model):
        # The report holds strong connectivity alone: every arc list exits
        # from state N only and nothing leaves the observed state, so it
        # is the one check that rates can fail.  Reference: reachability
        # over the nonzero off-diagonal entries of the dense Q, plus the
        # return arc N+1 -> N, both ways from state 1.
        def dense_rule(gen):
            q, n = gen.Q, gen.N
            arcs = [(i, j) for i in range(n) for j in range(n + 1)
                    if i != j and q[i, j] != 0.0] + [(n, n - 1)]
            for pairs in (arcs, [(j, i) for i, j in arcs]):
                seen, grown = set(), {0}
                while grown != seen:
                    seen = set(grown)
                    grown |= {j for i, j in pairs if i in seen}
                if len(seen) < n + 1:
                    return False
            return True

        rng = np.random.default_rng(list(str(model).encode()))
        outcomes = set()
        for _ in range(200):
            k = 10.0 ** rng.uniform(-2.0, 2.0, size=model.n_rates)
            k[rng.choice(model.n_rates, size=rng.integers(3))] = 0.0
            gen = models.build_generator(model, k)
            report = models.validate(gen)
            assert report.strongly_connected == dense_rule(gen), k
            assert report.ok == report.strongly_connected
            assert [f.name for f in dataclasses.fields(report)] == [
                "strongly_connected", "messages"]
            outcomes.add(report.ok)
        assert outcomes == {True, False}

