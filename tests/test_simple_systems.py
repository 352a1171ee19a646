"""Triangular-system data tests: loading, matching, and solving."""

import hashlib
import importlib.util
import json
import pathlib

import numpy as np
import pytest

from phasekit import direct, models, simple_systems
from phasekit.errors import NoBranchMatches


EXPECTED_COUNTS = {"M2": 11, "M3": 10, "M4": 21, "M8": 12, "M9": 15}

RANKINGS = {
    "M2": ("k1", "k3", "k2", "k4", "k5"),
    "M3": ("k1", "k2", "k3", "k4", "k5"),
    "M4": ("k1", "k2", "k3", "k4", "k5"),
    "M8": ("k1", "k3", "k4", "k2", "k5"),
    "M9": ("k3", "k1", "k4", "k2", "k5"),
}


def forward_point(tag, rates):
    model = models.model_from_string(tag)
    gen = models.build_generator(model, np.asarray(rates, dtype=float))
    m = direct.moments_from_generator(gen)
    return np.concatenate([rates, m.as_vector()])


ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_generator_reproduces_shipped_files():
    pytest.importorskip("sympy")
    spec = importlib.util.spec_from_file_location(
        "generate_simple_systems",
        ROOT / "scripts" / "generate_simple_systems.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    data = ROOT / "src" / "phasekit" / "data"
    checksums = json.loads((data / "checksums.json").read_text())
    payloads = script.render_payloads()
    assert sorted(payloads) == sorted(checksums)
    for name, payload in payloads.items():
        digest = hashlib.sha256(payload.encode()).hexdigest()
        assert digest == checksums[name], name
        assert payload.encode() == (data / name).read_bytes(), name


class TestLoading:
    @pytest.mark.parametrize("tag", sorted(EXPECTED_COUNTS))
    def test_counts(self, tag):
        ms = simple_systems.load_systems(tag)
        assert len(ms.systems) == EXPECTED_COUNTS[tag]

    @pytest.mark.parametrize("tag", sorted(EXPECTED_COUNTS))
    def test_rate_ranking(self, tag):
        ms = simple_systems.load_systems(tag)
        assert tuple(ms.ranking[:5]) == RANKINGS[tag]

    @pytest.mark.parametrize("tag", sorted(EXPECTED_COUNTS))
    def test_triangularity(self, tag):
        ms = simple_systems.load_systems(tag)
        for sys_ in ms.systems:
            leaders = [r.leader for r in sys_.relations if r.kind == "EQ"]
            assert len(leaders) == len(set(leaders))

    @pytest.mark.parametrize("tag", sorted(EXPECTED_COUNTS))
    def test_equation_leader_degree(self, tag):
        ms = simple_systems.load_systems(tag)
        for sys_ in ms.systems:
            for rel in sys_.relations:
                if rel.kind != "EQ":
                    continue
                degree = max(e[simple_systems.VAR_NAMES.index(rel.leader)]
                             for e in rel.expons)
                assert degree <= 2

    @pytest.mark.parametrize("tag", sorted(EXPECTED_COUNTS))
    def test_weighted_homogeneous(self, tag):
        # Weight 1 for each rate and j for L_j and S_j: every term of a
        # relation has the same weight, so the zero tests can be relative
        # to the sum of the absolute values of the terms.
        weights = np.array([1, 1, 1, 1, 1, 1, 2, 3, 1, 2])
        ms = simple_systems.load_systems(tag)
        for sys_ in ms.systems:
            for rel in sys_.relations:
                assert np.unique(rel.expons @ weights).size == 1


class TestMatching:
    def test_generic_m9_point_matches_one_system(self):
        ms = simple_systems.load_systems("M9")
        point = forward_point("M9", [1.0, 2.0, 3.0, 4.0, 5.0])
        matched = simple_systems.match_systems(ms, point[5:])
        assert len(matched) == 1

    def test_full_point_accepted_by_one_system(self):
        ms = simple_systems.load_systems("M4")
        point = forward_point("M4", [1.0, 1.5, 4.0, 3.0, 5.0])
        accepting = [
            sys_ for sys_ in ms.systems
            if all(simple_systems._relation_holds(r, point, 1e-9)
                   for r in sys_.relations)
        ]
        assert len(accepting) == 1

    def test_moments_off_image_do_not_match_generically(self):
        ms = simple_systems.load_systems("M2")
        # S1 > 0 cannot come from a genuine survival function.
        diagnostics = simple_systems.match_diagnostics(
            ms, np.array([1.0, 1.0, 1.0, 1.0, 1.0]))
        assert diagnostics


class TestSolving:
    @pytest.mark.parametrize("tag,rates", [
        ("M2", [1.0, 2.0, 3.0, 4.0, 5.0]),
        ("M4", [1.0, 1.5, 4.0, 3.0, 5.0]),
        ("M8", [1.0, 2.0, 1.5, 5.5, 5.0]),
        ("M9", [1.0, 2.0, 3.0, 4.0, 5.0]),
    ])
    def test_solve_recovers_forward_rates(self, tag, rates):
        ms = simple_systems.load_systems(tag)
        point = forward_point(tag, rates)
        sols = simple_systems.solve_for_moments(ms, point[5:])
        best = min(
            max(abs(sol.rates[f"k{i+1}"] - rates[i]) for i in range(5))
            for sol in sols
        )
        assert best < 1e-7

    @pytest.mark.parametrize("scale", [1e-4, 1e-3, 1e4])
    @pytest.mark.parametrize("tag,rates", [
        ("M2", [1.0, 2.0, 3.0, 4.0, 5.0]),
        ("M4", [1.0, 1.5, 4.0, 3.0, 5.0]),
        ("M8", [1.0, 2.0, 1.5, 5.5, 5.0]),
        ("M9", [1.0, 2.0, 3.0, 4.0, 5.0]),
    ])
    def test_solve_recovers_scaled_rates(self, tag, rates, scale):
        rates = np.asarray(rates) * scale
        ms = simple_systems.load_systems(tag)
        point = forward_point(tag, rates)
        sols = simple_systems.solve_for_moments(ms, point[5:])
        best = min((np.max(np.abs(sol.rate_vector() / rates - 1.0))
                    for sol in sols), default=np.inf)
        assert best < 1e-7

    def test_complex_branch_yields_no_real_solutions(self):
        ms = simple_systems.load_systems("M9")
        sols = simple_systems.solve_for_moments(
            ms, np.array([1.0, 1.0, 1.0, 1.0, 1.0]))
        assert sols == []

    def test_no_match_raises_with_diagnostics(self):
        ms = simple_systems.load_systems("M9")
        # Exactly vanishing discriminant with otherwise generic moments
        # falls between the strata of the decomposition.
        with pytest.raises(NoBranchMatches) as err:
            simple_systems.solve_for_moments(
                ms, np.array([-3.0, 2.0, -1.0, -1.0, 1.0]))
        assert err.value.diagnostics
