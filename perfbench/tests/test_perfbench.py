"""Tests of the benchmark itself: a tiny run of each workload, and for
each correctness check a planted wrong answer that it must reject.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import dataclasses
import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run.prepare_environment()

import numpy as np  # noqa: E402

import reference as ref  # noqa: E402
import workloads as wls  # noqa: E402
from phasekit import direct, models, rashomon, stochastic  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _names(problems):
    return {p.split(":")[0] for p in problems}


def _bench(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "0.2", "--trace", str(trace)],
        cwd=HERE.parent, capture_output=True, text=True, timeout=170,
        check=True)
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("workload", sorted(wls.WORKLOADS))
def test_smoke_untraced(workload):
    result = _bench(workload, 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == want
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_smoke_traced():
    result = _bench("variants", 1)
    assert result["correct"] is True
    want = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == want
    assert result["metrics"]["rashomon.enumerate_variants.calls"]["value"] == 1


def test_refuses_a_checkout_without_sources(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for f in HERE.glob("*.py"):
        (bench / f.name).write_text(f.read_text())
    proc = subprocess.run(
        [sys.executable, str(bench / "run.py"), "--workload", "chains",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_times_are_scaled_by_the_kernel_around_their_round(monkeypatch):
    from calibration import REFERENCE_S
    wl = wls.Chains(0)
    # Round 0 runs with the kernel at twice its reference time on both
    # sides, round 1 between twice and once; its chains take 10 ms and
    # 15 ms on the clock.
    kernel = iter([2.0, 2.0, 2.0, 1.0])
    durations = iter([0.010] * 7 + [0.015] * 7)
    now = [0.0]

    def fake_run(item):
        now[0] += next(durations)

    monkeypatch.setattr("calibration.kernel_median_s",
                        lambda: next(kernel) * REFERENCE_S)
    monkeypatch.setattr(run.time, "perf_counter", lambda: now[0])
    monkeypatch.setattr(wl, "run", fake_run)
    monkeypatch.setattr(wl, "check", lambda item, out: [])
    phase = run.timed_phase(wl, 0.0, rounds=2)
    assert [s for _, s, _, _ in phase.records] == pytest.approx(
        [0.5] * 7 + [2 / 3] * 7)
    assert phase.calibrated_s == pytest.approx(7 * 0.005 + 7 * 0.010)
    metrics = run.end_to_end(wl, phase.records, [1.0])
    assert metrics["throughput"][0] == pytest.approx(14 / 0.105)
    assert metrics["item_p50_ms"][0] == pytest.approx(7.5)


def test_a_failed_pipeline_is_counted_and_timed(monkeypatch):
    wl = wls.Infer(0)

    def fail(item):
        raise wls.CliError("InvalidDensity")

    monkeypatch.setattr(wl, "run", fail)
    phase = run.timed_phase(wl, 0.0, rounds=1)
    assert [name for _, _, _, name in phase.records] == ["InvalidDensity"] * 4
    assert phase.problems == []
    assert all(dt > 0 for dt, _, _, _ in phase.records)


# --- the reference --------------------------------------------------------

def test_reference_agrees_with_its_eigendecomposition():
    model = models.M9
    k = [1.0, 2.0, 3.0, 4.0, 5.0]
    lam, amps = ref.true_params(models.arc_list(model), 3, np.array(k))
    exact = ref.moments(models.arc_list(model), 3, k)
    via_eig = ref.moments_of_params(lam, amps)
    assert max(ref.rel_errors([float(x) for x in via_eig], exact)) < 1e-12


def test_reference_chain_of_one():
    model = models.unbranched_chain(1)
    assert ref.moments(models.arc_list(model), 1, [2.5]) == [-2.5]


# --- variants -------------------------------------------------------------

def _variant_item(model, k, lumpable=False):
    return wls.Variants._item(model, np.asarray(k, dtype=float), lumpable)


def _valid(report):
    return next(i for i in report.instances if i.valid)


def _scaled(inst, index, factor):
    rates = np.array(inst.solution.rates)
    rates[index] *= factor
    inst.solution = dataclasses.replace(inst.solution, rates=rates)


@pytest.fixture
def m9_case():
    item = _variant_item(models.M9, [1.0, 2.0, 3.0, 4.0, 5.0])
    return item, rashomon.enumerate_variants(item.extra["params"])


def test_variants_checks_pass(m9_case):
    item, report = m9_case
    assert wls.Variants(0).check(item, report) == []


def test_backward_rejects_a_rate_off_by_1e6(m9_case):
    item, report = m9_case
    _scaled(_valid(report), 0, 1.0 + 1e-6)
    assert "backward" in _names(wls.variant_backward(item, report))


def test_invariants_reject_a_k5_off_by_1e6(m9_case):
    _, report = m9_case
    _scaled(_valid(report), 4, 1.0 + 1e-6)
    assert "invariants" in _names(wls.variant_invariants(report))


def test_recovery_rejects_a_wrong_branch(m9_case):
    item, report = m9_case
    for inst in report.instances:
        if inst.solution.model == models.M9:
            _scaled(inst, 2, 1.01)
    assert "recovery" in _names(wls.variant_recovers(item, report))


def test_recovery_rejects_a_lumpable_sum_off(monkeypatch):
    wl = wls.Variants(0)
    for item in wl.lumpable:
        try:
            report = wl.run(item)
        except Exception:
            continue
        assert wl.check(item, report) == []
        for inst in report.instances:
            if inst.solution.model == models.M9:
                _scaled(inst, 3, 1.0 + 1e-3)
        assert "recovery" in _names(wls.variant_recovers(item, report))
        return
    pytest.fail("every lumpable input failed")


def test_forward_rejects_16_ulps(monkeypatch):
    original = direct.moments_from_generator

    def off(gen):
        m = original(gen)
        return direct.SymmetricMoments(m.L * (1 + 16 * wls.EPS), m.S)

    monkeypatch.setattr(direct, "moments_from_generator", off)
    assert "forward" in _names(wls.forward_ulps(models.M9,
                                                [1.0, 2.0, 3.0, 4.0, 5.0]))


# --- infer ----------------------------------------------------------------

@pytest.fixture(scope="module")
def infer_case():
    item = wls.Item(models.M9, wls.INFER_RATES, extra={"sim_seed": 11})
    report = wls.Infer(0).run(item)
    gen = models.build_generator(item.model, item.rates)
    gaps = stochastic.simulate_events(gen, wls.N_EVENTS, 11).gaps
    return item, report, gaps


def test_infer_checks_pass(infer_case):
    item, report, gaps = infer_case
    assert wls.infer_checks(item, report, gaps) == []


def test_likelihood_rejects_a_fit_below_the_truth(infer_case):
    item, report, gaps = infer_case
    report = json.loads(json.dumps(report))
    lam, amps = ref.true_params(models.arc_list(item.model), 3, item.rates)
    report["fit"]["log_likelihood"] = ref.log_likelihood(lam, amps, gaps) - 1
    assert "likelihood" in _names(wls.infer_checks(item, report, gaps))


def test_dkw_rejects_a_trace_from_other_rates(infer_case):
    item, report, gaps = infer_case
    assert "trace" in _names(wls.infer_checks(item, report, gaps * 1.5))


def test_infer_backward_rejects_a_rate_off_by_1e6(infer_case):
    item, report, gaps = infer_case
    report = json.loads(json.dumps(report))
    inst = next(i for i in report["variants"]["instances"] if i["valid"])
    inst["rates"][0] *= 1.0 + 1e-6
    assert "backward" in _names(wls.infer_checks(item, report, gaps))


# --- experiment -----------------------------------------------------------

@pytest.fixture
def experiment_report():
    return rashomon.discrimination_experiment(
        rashomon.ExperimentConfig(n_samples=200, seed=5))


def test_experiment_checks_pass(experiment_report):
    assert wls.experiment_checks(experiment_report) == []


def test_histogram_rejects_a_changed_count(experiment_report):
    experiment_report.histograms["delta_p1"]["counts"][3] += 1
    assert "histogram" in _names(wls.experiment_checks(experiment_report))


def test_fraction_rejects_a_zero_count_above_retained(experiment_report):
    experiment_report.zero_fraction_t1 = 1.0 + 1.0 / experiment_report.n_retained
    assert "fraction" in _names(wls.experiment_checks(experiment_report))


def test_repeat_rejects_a_changed_report(monkeypatch):
    original = rashomon.discrimination_experiment
    calls = []

    def drifting(cfg):
        calls.append(cfg)
        return original(dataclasses.replace(cfg, seed=cfg.seed + len(calls)))

    monkeypatch.setattr(rashomon, "discrimination_experiment", drifting)
    assert "repeat" in _names(wls.Experiment(0).final_checks())


# --- chains ---------------------------------------------------------------

@pytest.fixture
def chain_case():
    wl = wls.Chains(0)
    item = wl.next_round()[4]
    return wl, item, wl.run(item)


def test_chain_checks_pass(chain_case):
    wl, item, out = chain_case
    assert wl.check(item, out) == []


def test_chain_rates_reject_a_rate_off_by_2e6(chain_case):
    _, item, (params, sol) = chain_case
    rates = np.array(sol.rates)
    rates[0] *= 1.0 + 2e-6
    sol = dataclasses.replace(sol, rates=rates)
    assert "rates" in _names(wls.chain_checks(item, params, sol))


def test_chain_amplitudes_reject_a_sum_off(chain_case):
    _, item, (params, sol) = chain_case
    params = direct.PhaseTypeParams(params.lam, params.A * (1.0 + 1e-9))
    assert "amplitudes" in _names(wls.chain_checks(item, params, sol))


def test_chain_moments_reject_a_rate_off(chain_case):
    _, item, (params, sol) = chain_case
    params = direct.PhaseTypeParams(params.lam * (1.0 + 1e-9), params.A)
    assert "moments" in _names(wls.chain_checks(item, params, sol))
