"""Command-line interface tests (run in-process through main).

The CLI only serializes.  Every command these tests run goes through
:func:`run`, which checks the JSON artifact of each successful command
against the schema of its subcommand, as shipped with the package.
"""

import contextlib
import functools
import io
import json
import os
import subprocess
import sys
from importlib import resources

import jsonschema
import numpy as np
import pytest

from phasekit import cli, direct, inverse, models, rashomon
from phasekit.cli import main

#: The shipped schema of each subcommand that writes a JSON artifact
#: (``simulate`` writes CSV and ``validate`` plain text).
SCHEMAS = {
    "direct": "phase_type_params.schema.json",
    "fit": "fit_result.schema.json",
    "invert": "solutions.schema.json",
    "variants": "variant_report.schema.json",
    "experiment": "experiment_report.schema.json",
    "pipeline": "pipeline_report.schema.json",
}


@functools.lru_cache(maxsize=None)
def validator(command):
    """The validator of ``command``'s schema, itself checked once."""
    schema = json.loads(
        (resources.files("phasekit") / "schemas" / SCHEMAS[command])
        .read_text())
    cls = jsonschema.validators.validator_for(schema)
    cls.check_schema(schema)
    return cls(schema)


def _not_json(token):
    raise ValueError(f"{token} is not a JSON number")


def check_artifact(command, text):
    """The document ``text``, after checking that it is strict JSON (no
    NaN or Infinity) and valid under ``command``'s schema."""
    doc = json.loads(text, parse_constant=_not_json)
    validator(command).validate(doc)
    return doc


def _out_path(args):
    return args[args.index("--out") + 1] if "--out" in args else None


def run(args):
    """``main(args)``, whose JSON artifact, when it exits 0, is read back
    from the exact text written (its --out file, or stdout) and checked.
    Stdout still reaches the caller, for ``capsys``."""
    args = [str(a) for a in args]
    stdout = io.StringIO()
    try:
        with contextlib.redirect_stdout(stdout):
            rc = main(args)
    finally:
        sys.stdout.write(stdout.getvalue())
    if rc == 0 and args[0] in SCHEMAS:
        path = _out_path(args)
        if path is None:
            check_artifact(args[0], stdout.getvalue())
        else:
            with open(path) as fh:
                check_artifact(args[0], fh.read())
    return rc


def load(path):
    with open(path) as fh:
        return json.load(fh)


class TestDirectInvert:
    def test_direct_emits_valid_artifact(self, tmp_path):
        out = tmp_path / "params.json"
        assert run(["direct", "--model", "M9", "--rates", "1,2,3,4,5",
                    "--out", out]) == 0
        doc = load(out)
        np.testing.assert_allclose(doc["moments"]["L"], [-15.0, 27.0, -10.0],
                                   rtol=1e-9)
        np.testing.assert_allclose(doc["moments"]["S"], [-5.0, 60.0],
                                   rtol=1e-9)
        assert doc["manifest"]["tool_version"]

    def test_direct_floats_read_back_exactly(self, tmp_path):
        out = tmp_path / "params.json"
        assert run(["direct", "--model", "M9", "--rates", "1,2,3,4,5",
                    "--out", out]) == 0
        doc = load(out)
        p = direct.phase_type_params(models.build_generator(
            models.M9, np.array([1.0, 2.0, 3.0, 4.0, 5.0])))
        np.testing.assert_array_equal(doc["lam"], p.lam)
        np.testing.assert_array_equal(doc["A"], p.A)

    def test_invert_worked_example(self, tmp_path):
        out = tmp_path / "sols.json"
        assert run(["invert", "--model", "M9",
                    "--moments=-15,27,-10,-5,60", "--out", out]) == 0
        doc = load(out)
        found = sorted(tuple(np.round(s["rates"], 8))
                       for s in doc["solutions"])
        assert found == [(1.0, 2.0, 3.0, 4.0, 5.0),
                         (2.0, 1.0, 4.0, 3.0, 5.0)]

    def test_direct_then_invert_round_trip(self, tmp_path):
        params = tmp_path / "params.json"
        run(["direct", "--model", "M4", "--rates", "1,1.5,4,3,5",
             "--out", params])
        doc = load(params)
        moments = doc["moments"]["L"] + doc["moments"]["S"]
        sols = tmp_path / "sols.json"
        assert run(["invert", "--model", "M4",
                    "--moments=" + ",".join(map(repr, moments)),
                    "--out", sols]) == 0
        best = min(
            max(abs(np.array(s["rates"]) - [1.0, 1.5, 4.0, 3.0, 5.0]))
            for s in load(sols)["solutions"]
        )
        assert best < 1e-8

    def test_invert_lambda_amplitude_input(self, tmp_path):
        out = tmp_path / "sols.json"
        assert run(["invert", "--model", "chain2",
                    "--lambda=-0.5,-2.0", "--A=0.7,0.3",
                    "--out", out]) == 0
        doc = load(out)
        assert len(doc["solutions"]) == 1
        assert doc["solutions"][0]["residual"] < 1e-9

    def test_invert_takes_no_solver_flag(self, tmp_path):
        # The Thomas search's two solutions of a generic input are the
        # generic branch's, which plain invert returns.
        out = tmp_path / "sols.json"
        assert run(["invert", "--model", "M9",
                    "--moments=-15,27,-10,-5,60", "--out", out]) == 0
        sols = load(out)["solutions"]
        assert [s["branch"] for s in sols] == ["generic/root0",
                                               "generic/root1"]
        m = direct.SymmetricMoments(L=(-15.0, 27.0, -10.0), S=(-5.0, 60.0))
        thomas = inverse.invert_thomas(models.M9, m)
        np.testing.assert_allclose(
            sorted(s["rates"] for s in sols),
            sorted(s.rates.tolist() for s in thomas), rtol=1e-12)
        with pytest.raises(SystemExit) as exc:
            run(["invert", "--model", "M9", "--moments=-15,27,-10,-5,60",
                 "--thomas"])
        assert exc.value.code == 2

    def test_invert_falls_back_to_thomas(self, tmp_path):
        # Lumpable M9 (k1 = k2): the generic discriminant is zero, and
        # the Thomas family S4 fixes k1, k2, k3 + k4 and k5.
        k = np.array([0.23748954533683428, 0.23748954533683428,
                      11.467584218175574, 75.86419643542978,
                      0.019443050680591042])
        m = direct.moments(direct.phase_type_params(
            models.build_generator(models.M9, k)))
        out = tmp_path / "sols.json"
        assert run(["invert", "--model", "M9", "--moments=" + ",".join(
            repr(float(x)) for x in (*m.L, *m.S)), "--out", out]) == 0
        sols = load(out)["solutions"]
        assert [s["branch"] for s in sols] == ["S4/0000"] * 3
        for s in sols:
            k1, k2, k3, k4, k5 = s["rates"]
            np.testing.assert_allclose([k1, k2, k3 + k4, k5],
                                       [k[0], k[1], k[2] + k[3], k[4]],
                                       rtol=1e-6)

    def test_survival_csv(self, tmp_path):
        csv = tmp_path / "surv.csv"
        run(["direct", "--model", "M9", "--rates", "1,2,3,4,5",
             "--out", tmp_path / "p.json", "--survival-csv", csv,
             "--t-max", 2.0, "--t-points", 5])
        lines = csv.read_text().strip().splitlines()
        assert lines[0] == "t,survival"
        assert len(lines) == 6
        first = [float(x) for x in lines[1].split(",")]
        np.testing.assert_allclose(first, [0.0, 1.0], atol=1e-12)


class TestExitCodes:
    def test_no_solution_is_exit_3(self):
        assert run(["invert", "--model", "M9", "--moments", "1,1,1,1,1"]) == 3

    def test_no_real_thomas_solution_is_exit_3(self, capsys):
        # The generic branch misses and the Thomas search finds nothing.
        assert run(["invert", "--model", "M9", "--moments", "1,1,1,1,1"]) == 3
        assert json.loads(capsys.readouterr().err)["error"] == (
            "NoBranchMatches")

    @pytest.mark.parametrize("args", [
        ["experiment", "--samples", 0],
        ["experiment", "--samples", -3],
        ["pipeline", "--model", "M9", "--rates", "1,2,3,4,5", "--n", 1000,
         "--restarts", 0],
        ["fit", "--trace", "TRACE", "--components", 2, "--restarts", -1],
    ])
    def test_count_below_one_is_exit_2(self, args, tmp_path, capsys):
        trace = tmp_path / "gaps.csv"
        trace.write_text("gap\n1.0\n2.0\n3.0\n")
        assert run([trace if a == "TRACE" else a for a in args]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ValueError"
        assert "at least 1" in err["message"]

    @pytest.mark.parametrize("rates", ["0,2,3", "1,2,0"])
    def test_closed_class_is_exit_2(self, rates, capsys):
        assert run(["direct", "--model", "chain2", "--rates", rates]) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert json.loads(err)["error"] == "NonErgodic"

    def test_bad_input_is_exit_2(self):
        assert run(["invert", "--model", "M9", "--moments", "1,2"]) == 2

    @pytest.mark.parametrize("args", [
        ["variants"],
        ["invert", "--model", "M9", "--lambda=-1,-2,-3"],
    ])
    def test_missing_survival_flags_is_exit_2(self, args, capsys):
        # Neither --lambda/--A nor --moments, or --lambda without --A.
        assert run(args) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "PhasekitError"
        assert "--lambda and --A" in err["message"]

    @pytest.mark.parametrize("args, message", [
        pytest.param(["direct", "--model", "M9", "--rates", "nan,2,3,4,5"],
                     "not finite", id="rates-nan"),
        pytest.param(["pipeline", "--model", "M9", "--rates", "1,2,inf,4,5",
                      "--n", 1000], "not finite", id="pipeline-rates-inf"),
        pytest.param(["invert", "--model", "M9", "--lambda=nan,-2,-3",
                      "--A", "0.2,0.3"], "not finite", id="lambda-nan"),
        pytest.param(["invert", "--model", "M9", "--lambda=-1,-2,-3",
                      "--A", "0.2,-inf"], "not finite", id="A-inf"),
        pytest.param(["variants", "--moments=-15,27,-10,-5,inf"],
                     "not finite", id="moments-inf"),
        pytest.param(["invert", "--model", "M3", "--moments=-15,60,-30,-5,45",
                      "--k3-grid", "1,nan"], "not finite", id="k3-grid-nan"),
        pytest.param(["invert", "--model", "M3", "--moments=-15,60,-30,-5,45",
                      "--k3-grid", "0,1"], "positive", id="k3-grid-zero"),
        pytest.param(["invert", "--model", "M3", "--moments=-15,60,-30,-5,45",
                      "--k3-grid", "1,-0.5"], "positive",
                     id="k3-grid-negative"),
    ])
    def test_invalid_number_is_exit_2(self, args, message, capsys):
        # A nan decay rate used to give all-nan "solutions", and k3 = 0
        # -Infinity and NaN rates, both with exit 0; an infinite rate
        # kept pipeline running for minutes.
        assert run(args) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "PhasekitError"
        assert message in err["message"]

    @pytest.mark.parametrize("args", [
        pytest.param(["invert", "--model", "M9",
                      "--moments=-1e103,1e205,-1e307,-1e102,1e205"],
                     id="M9-huge-moments"),
        pytest.param(["invert", "--model", "M3", "--moments=-15,60,-30,-5,45",
                      "--k3-grid", "1e300"], id="M3-huge-k3"),
    ])
    def test_non_finite_result_is_exit_2(self, args, tmp_path, capsys):
        # Finite inputs whose solutions overflow: the artifact would hold
        # NaN or Infinity, which is not JSON, so nothing is written.
        out = tmp_path / "sols.json"
        with np.errstate(all="ignore"):
            assert run([*args, "--out", out]) == 2
        assert not out.exists()
        assert json.loads(capsys.readouterr().err)["error"] == (
            "PhasekitError")

    def test_missing_file_is_exit_2(self, tmp_path):
        assert run(["fit", "--trace", tmp_path / "nope.csv",
                    "--components", 2]) == 2

    def test_validate_ok(self, capsys):
        assert run(["validate", "--model", "M9", "--rates", "1,2,3,4,5"]) == 0
        assert "ok" in capsys.readouterr().out

    def test_validate_flags_bad_rates(self):
        assert run(["validate", "--model", "M9",
                    "--rates", "1,0,3,4,5"]) == 2


class TestSimulateFit:
    def test_simulate_and_fit(self, tmp_path):
        trace = tmp_path / "trace.csv"
        assert run(["simulate", "--model", "chain1", "--rates", "2.0",
                    "--n", 5000, "--seed", 3, "--out", trace]) == 0
        assert trace.read_text().splitlines()[0] == "gap"
        assert (tmp_path / "trace.csv.manifest.json").exists()
        fit_out = tmp_path / "fit.json"
        assert run(["fit", "--trace", trace, "--components", 1,
                    "--restarts", 3, "--out", fit_out]) == 0
        doc = load(fit_out)
        assert abs(doc["lam"][0] + 2.0) < 0.15
        assert doc["converged"] is True

    def test_simulate_deterministic(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            run(["simulate", "--model", "M9", "--rates", "1,2,3,4,5",
                 "--n", 200, "--seed", 11, "--out", out])
        assert a.read_text() == b.read_text()


class TestVariantsExperiment:
    def test_variants_report(self, tmp_path):
        out = tmp_path / "var.json"
        assert run(["variants", "--lambda=-0.5,-1.5,-13",
                    "--A=0.57,0.07,0.36", "--out", out]) == 0
        doc = load(out)
        assert sum(1 for i in doc["instances"] if i["valid"]) >= 4
        assert doc["deltas"]["p3"] < 1e-8

    def test_variants_need_three_components(self, capsys):
        assert run(["variants", "--lambda=-1,-2", "--A=0.5,0.5"]) == 2
        assert json.loads(capsys.readouterr().err)["error"] == "WrongArity"

    def test_variants_from_moments(self, tmp_path):
        out = tmp_path / "var.json"
        assert run(["variants", "--moments=-15,27,-10,-5,60",
                    "--out", out]) == 0
        assert load(out)["instances"]

    def test_variants_invert_the_moments_given(self, tmp_path):
        # Each instance is the model's own inverse of these moments, bit
        # for bit; a round trip through (lambda, A) would move them first.
        k = 10 ** np.random.default_rng(5).uniform(-2, 2, 5)
        m = direct.moments(direct.phase_type_params(
            models.build_generator(models.M9, k)))
        out = tmp_path / "var.json"
        assert run(["variants", "--moments=" + ",".join(
            repr(float(x)) for x in (*m.L, *m.S)), "--out", out]) == 0
        instances = load(out)["instances"]
        assert instances
        for inst in instances:
            [want] = [s for s in inverse.invert(
                models.model_from_string(inst["model"]), m)
                if s.branch == inst["branch"]]
            assert inst["rates"] == want.rates.tolist()
        assert [i["rates"] for i in instances] == [
            i.solution.rates.tolist()
            for i in rashomon.enumerate_variants(m).instances]

    def test_experiment_small(self, tmp_path):
        out = tmp_path / "exp.json"
        prefix = tmp_path / "hist"
        assert run(["experiment", "--samples", 300, "--seed", 7,
                    "--out", out, "--hist-prefix", prefix]) == 0
        doc = load(out)
        assert doc["n_samples"] == 300
        assert 0 < doc["n_retained"] < 300
        assert (tmp_path / "hist_delta_p1.csv").exists()


class TestPipeline:
    def test_m9_pipeline(self, tmp_path):
        out = tmp_path / "pipe.json"
        assert run(["pipeline", "--model", "M9", "--rates", "1,2,3,4,5",
                    "--n", 20000, "--seed", 2, "--restarts", 4,
                    "--out", out]) == 0
        doc = load(out)
        assert doc["solvable"] is True
        assert doc["ground_truth"]["best_match_model"] == "M9"
        assert doc["ground_truth"]["best_match_rel_err"] < 0.5

    def test_pipeline_rejects_tiny_trace(self):
        assert run(["pipeline", "--model", "M9", "--rates", "1,2,3,4,5",
                    "--n", 10, "--seed", 1]) == 2

    def test_fit_skips_restarts_with_negative_density(self, tmp_path):
        # The restart with the lowest penalised objective (-6716) has a
        # density that is negative at some gaps; every feasible restart
        # reaches a log-likelihood of -1172.386.
        out = tmp_path / "pipe.json"
        assert run(["pipeline", "--model", "M2", "--rates", "1,2,3,4,5",
                    "--n", 3000, "--seed", 1533820977, "--out", out]) == 0
        assert load(out)["fit"]["log_likelihood"] == pytest.approx(
            -1172.386, abs=1e-3)

    @pytest.mark.parametrize("model, seed, log_likelihood", [
        # The best restart by objective pins an amplitude at -10 and has a
        # rate of -3.3e5 with f(0) = -3.3e6 (log-likelihood 1562.3).
        ("M9", 886374938, -834.629),
        # The best restart by objective has a negative tail coefficient,
        # -0.0126 at the slowest rate (log-likelihood 1934.3).
        ("M2", 1438012291, -449.762),
    ])
    def test_fit_is_admissible(self, tmp_path, model, seed, log_likelihood):
        out = tmp_path / "pipe.json"
        assert run(["pipeline", "--model", model, "--rates", "1,2,3,4,5",
                    "--n", 1000, "--seed", seed, "--out", out]) == 0
        fit = load(out)["fit"]
        lam, amps = np.array(fit["lam"]), np.array(fit["A"])
        c = -amps * lam
        assert c.sum() > 0.0
        assert c[np.argmax(lam)] > 0.0
        assert fit["log_likelihood"] == pytest.approx(log_likelihood,
                                                      abs=1e-3)

    def test_report_is_validated(self, tmp_path):
        out = tmp_path / "pipe.json"
        assert run(["pipeline", "--model", "M9", "--rates", "1,2,3,4,5",
                    "--n", 1000, "--seed", 3, "--restarts", 2,
                    "--out", out]) == 0
        payload = load(out)
        del payload["variants"]
        with pytest.raises(jsonschema.ValidationError, match="'variants'"):
            check_artifact("pipeline", json.dumps(payload))

    def test_chain_pipeline_inverts_the_chain(self, tmp_path):
        out = tmp_path / "pipe.json"
        assert run(["pipeline", "--model", "chain3", "--rates", "1,2,3,4,5",
                    "--n", 2000, "--seed", 1, "--out", out]) == 0
        truth = load(out)["ground_truth"]
        assert truth["best_match_model"] == "chain3"
        assert 0.0 <= truth["best_match_rel_err"] < 1.0

    @pytest.mark.parametrize("model", ["chain2", "chain4"])
    def test_chain_pipeline_has_no_variants(self, tmp_path, model):
        # Variants exist for three fitted components only; the chain is
        # inverted all the same, and chain4 at seed 1 meets a ZeroPivot.
        n = int(model[5:])
        out = tmp_path / "pipe.json"
        assert run(["pipeline", "--model", model, "--rates",
                    ",".join(map(str, range(1, 2 * n))),
                    "--n", 2000, "--seed", 1, "--out", out]) == 0
        doc = load(out)
        assert doc["variants"] is None
        truth = doc["ground_truth"]
        assert truth["best_match_model"] in (model, None)
        if truth["best_match_model"] is None:
            assert truth["best_match_rel_err"] is None
        else:
            assert np.isfinite(truth["best_match_rel_err"])

    def test_m3_pipeline_family(self, tmp_path):
        out = tmp_path / "pipe3.json"
        assert run(["pipeline", "--model", "M3", "--rates", "1,2,3,4,5",
                    "--n", 20000, "--seed", 1, "--restarts", 4,
                    "--m3-tol", 0.2, "--out", out]) == 0
        doc = load(out)
        assert doc["solvable"] is False
        assert len(doc["m3_family"]) >= 1


def test_parser_is_built_once(capsys):
    cli.build_parser.cache_clear()
    reports = []
    for _ in range(2):
        assert run(["direct", "--model", "M9", "--rates", "1,2,3,4,5"]) == 0
        doc = json.loads(capsys.readouterr().out)
        del doc["manifest"]["wall_time_s"]
        reports.append(doc)
    assert cli.build_parser.cache_info().misses == 1
    assert reports[0] == reports[1]


def test_every_shipped_schema_is_checked():
    shipped = {f.name for f in (resources.files("phasekit") / "schemas")
               .iterdir() if f.name.endswith(".schema.json")}
    assert shipped == set(SCHEMAS.values())


def test_import_leaves_jsonschema_unloaded():
    # The schemas are checked in the tests; the program only serializes.
    src = os.path.dirname(os.path.dirname(cli.__file__))
    out = subprocess.run(
        [sys.executable, "-c",
         "import os, sys\n"
         "from phasekit import cli\n"
         "print('jsonschema' in sys.modules)\n"
         "cli.main(['direct', '--model', 'M9', '--rates', '1,2,3,4,5',\n"
         "          '--out', os.devnull])\n"
         "print('jsonschema' in sys.modules)"],
        capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.split() == ["False"] * 2
