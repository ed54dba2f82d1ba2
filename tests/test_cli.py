import csv
import dataclasses
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from laglearn import cli, experiments
from laglearn.experiments import ConfigFileError, parse_config, validate_config


def write_config(tmp_path, text, name="exp.ini"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


TINY_SWEEP = """
[experiment]
kind = delay-sweep
horizon = 50
trials = 3
seed = 404

[learner]
kind = ogd
schedule = sqrt
sigma = 0.5
lam = coupled

[sweep]
tau = 1, 2

[stream]
kind = gaussian
rho = 0.5

[loss]
family = quadratic
coefficients = uniform

[delays]
kind = fixed
"""


# ---------------------------------------------------------------------------
# Parsing and validation
# ---------------------------------------------------------------------------

def test_parse_rejects_unknown_options(tmp_path):
    path = write_config(tmp_path, "[experiment]\nkind = single-run\nbogus = 1\n")
    with pytest.raises(ConfigFileError) as err:
        parse_config(path)
    assert any("experiment.bogus" in e for e in err.value.errors)


def test_parse_reports_bad_values_with_field_names(tmp_path):
    path = write_config(tmp_path, "[experiment]\nkind = single-run\ntrials = x\n")
    with pytest.raises(ConfigFileError) as err:
        parse_config(path)
    assert any("experiment.trials" in e for e in err.value.errors)


def test_validate_names_every_violated_field(tmp_path):
    path = write_config(tmp_path, """
[experiment]
kind = delay-sweep
trials = 0

[learner]
kind = ogd
schedule = strongly-convex
warmup = -1

[sweep]
tau = 1, 2
""")
    errors = validate_config(parse_config(path))
    assert any("experiment.trials" in e for e in errors)
    assert any("learner.gamma" in e for e in errors)
    assert any("learner.warmup" in e for e in errors)


ADVERSARIAL = "kind = adversarial\neta = 0.1\nlam = 0.0"


@pytest.mark.parametrize("overrides, error", [
    ({"learner": "kind = ogd\nschedule = sqrt\nsigma = -0.5"}, "learner: sigma must be positive"),
    ({"learner": "kind = omd\nschedule = strongly-convex\ngamma = 0"},
     "learner: gamma must be positive"),
    ({"learner": "kind = ogd\nschedule = constant\neta = 0"},
     "learner: step size must be positive"),
    ({"learner": "kind = adversarial\neta = -1\nlam = 0.0"},
     "learner: step size must be positive"),
    ({"loss": "family = quadratic\ncoefficients = fixed\na = 0"},
     "loss: quadratic coefficient a must be positive"),
    ({"loss": "family = quadratic\ncoefficients = fixed\nb = -1"},
     "loss: offset b must be nonnegative"),
    ({"loss": "family = power\nm = 0"}, "loss: exponent m must be an integer >= 1"),
    ({"loss": "family = exp\nsigma1 = 0"}, "loss: coefficients a and s must be positive"),
    ({"learner": ADVERSARIAL, "delays": "kind = adversarial\nd_max = 0"},
     "delays: d_max must be >= 1"),
], ids=["sigma", "gamma", "constant-eta", "adversarial-eta", "quadratic-a", "quadratic-b",
        "power-m", "exp-sigma1", "d_max"])
def test_validate_reports_a_constructor_error_under_its_section(tmp_path, overrides, error):
    # These rules live only in the constructors; validate meets them by
    # building each arm, as run does.
    sections = {"experiment": "kind = delay-sweep", "sweep": "tau = 0, 1",
                "learner": "kind = ogd\nschedule = sqrt\nsigma = 0.5", "loss": "family = norm",
                "delays": "kind = fixed"}
    if "adversarial" in overrides.get("learner", ""):
        sections["delays"] = "kind = adversarial"
    sections.update(overrides)
    text = "".join(f"[{name}]\n{body}\n\n" for name, body in sections.items())
    assert validate_config(parse_config(write_config(tmp_path, text))) == [error]


def test_validate_all_presets_are_clean():
    for name in experiments.preset_names():
        cfg = parse_config(experiments.preset_path(name))
        assert validate_config(cfg) == [], name


def test_trial_seed_derivation_is_stable():
    a = experiments.trial_seed(1234, 0)
    b = experiments.trial_seed(1234, 1)
    assert a != b
    assert a == experiments.trial_seed(1234, 0)
    assert 0 <= a < 2**64


# ---------------------------------------------------------------------------
# CLI commands
# ---------------------------------------------------------------------------

def test_cli_list_presets(capsys):
    assert cli.main(["list-presets"]) == 0
    out = capsys.readouterr().out.split()
    for name in ("fig1", "fig2", "fig3", "fig4", "thm1", "thm2", "thm3", "thm4"):
        assert name in out


def test_cli_validate_preset_prints_resolved_parameters(capsys):
    assert cli.main(["validate", "thm1"]) == 0
    out = capsys.readouterr().out
    assert "OK" in out
    assert "sigma_resolved" in out


def test_cli_validate_bad_config_exits_nonzero(tmp_path, capsys):
    path = write_config(tmp_path, "[experiment]\nkind = delay-sweep\ntrials = 0\n")
    assert cli.main(["validate", str(path)]) == 2
    err = capsys.readouterr().err
    assert "experiment.trials" in err
    assert "sweep.tau" in err


def test_cli_unknown_config_argument(capsys):
    assert cli.main(["validate", "no-such-thing"]) == 2
    assert "neither" in capsys.readouterr().err


def test_cli_single_run_matches_hand_oracle(tmp_path, capsys):
    # Same three-round instance as the library-level oracle, through the CLI
    # and the explicit-context CSV interface.
    contexts = tmp_path / "contexts.csv"
    contexts.write_text("1.0,1.0\n1.0,2.0\n1.0,3.0\n", encoding="utf-8")
    config = write_config(tmp_path, f"""
[experiment]
kind = single-run
horizon = 3
trials = 1

[learner]
kind = ogd
schedule = constant
eta = 0.5
lam = 0.0
tau = 0

[stream]
kind = csv
path = {contexts}
d1 = 1
d2 = 1
radius = 10.0

[loss]
family = quadratic
coefficients = fixed
a = 1.0
b = 0.0

[delays]
kind = fixed
""")
    out_dir = tmp_path / "out"
    assert cli.main(["run", str(config), "--out-dir", str(out_dir)]) == 0
    rows = list(csv.DictReader(open(out_dir / "trajectory.csv")))
    assert [float(r["estimate_0"]) for r in rows] == [0.0, 1.0, 2.0]
    assert [float(r["loss"]) for r in rows] == [1.0, 1.0, 1.0]
    assert [float(r["score_error"]) for r in rows] == [1.0, 1.0, 1.0]
    assert [r["delivered"] for r in rows] == ["1", "2", "3"]
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert manifest["metrics"]["replay_gap"] == 0.0


def test_cli_single_run_multi_delivery_from_delay_file(tmp_path):
    contexts = tmp_path / "contexts.csv"
    contexts.write_text("1.0,1.0\n1.0,2.0\n1.0,3.0\n", encoding="utf-8")
    delay_file = tmp_path / "delays.txt"
    delay_file.write_text("3\n1\n1\n", encoding="utf-8")
    config = write_config(tmp_path, f"""
[experiment]
kind = single-run
horizon = 3
trials = 1

[learner]
kind = adversarial
eta = 0.1
lam = 0.0

[stream]
kind = csv
path = {contexts}
d1 = 1
d2 = 1
radius = 10.0

[loss]
family = quadratic
coefficients = fixed
a = 1.0
b = 0.0

[delays]
kind = file
path = {delay_file}
""")
    out_dir = tmp_path / "out"
    assert cli.main(["run", str(config), "--out-dir", str(out_dir)]) == 0
    rows = list(csv.DictReader(open(out_dir / "trajectory.csv")))
    assert [r["delivered"] for r in rows] == ["", "2", "1;3"]
    x2 = 0.0
    x3 = x2 - 0.1 * (2.0 * (x2 - 2.0))
    assert [float(r["estimate_0"]) for r in rows] == [0.0, x2, x3]
    assert float(rows[2]["loss"]) == math.sqrt((x3 - 3.0) ** 2) ** 2


def _single_ogd_csv_config(tmp_path, rows, delays):
    contexts = tmp_path / "contexts.csv"
    contexts.write_text("".join(f"1.0,{i}.0\n" for i in range(rows)), encoding="utf-8")
    return write_config(tmp_path, f"""
[experiment]
kind = single-run
horizon = 4
trials = 1

[learner]
kind = ogd
schedule = constant
eta = 0.5
lam = 0.0
tau = 1

[stream]
kind = csv
path = {contexts}
d1 = 1
d2 = 1

{delays}
""")


def test_cli_validate_rejects_adversarial_delays_for_fixed_lag_learners(tmp_path, capsys):
    config = _single_ogd_csv_config(tmp_path, 4, "[delays]\nkind = adversarial\n")
    assert cli.main(["validate", str(config)]) == 2
    assert "delays.kind" in capsys.readouterr().err


@pytest.mark.parametrize("rows, delays", [
    (4, "3\n2\n2\n2\n"),   # not every delay is tau + 1 = 2
])
def test_cli_run_reports_domain_errors_with_exit_2(tmp_path, capsys, rows, delays):
    delay_file = tmp_path / "delays.txt"
    delay_file.write_text(delays, encoding="utf-8")
    config = _single_ogd_csv_config(tmp_path, rows,
                                    f"[delays]\nkind = file\npath = {delay_file}\n")
    error = "error: delays.path: delay file has delay 3; a fixed-lag learner needs every delay"
    assert cli.main(["validate", str(config)]) == 2
    assert capsys.readouterr().err.startswith(error)
    out = tmp_path / "out"
    assert cli.main(["run", str(config), "--out-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(error) and "Traceback" not in err
    assert not out.exists()


def _scaling_check_config(tmp_path, stream, learner, delays):
    return write_config(tmp_path, f"""
[experiment]
kind = scaling-check
trials = 2

[learner]
{learner}

[sweep]
horizon = 3, 50

[stream]
{stream}

[loss]
family = norm

[delays]
{delays}
""")


def test_cli_scaling_check_with_too_few_positive_regrets_writes_no_fit(tmp_path, capsys):
    # At seed 0 arm T4 ends with a negative regret: three horizons, two
    # positive points.  The run keeps its outputs and leaves the fit out.
    config = write_config(tmp_path, """
[experiment]
kind = scaling-check
trials = 1
seed = 0

[learner]
kind = ogd
schedule = sqrt
sigma = 0.5
lam = 0.0

[sweep]
horizon = 2, 3, 4

[stream]
kind = gaussian

[loss]
family = norm

[delays]
kind = fixed
""")
    out = tmp_path / "out"
    assert cli.main(["run", str(config), "--out-dir", str(out)]) == 0
    capsys.readouterr()
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    assert sorted(p.name for p in out.iterdir()) == ["T2.csv", "T3.csv", "T4.csv",
                                                    "manifest.json"]
    assert sum(arm["final_regret_mean"] > 0.0 for arm in manifest["arms"].values()) == 2
    assert not any(key.startswith("regret_exponent") for key in manifest["metrics"])


@pytest.mark.parametrize("kind, error", [
    ("single-run", "error: stream.path: csv stream has 3 rows"),
    ("scaling-check", "error: stream.path: csv stream has 4 rows"),
    ("missing-file", "error: stream: "),  # the OSError's text is numpy's
], ids=["single-run", "scaling-check", "missing-file"])
def test_cli_validate_and_run_reject_a_csv_stream_shorter_than_the_horizon(tmp_path, capsys,
                                                                         kind, error):
    if kind == "single-run":   # horizon 4, three rows
        config = _single_ogd_csv_config(tmp_path, 3, "[delays]\nkind = fixed\n")
    elif kind == "scaling-check":  # arms T3 and T50, four rows
        contexts = tmp_path / "contexts.csv"
        contexts.write_text("1.0,0.5\n" * 4, encoding="utf-8")
        config = _scaling_check_config(
            tmp_path, f"kind = csv\npath = {contexts}\nd1 = 1\nd2 = 1",
            "kind = ogd\nschedule = sqrt\nsigma = 0.5", "kind = fixed")
    else:                      # the csv file is not there
        config = _single_ogd_csv_config(tmp_path, 4, "[delays]\nkind = fixed\n")
        (tmp_path / "contexts.csv").unlink()
    assert cli.main(["validate", str(config)]) == 2
    assert capsys.readouterr().err.startswith(error)
    out = tmp_path / "out"
    assert cli.main(["run", str(config), "--out-dir", str(out)]) == 2
    assert capsys.readouterr().err.startswith(error)
    assert not out.exists()


@pytest.mark.parametrize("kind", ["single-run", "scaling-check"])
def test_cli_validate_and_run_reject_a_delay_file_shorter_than_the_horizon(tmp_path, capsys,
                                                                           kind):
    delay_file = tmp_path / "delays.txt"
    if kind == "single-run":   # horizon 4, three delays
        delay_file.write_text("2\n2\n2\n", encoding="utf-8")
        config = _single_ogd_csv_config(tmp_path, 4, f"[delays]\nkind = file\npath = {delay_file}")
    else:                      # arms T3 and T50, four delays
        delay_file.write_text("1\n2\n1\n3\n", encoding="utf-8")
        config = _scaling_check_config(
            tmp_path, "kind = gaussian",
            "kind = adversarial\neta = 0.1\nlam = 0.0", f"kind = file\npath = {delay_file}")
    assert cli.main(["validate", str(config)]) == 2
    assert "delays.path: delay file has" in capsys.readouterr().err
    out = tmp_path / "out"
    assert cli.main(["run", str(config), "--out-dir", str(out)]) == 2
    assert "delays.path" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("delays, eta, error", [
    ([2**63] + [1] * 9, "0.1", "error: delays: delays must be integers from 1 to"),
    ([1, 2**63 - 1] + [1] * 8, "0.1", "error: delays.path: a trial's delays may sum to"),
    (2**62, "0.1", "error: delays.d_max: a trial's delays may sum to"),
    (2**62, "auto", "error: delays.d_max: a trial's delays may sum to"),
], ids=["delay-past-int64", "sum-past-int64", "d_max", "d_max-eta-auto"])
def test_cli_rejects_delays_that_overflow_int64_with_exit_2(tmp_path, capsys, delays, eta,
                                                            error):
    # Ten rounds whose delay file or d_max lets a delay, or a trial's delay
    # sum, pass int64: numpy would fail to convert the delay, or wrap a due
    # round or the delay sum negative.
    if isinstance(delays, list):
        delay_file = tmp_path / "delays.txt"
        delay_file.write_text("".join(f"{d}\n" for d in delays), encoding="utf-8")
        section = f"kind = file\npath = {delay_file}"
    else:
        section = f"kind = adversarial\nd_max = {delays}"
    config = write_config(tmp_path, f"""
[experiment]
kind = single-run
horizon = 10
trials = 1

[learner]
kind = adversarial
eta = {eta}
lam = 0.0

[stream]
kind = gaussian

[loss]
family = norm
coefficients = fixed

[delays]
{section}
""")
    for command in (["validate", str(config)],
                    ["run", str(config), "--out-dir", str(tmp_path / "out")]):
        assert cli.main(command) == 2
        err = capsys.readouterr().err
        assert err.startswith(error) and "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("kind, option", [("single-run", "learner.tau"),
                                          ("delay-sweep", "sweep.tau")])
def test_validate_rejects_a_fixed_lag_whose_delay_sum_overflows_int64(tmp_path, kind, option):
    tau = 2**63 - 1  # tau + 1 itself does not fit
    text = (f"[experiment]\nkind = {kind}\nhorizon = 10\n\n"
            f"[learner]\nkind = ogd\nschedule = constant\neta = 0.1\ntau = {tau}\nwarmup = 0\n\n"
            f"[sweep]\ntau = {tau}\n\n[loss]\nfamily = norm\n\n[delays]\nkind = fixed\n")
    errors = validate_config(parse_config(write_config(tmp_path, text)))
    assert errors == [f"{option}: a trial's delays may sum to {10 * 2**63}, more than int64 "
                      f"holds ({2**63 - 1})"]


def test_cli_run_removes_its_outputs_when_a_later_arm_fails(tmp_path, capsys, monkeypatch):
    # Arm T3 runs and writes T3.csv; arm T50 then fails.
    run_single, horizons = experiments.run_single, []

    def fail_at_t50(cfg, seeds, *solved):
        horizons.append(cfg.horizon)
        if cfg.horizon == 50:
            raise ValueError("arm T50 failed")
        return run_single(cfg, seeds, *solved)

    monkeypatch.setattr(experiments, "run_single", fail_at_t50)
    config = _scaling_check_config(
        tmp_path, "kind = gaussian",
        "kind = adversarial\neta = 0.1\nlam = 0.0", "kind = adversarial\nd_max = 4")
    assert cli.main(["validate", str(config)]) == 0
    fresh = tmp_path / "fresh" / "out"
    assert cli.main(["run", str(config), "--out-dir", str(fresh)]) == 2
    assert "arm T50 failed" in capsys.readouterr().err
    assert horizons == [3, 50]
    assert not (tmp_path / "fresh").exists()

    # Files the run did not write stay where they were.
    existing = tmp_path / "existing"
    existing.mkdir()
    (existing / "notes.txt").write_text("kept", encoding="utf-8")
    assert cli.main(["run", str(config), "--out-dir", str(existing)]) == 2
    assert [p.name for p in existing.iterdir()] == ["notes.txt"]


def _far_csv(tmp_path, rows):
    """A csv stream whose hidden contexts lie at 50, far outside the default ball of radius 4."""
    contexts = tmp_path / "far.csv"
    contexts.write_text("1.0,50.0\n" * rows, encoding="utf-8")
    return f"kind = csv\npath = {contexts}\nd1 = 1\nd2 = 1"


def test_cli_run_reports_a_non_finite_gradient_with_exit_2(tmp_path, capsys):
    # The hidden contexts lie far outside the ball, so exp(r^2) overflows at the
    # first gradient, though validate finds a finite bound within the ball; the
    # learner must refuse the infinite gradient instead of writing a run that
    # looks successful.
    config = write_config(tmp_path, f"""
[experiment]
kind = single-run
horizon = 20
trials = 1
seed = 0

[learner]
kind = ogd
schedule = sqrt
sigma = 0.5
lam = 0.0

[stream]
{_far_csv(tmp_path, 20)}

[loss]
family = exp
a = 1.0
sigma1 = 1.0
m = 2

[delays]
kind = fixed
""")
    assert cli.main(["validate", str(config)]) == 0
    capsys.readouterr()
    out = tmp_path / "out"
    assert cli.main(["run", str(config), "--out-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == "error: gradient has NaN or infinite entries at round 1\n"
    assert not out.exists()


@pytest.mark.parametrize("learner", [
    "kind = ogd\nschedule = constant",
    "kind = omd\nmirror = euclidean\nschedule = constant",
    "kind = adversarial",
], ids=["ogd", "omd-euclidean", "adversarial"])
def test_cli_run_reports_an_overflowing_step_with_exit_2(tmp_path, capsys, learner):
    # eta * g overflows at the first update; every gradient learner must
    # stop there, as one learner, instead of writing a run that looks successful.
    config = write_config(tmp_path, f"""
[experiment]
kind = single-run
horizon = 50
trials = 1
seed = 0

[learner]
{learner}
eta = 1e308
lam = 0.0

[stream]
kind = gaussian

[loss]
family = quadratic
coefficients = fixed
a = 1.0

[delays]
kind = fixed
""")
    assert cli.main(["validate", str(config)]) == 0
    capsys.readouterr()
    assert cli.main(["run", str(config), "--out-dir", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "NaN or infinite" in err and "Traceback" not in err


@pytest.mark.parametrize("kind, sweep, arm", [
    ("delay-sweep", "tau = 10, 50", "tau50"),
    ("scaling-check", "horizon = 100, 20", "T20"),
])
def test_warmup_covering_a_swept_horizon_is_rejected(tmp_path, capsys, kind, sweep, arm):
    # Two warm-up windows of tau rounds cover the horizon of one swept arm only.
    config = write_config(tmp_path, f"""
[experiment]
kind = {kind}
horizon = 100
trials = 2

[learner]
kind = ogd
schedule = sqrt
sigma = 0.5
tau = 10
warmup = 2

[sweep]
{sweep}
""")
    assert cli.main(["validate", str(config)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: learner.warmup") and arm in err
    assert cli.main(["run", str(config), "--out-dir", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.startswith("error: learner.warmup")
    assert not (tmp_path / "out").exists()


NAIVE_BASELINE_ERROR = ("error: learner.kind: baseline-compare plays naive as its baseline "
                        "arm; compare another learner\n")


def test_baseline_compare_of_the_naive_learner_is_rejected(tmp_path, capsys):
    # Both arms would be labelled naive: one csv written twice and a ratio of 1.0.
    config = write_config(tmp_path, """
[experiment]
kind = baseline-compare
horizon = 20
trials = 2

[learner]
kind = naive

[stream]
kind = gaussian

[loss]
family = quadratic
coefficients = uniform
""")
    assert cli.main(["validate", str(config)]) == 2
    assert capsys.readouterr().err == NAIVE_BASELINE_ERROR
    out = tmp_path / "out"
    assert cli.main(["run", str(config), "--out-dir", str(out)]) == 2
    assert capsys.readouterr().err == NAIVE_BASELINE_ERROR
    assert not out.exists()
    config.write_text(config.read_text().replace("kind = naive", "kind = ogd\nsigma = 0.5"))
    assert cli.main(["run", str(config), "--out-dir", str(out)]) == 0
    assert sorted(p.name for p in out.iterdir()) == ["manifest.json", "naive.csv", "ogd.csv"]


@pytest.mark.parametrize("learner", [
    "kind = naive",
    "kind = ogd\nschedule = sqrt\nsigma = auto",
    "kind = ogd\nschedule = sqrt\nsigma = 0.5",
    "kind = adversarial\neta = auto\nlam = 0.2",
], ids=["naive", "ogd-auto", "ogd", "adversarial-auto"])
@pytest.mark.parametrize("experiment", [
    "kind = single-run",
    "kind = baseline-compare",
    "kind = scaling-check\n\n[sweep]\nhorizon = 10, 20, 30",
], ids=["single-run", "baseline-compare", "scaling-check"])
def test_a_power_loss_with_no_finite_gradient_bound_exits_2(tmp_path, capsys, learner,
                                                            experiment):
    # 400 * 8.0 ** 399 overflows a float, and so does the slope of the exp
    # losses at radius 8: no step can be tuned, and the comparator's step
    # 1 / (L n) has no L either, whatever the learner.  Every arm fails alike
    # and says so once.
    for family, m, coefficients in [("power", 400, "coefficients = fixed"),
                                    ("exp", 400, "a = 1.0\nsigma1 = 1.0"),
                                    ("exp", 3, "a = 1.0\nsigma1 = 0.3")]:
        config = write_config(tmp_path, f"""
[experiment]
horizon = 30
trials = 2
{experiment}

[learner]
{learner}

[stream]
kind = gaussian

[loss]
family = {family}
m = {m}
{coefficients}

[delays]
kind = fixed
""")
        error = f"error: loss: {family} loss with m = {m} has no finite gradient bound " \
                "within radius 8\n"
        if "naive" in learner and "baseline-compare" in experiment:
            error = NAIVE_BASELINE_ERROR  # an option check, before any arm is built
        assert cli.main(["validate", str(config)]) == 2
        assert capsys.readouterr().err == error
        out = tmp_path / "out"
        assert cli.main(["run", str(config), "--out-dir", str(out)]) == 2
        assert capsys.readouterr().err == error
        assert not out.exists()


@pytest.mark.parametrize("learner, error", [
    ("kind = ogd\nschedule = sqrt\nsigma = auto",
     "error: learner: gradient bound L = 4.78255e+246 is too large to tune sigma: L^2 overflows"),
    ("kind = adversarial\neta = auto\nlam = 0.0",
     "error: learner: gradient bound L = 4.78255e+246 is too large to tune eta: L^2 overflows"),
], ids=["sigma-auto", "eta-auto"])
def test_a_gradient_bound_whose_square_overflows_cannot_tune_a_step(tmp_path, capsys, learner,
                                                                    error):
    # Within radius 2.045 the power loss's bound 400 * 4.09 ** 399 is finite,
    # but its square is not: the tuned step would be 0.
    config = write_config(tmp_path, f"""
[experiment]
kind = single-run
horizon = 30
trials = 2

[learner]
{learner}

[stream]
kind = gaussian
radius = 2.045

[loss]
family = power
coefficients = fixed
m = 400

[delays]
kind = {"fixed" if "ogd" in learner else "adversarial"}
""")
    assert cli.main(["validate", str(config)]) == 2
    assert capsys.readouterr().err.splitlines() == [error]
    out = tmp_path / "out"
    assert cli.main(["run", str(config), "--out-dir", str(out)]) == 2
    assert capsys.readouterr().err.splitlines() == [error]
    assert not out.exists()


@pytest.mark.parametrize("learner, stream, loss, validate_exit, run_exit, error", [
    ("kind = ogd\nschedule = constant\neta = 1e200\nlam = 0.0", "kind = gaussian",
     "family = quadratic\ncoefficients = fixed\na = 1.0", 0, 0, None),
    ("kind = ogd\nschedule = sqrt\nsigma = 0.5", "kind = gaussian",
     "family = power\ncoefficients = fixed\nm = 400", 2, 2,
     "error: loss: power loss with m = 400 has no finite gradient bound within radius 8"),
    ("kind = ogd\nschedule = sqrt\nsigma = 0.5\nlam = 0.0", "far-csv",
     "family = power\ncoefficients = fixed\nm = 200", 0, 2,
     "error: gradient has NaN or infinite entries at round 1"),
    ("kind = ogd\nschedule = sqrt\nsigma = auto", "kind = gaussian",
     "family = exp\na = 1.0\nsigma1 = 1.0\nm = 400", 2, 2,
     "error: loss: exp loss with m = 400 has no finite gradient bound within radius 8"),
], ids=["ball-overflow", "power-m400", "power-far-csv", "exp-m400"])
def test_overflowing_runs_raise_no_numpy_warning(tmp_path, capsys, learner, stream, loss,
                                                 validate_exit, run_exit, error):
    # Squared norms, powers and exps that overflow are handled by the code
    # (a projection rescales the row, a non-finite step or bound is a named
    # error), so numpy must not warn: any warning here is an exception.
    if stream == "far-csv":
        stream = _far_csv(tmp_path, 50)
    config = write_config(tmp_path, f"""
[experiment]
kind = single-run
horizon = 50
trials = 2
seed = 0

[learner]
{learner}

[stream]
{stream}

[loss]
{loss}

[delays]
kind = fixed
""")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["validate", str(config)]) == validate_exit
        assert capsys.readouterr().err.splitlines()[-1:] == ([error] if validate_exit else [])
        assert cli.main(["run", str(config), "--out-dir", str(tmp_path / "out")]) == run_exit
        assert capsys.readouterr().err.splitlines()[-1:] == ([error] if run_exit else [])


ADVERSARIAL_VS_NAIVE = """
[experiment]
kind = baseline-compare
horizon = 60
trials = 3
seed = 505

[learner]
kind = adversarial
eta = auto
lam = 0.2

[stream]
kind = pentagon
d1 = 3
d2 = 2

[loss]
family = quadratic
coefficients = uniform

[delays]
kind = adversarial
d_max = 6
"""


def test_run_single_is_reproducible_across_batch_splits(tmp_path):
    # An arm's trials play as one lockstep batch; splitting its seeds into
    # contiguous batches, even uneven ones or batches of one, must not move a bit.
    splits = ([5], [2, 3], [1, 2, 1, 1], [1] * 5)
    for text in (TINY_SWEEP, ADVERSARIAL_VS_NAIVE):
        cfg = parse_config(write_config(tmp_path, text))
        seeds = [experiments.trial_seed(cfg.seed, i) for i in range(5)]
        for _, arm in experiments.expand_arms(cfg):
            runs = []
            for sizes in splits:
                starts = [sum(sizes[:k]) for k in range(len(sizes))]
                runs.append([experiments.run_single(arm, seeds[start:start + size])
                             for start, size in zip(starts, sizes)])
            for run in runs[1:]:
                for name in ("estimates", "loss_values", "score_errors", "delays"):
                    assert _trial_rows(run, 0, name) == _trial_rows(runs[0], 0, name)
                assert _trial_flags(run) == _trial_flags(runs[0])
                for name in ("regret", "cum_loss", "comparator", "comparator_loss", "converged"):
                    assert _trial_rows(run, 1, name) == _trial_rows(runs[0], 1, name)


def _trial_rows(batches, part, name):
    """The bytes of each trial's row of one array, over `run_single` results in order."""
    return [row.tobytes() for result in batches for row in getattr(result[part], name)]


def _trial_flags(batches):
    """Each trial's flags, over `run_single` results in order."""
    return [[flag for k, flag in traj.flags if k == trial]
            for traj, _ in batches for trial in range(len(traj.delays))]


def test_run_experiment_accepts_only_one_thread(tmp_path):
    cfg = parse_config(write_config(tmp_path, TINY_SWEEP))
    with pytest.raises(ValueError, match="threads"):
        experiments.run_experiment(cfg, tmp_path / "out", threads=2)
    assert not (tmp_path / "out").exists()


def test_cli_has_no_threads_flag(tmp_path, capsys):
    config = write_config(tmp_path, TINY_SWEEP)
    with pytest.raises(SystemExit) as exc:
        cli.main(["run", str(config), "--out-dir", str(tmp_path / "out"), "--threads", "2"])
    assert exc.value.code == 2
    assert "--threads" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_cli_seed_and_trials_overrides_change_outputs(tmp_path):
    config = write_config(tmp_path, TINY_SWEEP)
    base, reseeded = tmp_path / "base", tmp_path / "reseeded"
    assert cli.main(["run", str(config), "--out-dir", str(base)]) == 0
    assert cli.main(["run", str(config), "--out-dir", str(reseeded), "--seed", "9"]) == 0
    assert (base / "tau1.csv").read_bytes() != (reseeded / "tau1.csv").read_bytes()
    manifest = json.loads((reseeded / "manifest.json").read_text())
    assert manifest["base_seed"] == 9

    trimmed = tmp_path / "trimmed"
    assert cli.main(["run", str(config), "--out-dir", str(trimmed), "--trials", "1"]) == 0
    assert json.loads((trimmed / "manifest.json").read_text())["trials"] == 1


def test_cli_out_dir_env_var(tmp_path, monkeypatch):
    config = write_config(tmp_path, TINY_SWEEP, name="envcase.ini")
    monkeypatch.setenv(experiments.OUT_DIR_ENV, str(tmp_path / "envroot"))
    monkeypatch.chdir(tmp_path)
    assert cli.main(["run", str(config)]) == 0
    assert (tmp_path / "envroot" / "envcase" / "manifest.json").is_file()


def test_cli_plot_script(tmp_path):
    config = write_config(tmp_path, TINY_SWEEP)
    out_dir = tmp_path / "out"
    assert cli.main(["run", str(config), "--out-dir", str(out_dir)]) == 0
    assert cli.main(["plot-script", str(out_dir)]) == 0
    script = (out_dir / "plot.gp").read_text()
    assert "tau1.csv" in script and "tau2.csv" in script
    assert cli.main(["plot-script", str(tmp_path / "missing")]) == 2


def test_manifest_records_everything_needed_to_regenerate(tmp_path):
    config = write_config(tmp_path, TINY_SWEEP)
    out_dir = tmp_path / "out"
    assert cli.main(["run", str(config), "--out-dir", str(out_dir)]) == 0
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert manifest["base_seed"] == 404
    assert manifest["trials"] == 3
    assert len(manifest["trial_seeds"]) == 3
    assert set(manifest["arms"]) == {"tau1", "tau2"}
    for label in ("tau1", "tau2"):
        resolved = manifest["resolved"][label]
        assert resolved["kind"] == "delay-sweep"
        assert resolved["horizon"] == 50
        assert (out_dir / manifest["arms"][label]["csv"]).is_file()


def test_run_experiment_rejects_invalid_config(tmp_path):
    cfg = parse_config(experiments.preset_path("fig1"))
    broken = dataclasses.replace(cfg, trials=0)
    with pytest.raises(ConfigFileError):
        experiments.run_experiment(broken, tmp_path / "x")


def test_cli_unwritable_out_dir_exits_with_io_code(tmp_path, capsys):
    config = write_config(tmp_path, TINY_SWEEP)
    blocker = tmp_path / "not-a-dir"
    blocker.write_text("file in the way", encoding="utf-8")
    assert cli.main(["run", str(config), "--out-dir", str(blocker)]) == 3
    assert "error" in capsys.readouterr().err


def _run_in_a_fresh_process(args, package):
    """`cli.main(args)` in a new interpreter: its exit status and the modules
    of `package` (a dotted name) loaded by the end, as one printed line."""
    code = ("import sys\n"
            "from laglearn import cli\n"
            f"status = cli.main({args!r})\n"
            f"print(status, sorted(m for m in sys.modules if (m + '.').startswith({package + '.'!r})))\n")
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                            text=True, timeout=120)
    return result.stdout.splitlines()[-1], result.stderr


def test_a_one_dimensional_norm_run_loads_no_numpy_ma(tmp_path):
    # The comparator's start for 1-d norm losses is their median, taken
    # without np.median, whose NaN check imports numpy.ma.
    config = write_config(tmp_path, """\
[experiment]
kind = single-run
horizon = 500
trials = 1
seed = 3

[learner]
kind = adversarial
eta = auto
lam = 0.0

[stream]
kind = gaussian
d1 = 1
d2 = 1

[loss]
family = norm

[delays]
kind = adversarial
d_max = 20
""")
    line, err = _run_in_a_fresh_process(
        ["run", str(config), "--out-dir", str(tmp_path / "out")], "numpy.ma")
    assert line == "0 []", err


def test_a_scaling_check_loads_no_scipy(tmp_path):
    # The fit is numpy arithmetic: a run that fits an exponent imports no scipy module.
    line, err = _run_in_a_fresh_process(
        ["run", "thm1", "--trials", "2", "--out-dir", str(tmp_path)], "scipy")
    assert line == "0 []", err
