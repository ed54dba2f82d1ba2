import csv
import dataclasses
import json
import math
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
    assert cli.main(["validate", str(config)]) == 0
    capsys.readouterr()
    assert cli.main(["run", str(config), "--out-dir", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


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


@pytest.mark.parametrize("kind", ["single-run", "scaling-check"])
def test_cli_validate_and_run_reject_a_csv_stream_shorter_than_the_horizon(tmp_path, capsys,
                                                                         kind):
    if kind == "single-run":   # horizon 4, three rows
        config = _single_ogd_csv_config(tmp_path, 3, "[delays]\nkind = fixed\n")
    else:                      # arms T3 and T50, four rows
        contexts = tmp_path / "contexts.csv"
        contexts.write_text("1.0,0.5\n" * 4, encoding="utf-8")
        config = _scaling_check_config(
            tmp_path, f"kind = csv\npath = {contexts}\nd1 = 1\nd2 = 1",
            "kind = ogd\nschedule = sqrt\nsigma = 0.5", "kind = fixed")
    assert cli.main(["validate", str(config)]) == 2
    assert "stream.path: csv stream has" in capsys.readouterr().err
    out = tmp_path / "out"
    assert cli.main(["run", str(config), "--out-dir", str(out)]) == 2
    assert "stream.path" in capsys.readouterr().err
    assert not out.exists()


def test_cli_run_removes_its_outputs_when_a_later_arm_fails(tmp_path, capsys):
    # Arm T3 runs and writes T3.csv; arm T50 runs out of file delays.
    delay_file = tmp_path / "delays.txt"
    delay_file.write_text("1\n2\n1\n3\n", encoding="utf-8")
    config = _scaling_check_config(
        tmp_path, "kind = gaussian",
        "kind = adversarial\neta = 0.1\nlam = 0.0", f"kind = file\npath = {delay_file}")
    assert cli.main(["validate", str(config)]) == 0
    fresh = tmp_path / "fresh" / "out"
    assert cli.main(["run", str(config), "--out-dir", str(fresh)]) == 2
    assert "schedule has 4 delays" in capsys.readouterr().err
    assert not (tmp_path / "fresh").exists()

    # Files the run did not write stay where they were.
    existing = tmp_path / "existing"
    existing.mkdir()
    (existing / "notes.txt").write_text("kept", encoding="utf-8")
    assert cli.main(["run", str(config), "--out-dir", str(existing)]) == 2
    assert [p.name for p in existing.iterdir()] == ["notes.txt"]


def test_cli_run_reports_a_non_finite_gradient_with_exit_2(tmp_path, capsys):
    # exp(r^3 / 0.09) overflows within a few rounds; the learner must refuse
    # the infinite gradient instead of writing a run that looks successful.
    config = write_config(tmp_path, """
[experiment]
kind = single-run
horizon = 200
trials = 1
seed = 0

[learner]
kind = ogd
schedule = sqrt
sigma = 0.5
lam = coupled

[stream]
kind = gaussian
rho = 0.5

[loss]
family = exp
a = 1.0
sigma1 = 0.3
m = 3

[delays]
kind = fixed
""")
    assert cli.main(["validate", str(config)]) == 0
    capsys.readouterr()
    assert cli.main(["run", str(config), "--out-dir", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "NaN or infinite" in err and "Traceback" not in err


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
    # 400 * 8.0 ** 399 overflows a float: no step can be tuned, and the
    # comparator's step 1 / (L n) has no L either.
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
family = power
coefficients = fixed
m = 400

[delays]
kind = fixed
""")
    accepted = cli.main(["validate", str(config)]) == 0
    err = capsys.readouterr().err
    if "sigma = auto" in learner:
        assert not accepted and err == "error: power loss with m = 400 has no finite gradient " \
                                       "bound within radius 8\n"
    assert accepted or err.startswith("error: ")
    assert cli.main(["run", str(config), "--out-dir", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.splitlines()[-1].startswith("error: ") and "Traceback" not in err


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
                runs.append([result for start, size in zip(starts, sizes)
                             for result in experiments.run_single(arm, seeds[start:start + size])])
            for run in runs[1:]:
                for (traj, rep), (ref_traj, ref_rep) in zip(run, runs[0], strict=True):
                    for name in ("estimates", "loss_values", "score_errors", "delays"):
                        assert getattr(traj, name).tobytes() == getattr(ref_traj, name).tobytes()
                    assert traj.flags == ref_traj.flags
                    for name in ("regret", "cum_loss", "comparator"):
                        assert getattr(rep, name).tobytes() == getattr(ref_rep, name).tobytes()
                    assert rep.comparator_loss == ref_rep.comparator_loss


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
