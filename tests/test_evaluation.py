import dataclasses
import math
import tempfile
import time
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from delivery_oracle import deliveries
from laglearn import environment, evaluation, experiments, feedback
from laglearn.environment import (
    GaussianStream,
    LinearScoring,
    draw,
    fixed_loss,
    run_game,
    uniform_quadratic,
)
from laglearn.evaluation import (
    CSV_CHUNK,
    GAP_TOLERANCE,
    AggregateCurves,
    Trajectory,
    aggregate,
    fit_scaling,
    offline_optimum,
    regret,
    write_csv,
    write_trajectory_csv,
)
from laglearn.feedback import FixedDelay
from laglearn.geometry import Ball, Box, regular_polygon
from laglearn.learners import GradientLearner, InverseSqrtStep, InverseTimeStep
from laglearn.losses import ExpLoss, Loss, NormLoss, QuadraticLoss


def interval(lo, hi):
    return Box([lo], [hi])


# ---------------------------------------------------------------------------
# Offline comparator
# ---------------------------------------------------------------------------

def test_offline_quadratic_equal_weights_mean():
    losses = [QuadraticLoss([0.0], a=1.0), QuadraticLoss([2.0], a=1.0)]
    sol = offline_optimum(losses, interval(-10.0, 10.0))
    assert sol.point[0, 0] == pytest.approx(1.0)
    assert sol.total[0] == pytest.approx(2.0)
    assert sol.converged


def test_offline_quadratic_clamped_by_the_body():
    losses = [QuadraticLoss([0.0], a=1.0), QuadraticLoss([2.0], a=1.0)]
    sol = offline_optimum(losses, interval(-1.0, 0.5))
    assert sol.point[0, 0] == pytest.approx(0.5)


def test_offline_norm_median_one_dimensional():
    losses = [NormLoss([v]) for v in (0.0, 1.0, 10.0)]
    sol = offline_optimum(losses, interval(-20.0, 20.0))
    assert sol.point[0, 0] == pytest.approx(1.0)
    assert sol.total[0] == pytest.approx(10.0)


def test_offline_geometric_median_matches_grid_search():
    # Independent oracle: dense lattice search over the unit square.
    anchors = [np.array([0.1, 0.2]), np.array([0.8, 0.3]), np.array([0.4, 0.9])]
    losses = [NormLoss(a) for a in anchors]
    body = Box([0.0, 0.0], [1.0, 1.0])
    sol = offline_optimum(losses, body)

    xs = np.linspace(0.0, 1.0, 1000)
    ys = np.linspace(0.0, 1.0, 1000)
    gx, gy = np.meshgrid(xs, ys)
    total = np.zeros_like(gx)
    for a in anchors:
        total += np.hypot(gx - a[0], gy - a[1])
    best = np.unravel_index(np.argmin(total), total.shape)
    grid_point = np.array([gx[best], gy[best]])

    assert np.linalg.norm(sol.point[0] - grid_point) <= 1e-3
    assert sol.total[0] <= total[best] + 1e-6


def test_offline_iterative_agrees_with_closed_form():
    rng = np.random.default_rng(19)
    losses = [QuadraticLoss(rng.normal(size=2), a=float(rng.uniform(0.1, 1.0)),
                            b=float(rng.uniform()))
              for _ in range(40)]
    body = Ball([0.0, 0.0], 3.0)
    closed = offline_optimum(losses, body)
    iterative = offline_optimum(losses, body, method="iterative")
    assert np.linalg.norm(closed.point[0] - iterative.point[0]) <= 1e-6
    assert abs(closed.total[0] - iterative.total[0]) <= 1e-6


@pytest.mark.parametrize("n", [1, 2, 3, 4, 7, 8, 15, 16, 101, 1000])
def test_the_comparator_median_is_np_median_bit_for_bit(n):
    # Random rows of odd and even length, with ties, signed zeros, and a
    # NaN in some rows; one row of all -0.0.
    rng = np.random.default_rng(n)
    rows = rng.choice([-2.5, -1.0, -0.0, 0.0, 0.0, 1.0, 3.0], size=(6, n))
    rows[1] = rng.standard_normal(n)
    rows[2] = -0.0
    rows[3, rng.integers(n)] = np.nan
    rows[4] = rng.integers(-3, 4, size=n) * 0.5
    assert np.array_equal(evaluation._median(rows).view(np.uint64),
                          np.median(rows, axis=1).view(np.uint64))


def test_offline_comparator_beats_random_candidates():
    rng = np.random.default_rng(23)
    losses = [NormLoss(rng.normal(size=2)) for _ in range(25)]
    body = Ball([0.0, 0.0], 4.0)
    sol = offline_optimum(losses, body)
    for y in body.project(rng.normal(scale=2 * body.radius_bound, size=(100, 2))):
        assert sol.total[0] <= sum(l.value(y) for l in losses) + 1e-6


def test_offline_optimum_input_validation():
    with pytest.raises(ValueError):
        offline_optimum([], Ball([0.0], 1.0))
    with pytest.raises(ValueError):
        offline_optimum([NormLoss([0.0])], Ball([0.0, 0.0], 1.0))
    with pytest.raises(ValueError):
        offline_optimum([NormLoss([0.0])], Ball([0.0], 1.0), method="nope")


def frank_wolfe_gap(losses, body, x):
    """max over the body of <g, x - y>, g the summed gradient at x."""
    g = losses.grad(x).sum(axis=0)
    return float(g @ (x - body.linear_minimizer(g)))


def test_offline_optimum_solves_a_steep_exp_sum_and_certifies_it():
    # Steep: the gradient bound over the ball is about exp(178), so only a
    # step that adapts to the local curvature gets anywhere.
    anchors = 1 + 0.05 * np.random.default_rng(0).standard_normal((20, 1))
    losses = ExpLoss(anchors, a=1.0, s=0.3, m=2)
    body = Ball([0.0], 4.0)
    sol = offline_optimum(losses, body)
    assert sol.point[0, 0] == pytest.approx(0.990, abs=5e-4)
    assert sol.total[0] == pytest.approx(20.415, abs=5e-4)
    assert sol.converged and sol.gap[0] <= GAP_TOLERANCE * sol.total[0]
    # 1.079, with total 22.36, is far from certified: its gap is 233.
    stuck = np.array([1.079])
    assert frank_wolfe_gap(losses, body, stuck) > 200.0 > GAP_TOLERANCE * losses.value(stuck).sum()


def test_offline_optimum_certifies_a_minimum_on_a_repeated_anchor():
    # Half the norm losses sit on one anchor, the least total's point: no
    # gradient step lands there, and only the kinked terms' subdifferential
    # ball certifies it.
    body = regular_polygon(5, (1.0, 1.0), 1.0)
    anchors = np.concatenate([np.tile([1.2, 1.1], (30, 1)),
                              body.sample_many(30, np.random.default_rng(1))])
    start = time.perf_counter()
    sol = offline_optimum(NormLoss(anchors), body)
    assert time.perf_counter() - start < 2.0
    assert sol.total[0] <= 18.3449
    assert sol.converged and sol.gap[0] == 0.0
    assert np.array_equal(sol.point[0], [1.2, 1.1])


def test_median_on_anchors_certifies_with_the_kinked_subgradient_ball():
    losses = NormLoss([[0.0], [0.0], [1.0]])
    body = interval(-20.0, 20.0)
    sol = offline_optimum(losses, body)
    assert sol.point[0, 0] == 0.0
    assert sol.gap[0] == 0.0 and sol.converged
    # The zero subgradient at the kinks leaves g = -1 and a false gap of 20.
    assert frank_wolfe_gap(losses, body, sol.point[0]) == 20.0


def test_offline_optimum_warns_when_it_stops_uncertified(monkeypatch):
    monkeypatch.setattr(evaluation, "MAX_STEPS", 2)
    losses = ExpLoss(1 + 0.05 * np.random.default_rng(0).standard_normal((20, 1)),
                     a=1.0, s=0.3, m=2)
    with pytest.warns(RuntimeWarning, match="not certified"):
        sol = offline_optimum(losses, Ball([0.0], 4.0))
    assert not sol.converged
    assert sol.gap[0] > GAP_TOLERANCE * sol.total[0]


def test_a_batch_certified_in_part_is_reported_row_by_row(monkeypatch):
    # Trial 0's anchors all sit on its start, where its gap is 0; trial 1 is
    # the steep exp sum, which two steps leave uncertified.
    monkeypatch.setattr(evaluation, "MAX_STEPS", 2)
    steep = 1 + 0.05 * np.random.default_rng(0).standard_normal((20, 1))
    losses = ExpLoss(np.stack([np.ones((20, 1)), steep]), a=1.0, s=0.3, m=2)
    body = Ball([0.0], 4.0)
    with pytest.warns(RuntimeWarning, match="not certified"):
        sol = offline_optimum(losses, body)
    assert sol.converged is False
    assert sol.gap[0] == 0.0 and sol.gap[1] > GAP_TOLERANCE * sol.total[1]
    est = np.zeros((2, 20, 1))
    traj = Trajectory(estimates=est, loss_values=losses.value(est), score_errors=np.zeros((2, 20)),
                      loss=losses, delays=np.ones((2, 20), dtype=np.int64))
    with pytest.warns(RuntimeWarning, match="not certified"):
        report = regret(traj, body)
    assert report.converged.tolist() == [True, False]


# ---------------------------------------------------------------------------
# Regret
# ---------------------------------------------------------------------------

def _toy_trajectory(plays, losses):
    """Trials that play `plays[k]`, one (T, d) list each, against the same T losses."""
    est = np.asarray(plays, dtype=float)
    loss = Loss.stack([Loss.stack(losses)] * len(est))
    rounds = np.zeros(est.shape[:2])
    return Trajectory(estimates=est, loss_values=loss.value(est), score_errors=rounds, loss=loss,
                      delays=np.ones(est.shape[:2], dtype=np.int64))


def test_regret_hand_computed_two_round_instance():
    # Quadratics at anchors 0 and 2; playing 0 twice: total loss 4, best fixed
    # point 1 with loss 2, regret 2.
    losses = [QuadraticLoss([0.0], a=1.0), QuadraticLoss([2.0], a=1.0)]
    traj = _toy_trajectory([[[0.0], [0.0]]], losses)
    report = regret(traj, interval(-10.0, 10.0))
    assert report.comparator[0, 0] == pytest.approx(1.0)
    assert report.comparator_loss[0] == pytest.approx(2.0)
    assert report.regret[0, -1] == pytest.approx(2.0)
    assert np.allclose(report.cum_loss, [[0.0, 4.0]])


def test_regret_zero_when_playing_the_comparator():
    losses = [QuadraticLoss([0.0], a=1.0), QuadraticLoss([2.0], a=1.0)]
    traj = _toy_trajectory([[[1.0], [1.0]]], losses)
    report = regret(traj, interval(-10.0, 10.0))
    assert report.regret[0, -1] == pytest.approx(0.0, abs=1e-12)


def test_regret_scales_linearly_with_quadratic_weight():
    anchors = [[0.5], [1.5], [-0.3]]
    plays = [[[0.0], [0.2], [1.0]]]
    base = regret(_toy_trajectory(plays, [QuadraticLoss(a_, a=1.0) for a_ in anchors]),
                  interval(-10.0, 10.0))
    doubled = regret(_toy_trajectory(plays, [QuadraticLoss(a_, a=2.0) for a_ in anchors]),
                     interval(-10.0, 10.0))
    assert doubled.regret[0, -1] == pytest.approx(2.0 * base.regret[0, -1])


def test_regret_warmup_rounds_excluded():
    # Skipping round 1 scores only the second loss: play 0 against the anchor
    # at 2 (loss 4), comparator sits on the anchor (loss 0), regret 4.
    losses = [QuadraticLoss([0.0], a=1.0), QuadraticLoss([2.0], a=1.0)]
    traj = _toy_trajectory([[[0.0], [0.0]]], losses)
    report = regret(traj, interval(-10.0, 10.0), skip_rounds=1)
    assert report.comparator[0, 0] == pytest.approx(2.0)
    assert report.comparator_loss[0] == pytest.approx(0.0)
    assert report.regret[0, 0] == pytest.approx(0.0)
    assert report.regret[0, -1] == pytest.approx(4.0)
    assert np.allclose(report.cum_loss, [[0.0, 4.0]])  # full-horizon curve
    with pytest.raises(ValueError):
        regret(traj, interval(-10.0, 10.0), skip_rounds=2)


@pytest.mark.parametrize("skip_rounds", [0, 1, 7])
def test_regret_curves_keep_the_bits_of_the_sums_they_take_in_place(skip_rounds):
    # The expressions the report's curves and the replay gap were built by
    # before their prefix sums, differences and abs were taken in place.
    rng = np.random.default_rng(skip_rounds)
    loss = NormLoss(rng.standard_normal((3, 40, 2)))
    est = rng.standard_normal((3, 40, 2))
    traj = Trajectory(estimates=est, loss_values=loss.value(est) * (1 + 1e-12),
                      score_errors=np.zeros((3, 40)), loss=loss,
                      delays=np.ones((3, 40), dtype=np.int64))
    body = Ball([0.0, 0.0], 1.0)
    report = regret(traj, body, skip_rounds=skip_rounds)
    comparator_values = np.zeros((3, 40))
    comparator_values[:, skip_rounds:] = loss[:, skip_rounds:].value(report.comparator[:, None])
    scored_loss = traj.loss_values.copy()
    scored_loss[:, :skip_rounds] = 0.0
    want = np.cumsum(scored_loss, axis=1) - np.cumsum(comparator_values, axis=1)
    assert report.regret.view(np.uint64).tolist() == want.view(np.uint64).tolist()
    want = np.cumsum(traj.loss_values, axis=1)
    assert report.cum_loss.view(np.uint64).tolist() == want.view(np.uint64).tolist()
    gaps = np.abs(loss.value(est) - traj.loss_values)
    want = np.max(gaps, axis=1, initial=0.0, where=~np.isnan(gaps))
    assert traj.replay_gap().view(np.uint64).tolist() == want.view(np.uint64).tolist()


def test_regret_shares_a_solve_only_for_the_same_losses_on_the_same_body(monkeypatch):
    calls = _count_solves(monkeypatch)
    losses = [QuadraticLoss([0.0], a=1.0), QuadraticLoss([2.0], a=1.0)]
    traj = _toy_trajectory([[[0.0], [0.0]]], losses)
    solved = []
    first = regret(traj, interval(-10.0, 10.0), solved=solved)
    again = regret(traj, interval(-10.0, 10.0), solved=solved)
    assert len(calls) == 1 and np.array_equal(again.comparator, first.comparator)
    regret(traj, interval(-10.0, 0.5), solved=solved)  # another body
    regret(traj, interval(-10.0, 0.5), skip_rounds=1, solved=solved)  # other scored rounds
    regret(traj, interval(-10.0, 0.5), skip_rounds=1)  # nothing to share with
    assert len(calls) == 4


def test_losses_are_the_same_only_bit_for_bit():
    anchors = np.array([[1.0, 0.0], [2.0, 3.0]])
    loss = QuadraticLoss(anchors, a=[0.5, 1.0])
    assert loss.same_bits(QuadraticLoss(anchors.copy(), a=[0.5, 1.0]))
    assert loss.same_bits(loss[:, ...])
    assert not loss.same_bits(QuadraticLoss(anchors, a=[0.5, 1.0], b=[0.0, 1e-300]))
    assert not loss.same_bits(QuadraticLoss(anchors, a=[1.0, 0.5]))
    assert not loss.same_bits(QuadraticLoss(anchors * [1.0, -1.0], a=[0.5, 1.0]))  # -0.0
    assert not loss.same_bits(QuadraticLoss(anchors[:1], a=[0.5]))
    assert not NormLoss(anchors).same_bits(ExpLoss(anchors, a=1.0, s=1.0, m=1))
    assert not NormLoss(anchors).same_bits(QuadraticLoss(anchors, a=1.0))


def _count_solves(monkeypatch) -> list:
    """Patch `offline_optimum` to record each call's trial count; return the record."""
    calls, solve = [], evaluation.offline_optimum

    def counted(losses, body, *args, **kwargs):
        calls.append(len(losses.anchor))
        return solve(losses, body, *args, **kwargs)

    monkeypatch.setattr(evaluation, "offline_optimum", counted)
    return calls


def _count_takes(monkeypatch) -> list:
    """Patch every stream's `take` to record each call's stream; return the record."""
    calls = []
    for cls in environment.ContextStream.__subclasses__():
        def counted(self, n, take=cls.take):
            calls.append(self)
            return take(self, n)

        monkeypatch.setattr(cls, "take", counted)
    return calls


SHARED = experiments.ExperimentConfig(
    kind="baseline-compare", horizon=120, trials=3, seed=7, learner="ogd", sigma="auto",
    tau=4, stream="pentagon", d1=2, d2=2, family="power", m=3)


# (config, comparator solves, draws per trial): arms that agree on their
# [stream] and [loss] options, horizon and hidden body play one draw.
@pytest.mark.parametrize("cfg, solves, draws", [
    (SHARED, 1, 1),
    (dataclasses.replace(SHARED, kind="delay-sweep", sweep_taus=(2, 5, 9), stream="gaussian",
                         d1=1, d2=1, family="quadratic", coefficients="uniform"), 1, 1),
    (dataclasses.replace(SHARED, kind="delay-sweep", sweep_taus=(2, 5, 9), warmup=1), 3, 1),
    (dataclasses.replace(SHARED, kind="correlation-sweep", sweep_rhos=(0.0, 0.5),
                         stream="gaussian", d1=2, d2=2), 2, 2),
    (dataclasses.replace(SHARED, kind="scaling-check", sweep_horizons=(40, 80, 120)), 3, 3),
], ids=["baseline-compare", "delay-sweep", "delay-sweep-warmup", "correlation-sweep",
        "scaling-check"])
def test_arms_that_score_the_same_losses_share_one_solve(cfg, solves, draws, tmp_path,
                                                         monkeypatch):
    # Each arm's csv must hold the bytes of that arm measured on its own,
    # with its own draw and its own solve.
    seeds = [experiments.trial_seed(cfg.seed, i) for i in range(cfg.trials)]
    alone = {}
    for label, arm in experiments.expand_arms(cfg):
        _, report = experiments.run_single(arm, seeds)
        write_csv(aggregate(report), tmp_path / f"{label}.csv")
        alone[label] = (tmp_path / f"{label}.csv").read_bytes()
    calls, takes = _count_solves(monkeypatch), _count_takes(monkeypatch)
    experiments.run_experiment(cfg, tmp_path / "out")
    assert calls == [cfg.trials] * solves
    assert len(takes) == cfg.trials * draws
    assert {label: (tmp_path / "out" / f"{label}.csv").read_bytes() for label in alone} == alone


def test_trajectory_replay_consistency():
    stream = GaussianStream(rho=0.5, seed=31)
    learner = GradientLearner(Ball([0.0], 4.0), InverseSqrtStep(sigma=0.5, tau=3),
                              1.0, coupled=True)
    traj = run_game(learner, draw([stream], uniform_quadratic(), horizon=250, seeds=[17]),
                    [FixedDelay(3)], LinearScoring.default(1, 1))
    assert traj.replay_gap().shape == (1,)
    assert traj.replay_gap()[0] <= 1e-9


def test_cumulative_score_error_bounded_by_comparator_plus_regret():
    stream = GaussianStream(rho=0.5, seed=37)
    learner = GradientLearner(Ball([0.0], 4.0), InverseSqrtStep(sigma=0.5, tau=4),
                              1.0, coupled=True)
    traj = run_game(learner, draw([stream], uniform_quadratic(), horizon=300, seeds=[5]),
                    [FixedDelay(4)], LinearScoring.default(1, 1))
    report = regret(traj, Ball([0.0], 4.0))
    chain_total = float(traj.loss.radial(traj.score_errors)[0].sum())
    assert chain_total <= report.comparator_loss[0] + report.regret[0, -1] + 1e-6


# ---------------------------------------------------------------------------
# Scaling fits
# ---------------------------------------------------------------------------

def test_fit_scaling_exact_power_laws():
    sqrt_points = [(T, 3.0 * np.sqrt(T)) for T in (100, 400, 1600)]
    fit = fit_scaling(sqrt_points)
    assert fit.exponent == pytest.approx(0.5, abs=1e-12)
    assert fit.halfwidth == pytest.approx(0.0, abs=1e-9)

    linear_points = [(T, 5.0 * T) for T in (100, 400, 1600)]
    assert fit_scaling(linear_points).exponent == pytest.approx(1.0, abs=1e-12)


def test_fit_scaling_noisy_sqrt_monte_carlo():
    # +/-10% multiplicative noise: slope lands in [0.4, 0.6] for >= 95% of seeds.
    horizons = np.array([100.0, 400.0, 1600.0])
    hits = 0
    for seed in range(200):
        rng = np.random.default_rng(seed)
        noisy = 3.0 * np.sqrt(horizons) * (1.0 + rng.uniform(-0.1, 0.1, size=3))
        fit = fit_scaling(list(zip(horizons, noisy)))
        hits += 0.4 <= fit.exponent <= 0.6
    assert hits >= 190


def test_fit_scaling_drops_nonpositive_and_errors_when_starved():
    fit = fit_scaling([(10, 1.0), (20, -1.0), (40, 2.0), (80, 3.0)])
    assert fit.points_used == 3
    with pytest.raises(ValueError, match="at least 3"):
        fit_scaling([(10, 1.0), (20, -1.0), (40, 2.0)])
    with pytest.raises(ValueError, match="positive"):
        fit_scaling([(-10, 1.0), (20, 2.0), (40, 3.0)])


def _wobbly_sqrt_points(n):
    """Scales 100, 200, ..., 100 n; regrets 3 sqrt(scale) times 0.75 to 1.25."""
    return [(100.0 * k, 3.0 * math.sqrt(100.0 * k) * (1.0 + ((7 * k - 7) % 11 - 5) / 20))
            for k in range(1, n + 1)]


# Exponent and 95% half-width of `_wobbly_sqrt_points(n)` as scipy 1.17.1 fit
# them (`stats.linregress` on the logs, `stats.t.ppf(0.975, n - 2)`).
SCIPY_FITS = {
    3: (0.7075844701693168, 3.4986149841545973),
    4: (0.7941486059856474, 0.700882294199425),
    5: (0.7246274785826147, 0.3918424561038048),
    12: (0.5173278221744907, 0.16683337832552317),
    32: (0.5198750630125389, 0.07189856771219151),
    33: (0.5175928713969626, 0.06944799759839178),
    200: (0.502043167897739, 0.023769473281823637),
}


def test_fit_scaling_matches_scipy_linregress():
    for n, (exponent, halfwidth) in SCIPY_FITS.items():
        fit = fit_scaling(_wobbly_sqrt_points(n))
        assert fit.exponent == exponent, n
        if n <= 32:  # 30 or fewer degrees of freedom: the t quantile is scipy's own
            assert fit.halfwidth == halfwidth, n
        else:
            assert fit.halfwidth == pytest.approx(halfwidth, rel=2e-8, abs=0.0), n
    with pytest.raises(ValueError):
        fit_scaling([(100, 1.0), (100, 2.0), (100, 3.0)])
    assert fit_scaling([(T, 3.0 * math.sqrt(T)) for T in (100, 400, 1600)]).halfwidth == 0.0


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------

def _report_with_finals(*finals):
    # One trial per final regret: losses total 2 + final while the best
    # fixed point still costs 2.
    losses = [QuadraticLoss([0.0], a=1.0), QuadraticLoss([2.0], a=1.0)]
    traj = _toy_trajectory([[[np.sqrt(2.0 + final)], [2.0]] for final in finals], losses)
    return regret(traj, interval(-10.0, 10.0))


def test_aggregate_identical_trials_have_zero_stderr():
    r = _report_with_finals(4.0, 4.0)
    agg = aggregate(r)
    assert agg.trials == 2
    assert np.allclose(agg.regret_mean, r.regret[0])
    assert np.allclose(agg.regret_stderr, 0.0)


def test_aggregate_two_trials_mean_and_stderr():
    agg = aggregate(_report_with_finals(4.0, 6.0))
    assert agg.regret_mean[-1] == pytest.approx(5.0)
    assert agg.regret_stderr[-1] == pytest.approx(1.0)


def test_write_csv_round_trips(tmp_path):
    agg = aggregate(_report_with_finals(4.0, 6.0))
    path = tmp_path / "curves.csv"
    write_csv(agg, path)
    rows = path.read_text().strip().splitlines()
    assert rows[0] == "t,cum_loss_mean,cum_loss_stderr,regret_mean,regret_stderr"
    assert len(rows) == 1 + agg.horizon
    last = rows[-1].split(",")
    assert int(last[0]) == agg.horizon
    assert float(last[3]) == pytest.approx(5.0)


def _special_values(n):
    """n values cycling through both zeros, the smallest subnormal, 1e308, 0.1 + 0.2 and others."""
    specials = np.array([-0.0, 5e-324, 1e308, 0.0, 0.1 + 0.2, 1.0, -2.5e-7, 123456.789])
    return specials[np.arange(n) % len(specials)]


def _trajectory_rows(traj):
    """`trajectory.csv` of the first trial as the writer formatted it, one row at a time."""
    pairs = deliveries(traj.delays[:1])
    dim = traj.estimates.shape[-1]
    lines = [f"t,loss,score_error,delivered,{','.join(f'estimate_{j}' for j in range(dim))}\n"]
    for i in range(traj.horizon):
        delivered = ";".join(str(s) for _, s in pairs.get(i + 1, []))
        coords = ",".join(repr(float(v)) for v in traj.estimates[0, i])
        lines.append(f"{i + 1},{float(traj.loss_values[0, i])!r},"
                     f"{float(traj.score_errors[0, i])!r},{delivered},{coords}\n")
    return "".join(lines).encode()


def _curve_rows(curves):
    """`curves.csv` as the curve formatter wrote it, one row at a time."""
    lines = ["t,cum_loss_mean,cum_loss_stderr,regret_mean,regret_stderr\n"]
    for i in range(curves.horizon):
        lines.append(
            f"{i + 1},{float(curves.cum_loss_mean[i])!r},{float(curves.cum_loss_stderr[i])!r},"
            f"{float(curves.regret_mean[i])!r},{float(curves.regret_stderr[i])!r}\n")
    return "".join(lines).encode()


def test_chunked_writers_match_the_row_by_row_formatter(tmp_path):
    # One round past a chunk, so the last chunk holds one row; round 1
    # delivers nothing (its source waits two rounds), and later rounds
    # deliver one source or two.
    horizon = CSV_CHUNK + 1
    values = _special_values(horizon)
    delays = np.where(np.arange(horizon) % 3 == 0, 2, 1)[None]
    traj = Trajectory(
        estimates=np.stack([values, values[::-1]], axis=-1)[None],
        loss_values=values[None],
        score_errors=np.roll(values, 1)[None],
        loss=NormLoss(np.zeros((1, horizon, 2))),
        delays=delays,
    )
    assert 1 not in deliveries(traj.delays)
    curves = AggregateCurves(horizon=horizon, trials=2, cum_loss_mean=values,
                             cum_loss_stderr=np.roll(values, 2), regret_mean=np.roll(values, 3),
                             regret_stderr=np.roll(values, 4))

    write_trajectory_csv(traj, tmp_path / "trajectory.csv")
    write_csv(curves, tmp_path / "curves.csv")
    assert (tmp_path / "trajectory.csv").read_bytes() == _trajectory_rows(traj)
    assert (tmp_path / "curves.csv").read_bytes() == _curve_rows(curves)


def test_the_curve_writer_keeps_signed_zeros_of_constant_chunks_apart(tmp_path):
    # One trial's standard errors are 0.0 throughout.  A chunk of one bit
    # pattern is formatted once: -0.0 fills the second chunk of one column,
    # and a single -0.0 sits in a chunk of 0.0 in another.
    horizon = 2 * CSV_CHUNK + 3
    zeros = np.zeros(horizon)
    negative, mixed = zeros.copy(), zeros.copy()
    negative[CSV_CHUNK:2 * CSV_CHUNK] = -0.0
    mixed[5] = -0.0
    curves = AggregateCurves(horizon=horizon, trials=1, cum_loss_mean=_special_values(horizon),
                             cum_loss_stderr=zeros, regret_mean=mixed, regret_stderr=negative)
    write_csv(curves, tmp_path / "curves.csv")
    written = (tmp_path / "curves.csv").read_bytes()
    assert written == _curve_rows(curves)
    rows = written.decode().splitlines()  # rows[t] is round t
    assert [row.split(",")[3] for row in rows[5:8]] == ["0.0", "-0.0", "0.0"]
    assert {row.split(",")[4] for row in rows[CSV_CHUNK + 1:2 * CSV_CHUNK + 1]} == {"-0.0"}


def test_the_trajectory_writer_keeps_signed_zeros_and_repeats_apart(tmp_path):
    # Each distinct float is formatted once: +0.0 and -0.0 share one column
    # and one chunk, each repeated on both sides of a chunk boundary, next to
    # NaNs of two payloads, infinities and a value that every column repeats.
    horizon = 2 * CSV_CHUNK + 5
    rng = np.random.default_rng(7)
    pool = np.array([0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 0.1 + 0.2, 5e-324, -5e-324])
    loss = pool[rng.integers(0, len(pool), horizon)]
    loss[CSV_CHUNK - 3:CSV_CHUNK + 3] = [0.0, -0.0, 0.0, -0.0, 0.0, -0.0]
    errors = np.where(rng.random(horizon) < 0.6, loss, -loss)  # mostly the loss, bit for bit
    estimates = np.stack([pool[rng.integers(0, 2, horizon)], rng.standard_normal(horizon).round(1),
                          loss[::-1]], axis=-1)
    traj = Trajectory(estimates=estimates[None], loss_values=loss[None],
                      score_errors=errors[None],
                      loss=NormLoss(np.zeros((1, horizon, 3))),
                      delays=rng.integers(1, 6, (1, horizon)))
    write_trajectory_csv(traj, tmp_path / "trajectory.csv")
    written = (tmp_path / "trajectory.csv").read_bytes()
    assert written == _trajectory_rows(traj)
    rows = written.decode().splitlines()  # rows[t] is round t
    assert [row.split(",")[1] for row in rows[CSV_CHUNK - 2:CSV_CHUNK + 4]] == ["0.0", "-0.0"] * 3


def test_the_trajectory_writer_formats_a_chunk_of_distinct_floats_field_by_field(
        tmp_path, monkeypatch):
    # The first chunk holds distinct floats only (both zeros among them), so
    # every field is formatted; the second repeats its floats, so each
    # distinct one is formatted once.  Both write the row-by-row bytes.
    horizon = 2 * CSV_CHUNK
    rng = np.random.default_rng(5)
    values = rng.standard_normal((horizon, 3))
    values[:2, 0] = [0.0, -0.0]
    values[CSV_CHUNK:] = values[CSV_CHUNK:CSV_CHUNK + 8][np.arange(CSV_CHUNK) % 8]
    traj = Trajectory(estimates=values[None, :, 2:], loss_values=values[None, :, 0],
                      score_errors=values[None, :, 1],
                      loss=NormLoss(np.zeros((1, horizon, 1))),
                      delays=rng.integers(1, 6, (1, horizon)))
    uniques = []
    unique = np.unique
    monkeypatch.setattr(np, "unique", lambda a, **kw: uniques.append(a.size) or unique(a, **kw))
    write_trajectory_csv(traj, tmp_path / "trajectory.csv")
    assert uniques == [3 * CSV_CHUNK]
    assert (tmp_path / "trajectory.csv").read_bytes() == _trajectory_rows(traj)


def test_the_trajectory_writer_reads_the_delivery_order_without_a_buffer(tmp_path, monkeypatch):
    # The writer needs the first trial's sources and starts only, not a
    # buffer's take rounds.  Two trials' delays differ, and some of the
    # first trial's sources are due past the horizon.
    horizon = CSV_CHUNK + 40
    rng = np.random.default_rng(13)
    values = rng.standard_normal((2, horizon))
    delays = rng.integers(1, 30, (2, horizon))
    delays[0, -10:] = 50
    traj = Trajectory(estimates=values[..., None], loss_values=values, score_errors=values[::-1],
                      loss=NormLoss(np.zeros((2, horizon, 1))), delays=delays)

    def refuse(delays):
        raise AssertionError("the writer built a FeedbackBuffer")

    monkeypatch.setattr(feedback, "FeedbackBuffer", refuse)
    write_trajectory_csv(traj, tmp_path / "trajectory.csv")
    assert (tmp_path / "trajectory.csv").read_bytes() == _trajectory_rows(traj)


@st.composite
def written_records(draw):
    """A trajectory of one or two trials and curves of its horizon, for the writers.

    A round's delay is short, long enough to be due past the horizon, or
    runs up to one of a few gathering rounds, so that some rounds deliver
    many sources and runs of rounds deliver none.  The floats, drawn from a
    seed, mix normal values with repeats of both zeros, NaN, the
    infinities, the smallest subnormal and others.
    """
    horizon = draw(st.integers(1, 40))
    trials = draw(st.integers(1, 2))
    gathering = draw(st.lists(st.integers(1, horizon), min_size=1, max_size=3))
    delays = [[draw(st.one_of(st.integers(1, 3), st.integers(horizon + 1, horizon + 9),
                              st.sampled_from(gathering).map(lambda r, i=i: max(r - i, 1))))
               for i in range(horizon)] for _ in range(trials)]
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    specials = np.array([0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, 1e308, 0.1 + 0.2, 1.0])
    dim = draw(st.integers(1, 2))

    def column(*shape):
        return np.where(rng.random(shape) < 0.5, specials[rng.integers(0, len(specials), shape)],
                        rng.standard_normal(shape))

    traj = Trajectory(estimates=column(trials, horizon, dim), loss_values=column(trials, horizon),
                      score_errors=column(trials, horizon),
                      loss=NormLoss(np.zeros((trials, horizon, dim))), delays=np.array(delays))
    curves = AggregateCurves(horizon, trials, *(column(horizon) for _ in range(4)))
    return traj, curves


@pytest.mark.parametrize("chunk", [1, 2, 7, CSV_CHUNK])
@settings(max_examples=60, deadline=None)
@given(record=written_records())
def test_the_writers_give_the_row_by_row_bytes_at_any_chunk_size(chunk, record):
    traj, curves = record
    with mock.patch.object(evaluation, "CSV_CHUNK", chunk), tempfile.TemporaryDirectory() as out:
        write_trajectory_csv(traj, f"{out}/trajectory.csv")
        write_csv(curves, f"{out}/curves.csv")
        with open(f"{out}/trajectory.csv", "rb") as fh:
            assert fh.read() == _trajectory_rows(traj)
        with open(f"{out}/curves.csv", "rb") as fh:
            assert fh.read() == _curve_rows(curves)


def test_the_trajectory_writer_holds_a_few_bytes_per_round(tmp_path):
    # Beyond the record, the writer holds the first trial's delivery order
    # (int32 sources and starts) and one chunk's strings; its peak is while
    # it builds that order.  50,000 rounds trace about 17 bytes a round.
    horizon = 50_000
    rng = np.random.default_rng(0)
    values = rng.standard_normal((1, horizon))
    traj = Trajectory(estimates=values[..., None] * 2, loss_values=np.abs(values),
                      score_errors=np.abs(values) / 3,
                      loss=NormLoss(np.zeros((1, horizon, 1))),
                      delays=rng.integers(1, 21, (1, horizon)))
    tracemalloc.start()
    try:
        write_trajectory_csv(traj, tmp_path / "trajectory.csv")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / horizon < 30


def test_a_single_run_holds_its_record_and_a_few_round_arrays(tmp_path):
    # The record of a 1-d single run is five arrays of 8 bytes a round, 40
    # bytes, and its regret report two more.  Each phase adds at most about
    # two arrays to what it keeps: with validation and the writers' chunks,
    # 50,000 rounds trace about 75 bytes a round at their peak (about 110
    # when the draw, the scoring and the comparator held whole-horizon
    # copies, and the record lived on beside the report's curves).
    horizon = 50_000
    cfg = experiments.ExperimentConfig(
        kind="single-run", horizon=horizon, trials=1, learner="adversarial", eta="auto",
        lam=0.0, mean=0.25, family="norm", delay_kind="adversarial", d_max=20)
    tracemalloc.start()
    try:
        experiments.run_experiment(cfg, tmp_path / "out")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / horizon < 85


# ---------------------------------------------------------------------------
# Theoretical ceiling (loose upper bound, strongly convex case)
# ---------------------------------------------------------------------------

def test_strongly_convex_regret_under_harmonic_ceiling():
    # Fixed curvature instance: regret must sit far below the explicit
    # 2 g tau R^2 + (2R^2/g) H(T) + (1/2 + tau) L'^2 H(T - tau) / g ceiling.
    tau, horizon, a = 3, 300, 0.5
    body = Ball([0.0], 4.0)
    gamma = 2.0 * a
    stream = GaussianStream(rho=0.5, seed=41)
    learner = GradientLearner(body, InverseTimeStep(gamma=gamma, tau=tau), 1.0, coupled=True)
    traj = run_game(learner,
                    draw([stream], fixed_loss(QuadraticLoss, a=a, b=0.0), horizon=horizon,
                         seeds=[43]),
                    [FixedDelay(tau)], LinearScoring.default(1, 1))
    report = regret(traj, body)

    def harmonic(n):
        return float(np.sum(1.0 / np.arange(1, n + 1)))

    R = body.radius_bound
    L = 2.0 * a * (2.0 * R)
    L_eff = L + R / gamma  # pull weight is at most 1/gamma after warm-up
    ceiling = (2.0 * gamma * tau * R**2 + (2.0 * R**2 / gamma) * harmonic(horizon)
               + (0.5 + tau) * L_eff**2 * harmonic(horizon - tau) / gamma)
    assert report.regret[0, -1] <= ceiling
