import dataclasses

import numpy as np
import pytest

from laglearn.environment import (
    GaussianStream,
    LinearScoring,
    fixed_loss,
    run_game,
    uniform_quadratic,
)
from laglearn.evaluation import (
    aggregate,
    fit_scaling,
    harmonic,
    offline_optimum,
    regret,
    write_csv,
)
from laglearn.feedback import FixedDelay
from laglearn.geometry import Ball, Box
from laglearn.learners import GradientLearner, Influence, InverseSqrtStep, InverseTimeStep
from laglearn.losses import Loss, NormLoss, QuadraticLoss


def interval(lo, hi):
    return Box([lo], [hi])


# ---------------------------------------------------------------------------
# Offline comparator
# ---------------------------------------------------------------------------

def test_offline_quadratic_equal_weights_mean():
    losses = [QuadraticLoss([0.0], a=1.0), QuadraticLoss([2.0], a=1.0)]
    (sol,) = offline_optimum(losses, interval(-10.0, 10.0))
    assert sol.point[0] == pytest.approx(1.0)
    assert sol.total == pytest.approx(2.0)
    assert sol.converged


def test_offline_quadratic_clamped_by_the_body():
    losses = [QuadraticLoss([0.0], a=1.0), QuadraticLoss([2.0], a=1.0)]
    (sol,) = offline_optimum(losses, interval(-1.0, 0.5))
    assert sol.point[0] == pytest.approx(0.5)


def test_offline_norm_median_one_dimensional():
    losses = [NormLoss([v]) for v in (0.0, 1.0, 10.0)]
    (sol,) = offline_optimum(losses, interval(-20.0, 20.0))
    assert sol.point[0] == pytest.approx(1.0)
    assert sol.total == pytest.approx(10.0)


def test_offline_geometric_median_matches_grid_search():
    # Independent oracle: dense lattice search over the unit square.
    anchors = [np.array([0.1, 0.2]), np.array([0.8, 0.3]), np.array([0.4, 0.9])]
    losses = [NormLoss(a) for a in anchors]
    body = Box([0.0, 0.0], [1.0, 1.0])
    (sol,) = offline_optimum(losses, body)

    xs = np.linspace(0.0, 1.0, 1000)
    ys = np.linspace(0.0, 1.0, 1000)
    gx, gy = np.meshgrid(xs, ys)
    total = np.zeros_like(gx)
    for a in anchors:
        total += np.hypot(gx - a[0], gy - a[1])
    best = np.unravel_index(np.argmin(total), total.shape)
    grid_point = np.array([gx[best], gy[best]])

    assert np.linalg.norm(sol.point - grid_point) <= 1e-3
    assert sol.total <= total[best] + 1e-6


def test_offline_iterative_agrees_with_closed_form():
    rng = np.random.default_rng(19)
    losses = [QuadraticLoss(rng.normal(size=2), a=float(rng.uniform(0.1, 1.0)),
                            b=float(rng.uniform()))
              for _ in range(40)]
    body = Ball([0.0, 0.0], 3.0)
    (closed,) = offline_optimum(losses, body)
    (iterative,) = offline_optimum(losses, body, method="iterative")
    assert np.linalg.norm(closed.point - iterative.point) <= 1e-6
    assert abs(closed.total - iterative.total) <= 1e-6


def test_offline_comparator_beats_random_candidates():
    rng = np.random.default_rng(23)
    losses = [NormLoss(rng.normal(size=2)) for _ in range(25)]
    body = Ball([0.0, 0.0], 4.0)
    (sol,) = offline_optimum(losses, body)
    for _ in range(100):
        y = body.sample(rng)
        assert sol.total <= sum(l.value(y) for l in losses) + 1e-6


def test_offline_optimum_input_validation():
    with pytest.raises(ValueError):
        offline_optimum([], Ball([0.0], 1.0))
    with pytest.raises(ValueError):
        offline_optimum([NormLoss([0.0])], Ball([0.0, 0.0], 1.0))
    with pytest.raises(ValueError):
        offline_optimum([NormLoss([0.0])], Ball([0.0], 1.0), method="nope")


def test_offline_optimum_warns_when_budget_exhausted():
    losses = [QuadraticLoss([3.0], a=1.0)]
    with pytest.warns(RuntimeWarning, match="iteration budget"):
        (sol,) = offline_optimum(losses, Ball([0.0], 4.0), method="iterative",
                              max_iters=2, restarts=1)
    assert not sol.converged
    assert sol.point is not None


# ---------------------------------------------------------------------------
# Regret
# ---------------------------------------------------------------------------

def _toy_trajectory(estimates, losses):
    est = np.asarray(estimates, dtype=float)
    values = np.array([l.value(e) for l, e in zip(losses, est)])
    horizon = len(losses)
    from laglearn.evaluation import Trajectories, Trajectory
    return Trajectories([Trajectory(
        horizon=horizon, dim=est.shape[1], estimates=est, loss_values=values,
        score_errors=np.zeros(horizon), score_error_losses=np.zeros(horizon),
        loss=Loss.stack(losses), delays=np.ones(horizon, dtype=np.int64),
        delay_sum=horizon, seed=0)])


def test_regret_hand_computed_two_round_instance():
    # Quadratics at anchors 0 and 2; playing 0 twice: total loss 4, best fixed
    # point 1 with loss 2, regret 2.
    losses = [QuadraticLoss([0.0], a=1.0), QuadraticLoss([2.0], a=1.0)]
    traj = _toy_trajectory([[0.0], [0.0]], losses)
    (report,) = regret(traj, interval(-10.0, 10.0))
    assert report.comparator[0] == pytest.approx(1.0)
    assert report.comparator_loss == pytest.approx(2.0)
    assert report.regret[-1] == pytest.approx(2.0)
    assert np.allclose(report.cum_loss, [0.0, 4.0])


def test_regret_zero_when_playing_the_comparator():
    losses = [QuadraticLoss([0.0], a=1.0), QuadraticLoss([2.0], a=1.0)]
    traj = _toy_trajectory([[1.0], [1.0]], losses)
    (report,) = regret(traj, interval(-10.0, 10.0))
    assert report.regret[-1] == pytest.approx(0.0, abs=1e-12)


def test_regret_scales_linearly_with_quadratic_weight():
    anchors = [[0.5], [1.5], [-0.3]]
    plays = [[0.0], [0.2], [1.0]]
    (base,) = regret(_toy_trajectory(plays, [QuadraticLoss(a_, a=1.0) for a_ in anchors]),
                     interval(-10.0, 10.0))
    (doubled,) = regret(_toy_trajectory(plays, [QuadraticLoss(a_, a=2.0) for a_ in anchors]),
                        interval(-10.0, 10.0))
    assert doubled.regret[-1] == pytest.approx(2.0 * base.regret[-1])


def test_regret_warmup_rounds_excluded():
    # Skipping round 1 scores only the second loss: play 0 against the anchor
    # at 2 (loss 4), comparator sits on the anchor (loss 0), regret 4.
    losses = [QuadraticLoss([0.0], a=1.0), QuadraticLoss([2.0], a=1.0)]
    traj = _toy_trajectory([[0.0], [0.0]], losses)
    (report,) = regret(traj, interval(-10.0, 10.0), skip_rounds=1)
    assert report.comparator[0] == pytest.approx(2.0)
    assert report.comparator_loss == pytest.approx(0.0)
    assert report.regret[0] == pytest.approx(0.0)
    assert report.regret[-1] == pytest.approx(4.0)
    assert np.allclose(report.cum_loss, [0.0, 4.0])  # full-horizon curve
    with pytest.raises(ValueError):
        regret(traj, interval(-10.0, 10.0), skip_rounds=2)


def test_trajectory_replay_consistency():
    stream = GaussianStream(rho=0.5, seed=31)
    learner = GradientLearner(Ball([0.0], 4.0), InverseSqrtStep(sigma=0.5, tau=3),
                              Influence.coupled(1))
    traj = run_game(learner, [stream], [FixedDelay(3)], uniform_quadratic(),
                    LinearScoring.default(1, 1), horizon=250, seeds=[17])[0]
    assert traj.replay_gap() <= 1e-9


def test_cumulative_score_error_bounded_by_comparator_plus_regret():
    stream = GaussianStream(rho=0.5, seed=37)
    learner = GradientLearner(Ball([0.0], 4.0), InverseSqrtStep(sigma=0.5, tau=4),
                              Influence.coupled(1))
    trajs = run_game(learner, [stream], [FixedDelay(4)], uniform_quadratic(),
                     LinearScoring.default(1, 1), horizon=300, seeds=[5])
    traj, report = trajs[0], regret(trajs, Ball([0.0], 4.0))[0]
    chain_total = float(traj.score_error_losses.sum())
    assert chain_total <= report.comparator_loss + report.regret[-1] + 1e-6


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


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------

def _report_with_final(final):
    # losses total 2 + final while the best fixed point still costs 2
    losses = [QuadraticLoss([0.0], a=1.0), QuadraticLoss([2.0], a=1.0)]
    traj = _toy_trajectory([[np.sqrt(2.0 + final)], [2.0]], losses)
    return regret(traj, interval(-10.0, 10.0))[0]


def test_aggregate_identical_trials_have_zero_stderr():
    r = _report_with_final(4.0)
    agg = aggregate([r, dataclasses.replace(r)])
    assert np.allclose(agg.regret_mean, r.regret)
    assert np.allclose(agg.regret_stderr, 0.0)


def test_aggregate_two_trials_mean_and_stderr():
    agg = aggregate([_report_with_final(4.0), _report_with_final(6.0)])
    assert agg.regret_mean[-1] == pytest.approx(5.0)
    assert agg.regret_stderr[-1] == pytest.approx(1.0)


def test_write_csv_round_trips(tmp_path):
    agg = aggregate([_report_with_final(4.0), _report_with_final(6.0)])
    path = tmp_path / "curves.csv"
    write_csv(agg, path)
    rows = path.read_text().strip().splitlines()
    assert rows[0] == "t,cum_loss_mean,cum_loss_stderr,regret_mean,regret_stderr"
    assert len(rows) == 1 + agg.horizon
    last = rows[-1].split(",")
    assert int(last[0]) == agg.horizon
    assert float(last[3]) == pytest.approx(5.0)


# ---------------------------------------------------------------------------
# Theoretical ceiling (loose upper bound, strongly convex case)
# ---------------------------------------------------------------------------

def test_harmonic_numbers():
    assert harmonic(1) == 1.0
    assert harmonic(4) == pytest.approx(1.0 + 0.5 + 1.0 / 3.0 + 0.25)
    assert harmonic(0) == 0.0


def test_strongly_convex_regret_under_harmonic_ceiling():
    # Fixed curvature instance: regret must sit far below the explicit
    # 2 g tau R^2 + (2R^2/g) H(T) + (1/2 + tau) L'^2 H(T - tau) / g ceiling.
    tau, horizon, a = 3, 300, 0.5
    body = Ball([0.0], 4.0)
    gamma = 2.0 * a
    stream = GaussianStream(rho=0.5, seed=41)
    learner = GradientLearner(body, InverseTimeStep(gamma=gamma, tau=tau), Influence.coupled(1))
    trajs = run_game(learner, [stream], [FixedDelay(tau)], fixed_loss(QuadraticLoss, a=a, b=0.0),
                     LinearScoring.default(1, 1), horizon=horizon, seeds=[43])
    (report,) = regret(trajs, body)

    R = body.radius_bound
    L = 2.0 * a * (2.0 * R)
    L_eff = L + R / gamma  # pull weight is at most 1/gamma after warm-up
    ceiling = (2.0 * gamma * tau * R**2 + (2.0 * R**2 / gamma) * harmonic(horizon)
               + (0.5 + tau) * L_eff**2 * harmonic(horizon - tau) / gamma)
    assert report.regret[-1] <= ceiling
