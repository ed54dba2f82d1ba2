import dataclasses
import math

import numpy as np
import pytest

from delivery_oracle import deliveries
from laglearn import experiments
from laglearn.environment import (ZERO_SUBGRADIENT_FLAG, ExplicitStream, GaussianStream,
                                  LinearScoring, run_game, fixed_loss)
from laglearn.feedback import ExplicitDelay, FeedbackBuffer, FixedDelay, RandomDelay
from laglearn.geometry import Ball, EuclideanMap, NegativeEntropyMap, Simplex
from laglearn.learners import (
    ConstantStep,
    GradientLearner,
    InverseSqrtStep,
    InverseTimeStep,
    NaiveLearner,
    eta_for_arbitrary_delay,
    sigma_for_mirror,
)
from laglearn.losses import NormLoss, QuadraticLoss


def step_once(learner, estimate, t, grads, next_known=None, rows=(0,)):
    """One trial's one-round block: the feedback delivered at the end of round t, from `estimate`.

    `grads` are the delivered gradients, one per entry of `rows`, summed
    into row t of the round-major totals the learner reads; round t is the
    last one when there is no `next_known`.  The learner's new iterate is
    returned.
    """
    horizon = t if next_known is None else t + 1
    learner.start(1, horizon, None)
    learner.estimate = np.asarray([estimate], dtype=float)
    learner.t = t - 1
    totals = np.zeros((horizon + 2, 1, len(estimate)))
    np.add.at(totals[t], np.asarray(rows, dtype=np.intp),
              np.asarray(grads, dtype=float).reshape(len(rows), len(estimate)))
    known = np.zeros((1, horizon, len(estimate) if next_known is None else len(next_known)))
    if next_known is not None:
        known[0, t] = next_known
    learner.play(t, t + 1, totals, known, np.empty((1, horizon, len(estimate))))
    return learner.estimate[0]


# ---------------------------------------------------------------------------
# Schedules
# ---------------------------------------------------------------------------

def test_sqrt_schedule_values():
    etas, betas = InverseSqrtStep(sigma=0.5, tau=10).table(14)
    assert etas[10] == 0.0
    assert etas[11] == pytest.approx(0.5)  # 0.5 / sqrt(1)
    assert etas[14] == pytest.approx(0.25)
    assert np.array_equal(betas, etas)


def test_inverse_time_schedule_values():
    etas, _ = InverseTimeStep(gamma=2.0, tau=3).table(13)
    assert etas[3] == 0.0
    assert etas[4] == pytest.approx(0.5)
    assert etas[13] == pytest.approx(1.0 / 20.0)


def test_schedules_nonincreasing():
    for sched in (InverseSqrtStep(sigma=1.0, tau=2), InverseTimeStep(gamma=0.5, tau=2),
                  ConstantStep(value=0.1, tau=2)):
        etas = sched.table(59)[0][3:].tolist()
        assert all(b <= a + 1e-15 for a, b in zip(etas, etas[1:]))
        assert all(e > 0 for e in etas)


def test_beta_override():
    etas, betas = InverseSqrtStep(sigma=0.5, tau=0, beta_override=0.02).table(4)
    assert betas[4] == 0.02
    assert etas[4] == 0.25


# ---------------------------------------------------------------------------
# Update steps
# ---------------------------------------------------------------------------

def test_ogd_plain_gradient_step():
    # no influence, eta = 1: 0 - 1 * grad, projected
    body = Ball([0.0], 10.0)
    out = step_once(GradientLearner(body, ConstantStep(value=1.0)), [0.0], 1, [1.0])
    assert np.allclose(out, [-1.0])


def test_ogd_hand_update_with_influence():
    # x - eta g + beta * lam * x_known = [0,0] - [0.1,0] + 0.1*[1,1] = [0, 0.1]
    body = Ball([0.0, 0.0], 10.0)
    learner = GradientLearner(body, ConstantStep(value=0.1), lam=1.0)
    out = step_once(learner, [0.0, 0.0], 1, [1.0, 0.0], [1.0, 1.0])
    assert np.allclose(out, [0.0, 0.1])


def test_ogd_projects_back_into_body():
    body = Ball([0.0], 1.0)
    learner = GradientLearner(body, ConstantStep(value=5.0))
    out = step_once(learner, [0.0], 1, [1.0])
    assert np.allclose(out, [-1.0])
    assert body.contains(learner.estimate)


def test_no_update_through_the_warmup():
    # Rounds t <= tau deliver nothing under a fixed lag; the learner leaves the iterate alone.
    body = Ball([0.0], 1.0)
    learner = GradientLearner(body, ConstantStep(value=0.5, tau=5))
    assert np.array_equal(step_once(learner, [0.3], 5, [1.0]), [0.3])
    assert np.allclose(step_once(learner, [0.3], 6, [1.0]), [-0.2])


def test_omd_euclidean_equals_ogd_step():
    # The Euclidean map's step is the projected gradient step, bit for bit.
    body = Ball([0.0, 0.0], 10.0)
    sched = InverseSqrtStep(sigma=0.5, tau=0)
    x, g, nk = np.array([0.3, -0.2]), np.array([0.4, -1.1]), np.array([0.2, 0.9])
    out = step_once(GradientLearner(body, sched, 0.7, mirror=EuclideanMap()), x, 4, g, nk)
    etas, betas = sched.table(4)
    by_hand = body.project(x + (betas[4] * (0.7 * nk) - etas[4] * g))
    assert np.array_equal(out, by_hand)


def test_omd_negentropy_exponentiated_update():
    # choose eta = 1, gradient = -[ln 2, 0] so the combined move is [ln 2, 0]
    learner = GradientLearner(Simplex(2), ConstantStep(value=1.0), mirror=NegativeEntropyMap())
    out = step_once(learner, [0.5, 0.5], 1, [-np.log(2.0), 0.0])
    assert np.allclose(out, [2.0 / 3.0, 1.0 / 3.0], atol=1e-12)


def test_omd_zero_move_is_identity():
    x = [0.2, 0.3, 0.5]
    learner = GradientLearner(Simplex(3), ConstantStep(value=1.0), mirror=NegativeEntropyMap())
    out = step_once(learner, x, 1, [0.0, 0.0, 0.0])
    assert np.linalg.norm(out - np.array(x)) <= 1e-9


def test_adversarial_empty_set_no_influence_is_identity():
    body = Ball([0.0, 0.0], 10.0)
    learner = GradientLearner(body, ConstantStep(value=0.1))
    out = step_once(learner, [0.4, -0.1], 2, np.empty((0, 2)), [1.0, 1.0], rows=())
    assert np.array_equal(out, [0.4, -0.1])


def test_adversarial_summed_update():
    # F = {1, 3}: x - eta (g1 + g3) = [0,0] - 0.1*[1,1] = [-0.1, -0.1]
    body = Ball([0.0, 0.0], 10.0)
    learner = GradientLearner(body, ConstantStep(value=0.1))
    out = step_once(learner, [0.0, 0.0], 3, [[1.0, 0.0], [0.0, 1.0]], rows=(0, 0))
    assert np.allclose(out, [-0.1, -0.1])


def test_per_trial_steps_must_match_the_trial_count():
    learner = GradientLearner(Ball([0.0], 10.0), ConstantStep(value=[0.1, 0.2, 0.3]))
    streams = [GaussianStream(seed=seed) for seed in (1, 2)]
    with pytest.raises(ValueError, match="3 step sizes for 2 trials"):
        run_game(learner, streams, [FixedDelay(0)] * 2, fixed_loss(NormLoss),
                 LinearScoring.default(1, 1), 5, seeds=[0, 0])
    assert learner.t == 0


def test_influence_linearity_and_reduction():
    # With a zero gradient the step is beta * w * known[:2], where w = lam,
    # or lam * eta when coupled; past the last round there is no pull.
    body, zero, known = Ball([0.0, 0.0], 10.0), [0.0, 0.0], [1.0, 2.0, 3.0]
    constant = GradientLearner(body, ConstantStep(value=0.1), lam=-0.4)
    assert np.allclose(step_once(constant, zero, 1, zero, known), [-0.04, -0.08])
    coupled = GradientLearner(body, ConstantStep(value=0.25), lam=-1.0, coupled=True)
    assert np.allclose(step_once(coupled, zero, 1, zero, known), [-0.0625, -0.125])
    assert np.array_equal(step_once(coupled, zero, 1, zero), zero)


@pytest.mark.parametrize("tau", [0, 3])
def test_a_block_reads_only_its_own_rows_of_the_totals(tau):
    # Two learners play the same blocks from the same totals, except that
    # for the second every row outside the block being played is NaN.
    trials, dim, horizon = 2, 2, 20
    rng = np.random.default_rng(tau)
    totals = rng.standard_normal((horizon + 2, trials, dim))
    known = rng.standard_normal((trials, horizon, dim))
    played = []
    for blind in (False, True):
        learner = GradientLearner(Ball(np.zeros(dim), 1.5), ConstantStep(value=0.3, tau=tau), 0.4)
        learner.start(trials, horizon, None)
        estimates = np.zeros((trials, horizon, dim))
        for lo, hi in ((1, 2), (2, 7), (7, 8), (8, horizon + 1)):
            seen = totals.copy()
            if blind:
                seen[:lo] = seen[hi:] = np.nan
            learner.play(lo, hi, seen, known, estimates)
        played.append((estimates, learner.estimate))
    assert np.isfinite(played[1][0]).all()
    assert np.array_equal(played[0][0], played[1][0])
    assert np.array_equal(played[0][1], played[1][1])


# ---------------------------------------------------------------------------
# Tuning
# ---------------------------------------------------------------------------

def test_fixed_delay_tuning_quadratic_root():
    # L = R = tau = 1: positive root of s^2 + s - 1 = (sqrt(5) - 1) / 2
    sigma = sigma_for_mirror(1.0, 1.0, 1, 1.0)
    assert sigma == pytest.approx((math.sqrt(5.0) - 1.0) / 2.0, rel=1e-12)


def test_fixed_delay_tuning_self_consistent():
    for L, R, tau in [(1.0, 4.0, 5), (2.5, 1.2, 17), (0.3, 9.0, 2)]:
        sigma = sigma_for_mirror(L, R, tau, 1.0)
        effective = L + sigma * R
        assert sigma == pytest.approx(R / (effective * math.sqrt(tau)), rel=1e-12)


def test_fixed_delay_tuning_asymptotics():
    # For large tau the root approaches R / (L sqrt(tau)).
    sigma = sigma_for_mirror(1.0, 1.0, 10_000, 1.0)
    assert sigma / (1.0 / math.sqrt(10_000)) == pytest.approx(1.0, abs=0.02)
    # A bound whose square overflows would tune sigma to 0; it is an error naming L.
    with pytest.raises(ValueError, match=r"L = 1e\+200"):
        sigma_for_mirror(1e200, 1.0, 1, 1.0)


def test_fixed_delay_tuning_degenerate_radius():
    assert sigma_for_mirror(1.0, 1e-12, 4, 1.0) <= 1e-12
    assert sigma_for_mirror(1.0, 0.0, 4, 1.0) == 0.0


def test_mirror_tuning_self_consistent():
    # sigma^2 = R^2 / (tau * L_M * L'^2) with L' = L + sigma R
    for smoothness in (1.0, 0.5, 2.0):
        sigma = sigma_for_mirror(1.0, 3.0, 7, smoothness)
        effective = 1.0 + sigma * 3.0
        assert sigma**2 * 7 * smoothness * effective**2 == pytest.approx(9.0, rel=1e-10)


def test_arbitrary_delay_eta_formula():
    eta = eta_for_arbitrary_delay(2.0, 3.0, 0.5, 100, 250)
    expected = 1.0 / math.sqrt(100 * (4.0 + 2 * 0.5 * 2.0 * 3.0) + 4 * 4.0 * 250)
    assert eta == pytest.approx(expected, rel=1e-12)
    with pytest.raises(ValueError, match=r"L = 1e\+200"):
        eta_for_arbitrary_delay(1e200, 3.0, 0.5, 100, 250)


# ---------------------------------------------------------------------------
# Trajectory-level reductions and invariants
# ---------------------------------------------------------------------------

def _explicit_game(learner, horizon=12, delays=None, d=1):
    """A one-trial game on an explicit stream."""
    hidden = np.linspace(-1.0, 2.0, horizon)[:, None]
    known = np.linspace(0.5, 1.5, horizon)[:, None]
    stream = ExplicitStream(known, hidden)
    schedule = delays if delays is not None else ExplicitDelay(tuple([d] * horizon))
    return run_game(learner, [stream], [schedule], fixed_loss(QuadraticLoss, a=1.0, b=0.0),
                    LinearScoring.default(1, 1), horizon, seeds=[5])


def test_no_delay_reduction_matches_plain_ogd():
    # The tau = 0 learner, which takes any delays, with d = 1 equals undelayed
    # projected gradient descent computed by hand.
    eta = 0.2
    t_ogd = _explicit_game(GradientLearner(Ball([0.0], 10.0), ConstantStep(value=eta)))

    hidden = np.linspace(-1.0, 2.0, 12)
    x = 0.0
    for i in range(12):
        assert t_ogd.estimates[0, i, 0] == pytest.approx(x, abs=1e-15)
        x = x - eta * 2.0 * (x - hidden[i])  # interior, projection inactive


def test_zero_influence_never_changes_the_trajectory():
    base = _explicit_game(
        GradientLearner(Ball([0.0], 10.0), InverseSqrtStep(sigma=0.5, tau=2)), d=3)
    with_zero = _explicit_game(
        GradientLearner(Ball([0.0], 10.0), InverseSqrtStep(sigma=0.5, tau=2), 0.0,
                        coupled=True), d=3)
    assert np.array_equal(base.estimates, with_zero.estimates)


def test_omd_euclidean_trajectory_equals_ogd():
    # The config kinds ogd and omd with mirror = euclidean build the same learner.
    cfg = experiments.ExperimentConfig(kind="single-run", horizon=60, learner="ogd",
                                       sigma="auto", tau=2, rho=0.5)
    omd = dataclasses.replace(cfg, learner="omd", mirror="euclidean")
    a, _ = experiments.run_single(cfg, [11])
    b, _ = experiments.run_single(omd, [11])
    assert np.array_equal(a.estimates, b.estimates)


def test_feasibility_every_round():
    body = Ball([0.5], 1.5)
    stream = GaussianStream(rho=0.3, body_hidden=body, seed=42)
    learner = GradientLearner(body, InverseSqrtStep(sigma=2.0, tau=3), 1.0, coupled=True)
    traj = run_game(learner, [stream], [FixedDelay(3)], fixed_loss(QuadraticLoss, a=1.0),
                    LinearScoring.default(1, 1), 300, seeds=[1])
    for est in traj.estimates[0]:
        assert body.contains(est, tol=1e-9)


def test_gradients_use_the_decision_of_the_source_round():
    # Re-simulate from the recorded trajectory: the update consumed at round t
    # must equal a step on grad f_{t-tau} evaluated at the stored estimate.
    tau, horizon = 2, 30
    body = Ball([0.0], 50.0)
    sched = InverseSqrtStep(sigma=0.4, tau=tau)
    learner = GradientLearner(body, sched)
    traj = _explicit_game(learner, horizon=horizon, d=tau + 1)
    est = traj.estimates[0, :, 0]
    etas, _ = sched.table(horizon)
    for t in range(tau + 1, horizon):  # update applied at round t produces round t+1
        g = traj.loss[0, t - tau - 1].grad(np.array([est[t - tau - 1]]))[0]
        predicted = est[t - 1] - etas[t] * g
        assert est[t] == pytest.approx(predicted, abs=1e-12)


def test_naive_learner_plays_running_mean_of_the_delivered_contexts():
    tau, horizon = 3, 15
    body = Ball([0.0], 10.0)
    learner = NaiveLearner(body)
    traj = _explicit_game(learner, horizon=horizon, d=tau + 1)
    hidden = np.linspace(-1.0, 2.0, horizon)
    for t in range(1, horizon + 1):
        revealed = hidden[: max(t - 1 - tau, 0)]  # delivered by the end of round t-1
        expected = revealed.mean() if revealed.size else 0.0
        assert traj.estimates[0, t - 1, 0] == pytest.approx(expected, abs=1e-12)


def test_naive_estimate_is_the_mean_of_the_delivered_anchors_bit_for_bit():
    # Three trials in lockstep with their own random delays: rounds deliver
    # several anchors of a trial, or none, and the trials' sets differ.
    horizon = 80
    streams = [GaussianStream(d1=3, d2=2, rho=0.4, seed=seed) for seed in (1, 2, 3)]
    learner = NaiveLearner(Ball([0.0, 0.0], 4.0))
    traj = run_game(learner, streams, [RandomDelay(d_max=7, seed=s) for s in (4, 5, 6)],
                    fixed_loss(NormLoss), LinearScoring.default(3, 2), horizon,
                    seeds=[0, 0, 0])
    pairs = deliveries(traj.delays)
    delivered = [[[s for r, s in pairs.get(t, []) if r == k] for t in range(1, horizon + 1)]
                 for k in range(3)]
    for k in range(3):
        revealed = []
        for t in range(1, horizon):
            revealed.extend(delivered[k][t - 1])
            anchors = traj.loss.anchor[k, np.array(revealed, dtype=int) - 1]
            expected = np.mean(anchors, axis=0) if revealed else np.zeros(2)
            assert np.array_equal(traj.estimates[k, t], expected)
    # The learner groups the trials it updates by their revealed count; some
    # rounds update trials that have revealed different counts.
    counts = np.cumsum([[len(d) for d in trial] for trial in delivered], axis=1)
    updated = np.array([[len(d) > 0 for d in trial] for trial in delivered])
    assert any(len(set(counts[updated[:, i], i].tolist())) > 1 for i in range(horizon))


def _mixed_points(rng, shape):
    """Normal draws over ten orders of magnitude, with signed zeros mixed in."""
    x = rng.standard_normal(shape) * 10.0 ** rng.integers(-5, 5, size=shape)
    zeros = rng.random(shape) < 0.2
    x[zeros] = np.where(rng.random(shape) < 0.5, -0.0, 0.0)[zeros]
    return x


@pytest.mark.parametrize("dim", range(2, 9))
def test_a_running_sum_from_zero_gives_np_mean_bit_for_bit(dim):
    # What the naive learner relies on in two or more dimensions: np.mean
    # over axis 1 of grouped (rows, n, dim) prefixes adds the n points one
    # after another, starting from +0.0 (so all -0.0 points mean +0.0).
    rng = np.random.default_rng(dim)
    for rows in (1, 2, 5):
        for n in (1, 2, 3, 7, 8, 9, 16, 17, 40, 129, 300):
            x = _mixed_points(rng, (rows, n, dim))
            for points in (x, np.full(x.shape, -0.0)):
                total = np.zeros((rows, dim))
                for k in range(n):
                    total += points[:, k]
                expected = np.mean(points, axis=1)
                assert np.array_equal((total / n).view(np.uint64), expected.view(np.uint64))


@pytest.mark.parametrize("dim", [1, 2, 3, 5])
def test_naive_estimate_is_np_mean_of_the_delivered_anchors_in_any_dimension(dim):
    # Three trials with their own random delays; anchors of mixed magnitude
    # and signed zeros, and one trial whose anchors are all -0.0.
    horizon = 90
    rng = np.random.default_rng(11 + dim)
    hidden = [_mixed_points(rng, (horizon, dim)), _mixed_points(rng, (horizon, dim)),
              np.full((horizon, dim), -0.0)]
    streams = [ExplicitStream(np.zeros((horizon, dim)), h) for h in hidden]
    big = float(np.max(np.abs(hidden[:2]))) * 2.0
    learner = NaiveLearner(Ball(np.zeros(dim), big))
    traj = run_game(learner, streams, [RandomDelay(d_max=6, seed=s) for s in (4, 5, 6)],
                    fixed_loss(NormLoss), LinearScoring.default(dim, dim), horizon,
                    seeds=[0, 0, 0])
    pairs = deliveries(traj.delays)
    for k in range(3):
        revealed = []
        for t in range(1, horizon):
            revealed.extend(s for r, s in pairs.get(t, []) if r == k)
            anchors = hidden[k][np.array(revealed, dtype=int) - 1]
            expected = np.mean(anchors, axis=0) if revealed else np.zeros(dim)
            assert np.array_equal(traj.estimates[k, t].view(np.uint64),
                                  expected.view(np.uint64))


def test_naive_play_takes_only_the_whole_horizon_once():
    # The game hands the baseline its horizon as one block; a shorter
    # block, one that starts late, or a second call is refused.
    horizon, trials = 10, 2
    buffer = FeedbackBuffer(np.full((trials, horizon), 2))
    anchors = np.ones((len(buffer.rows), 1))
    learner = NaiveLearner(Ball([0.0], 2.0))
    for lo, hi in ((1, 5), (1, horizon), (2, horizon + 1), (1, horizon + 2)):
        learner.start(trials, horizon, buffer)
        with pytest.raises(RuntimeError, match="as one block"):
            learner.play(lo, hi, anchors, None, np.empty((trials, horizon, 1)))
    learner.start(trials, horizon, buffer)
    learner.play(1, horizon + 1, anchors, None, np.empty((trials, horizon, 1)))
    assert learner.t == horizon and np.array_equal(learner.estimate, np.ones((trials, 1)))
    with pytest.raises(RuntimeError, match="in order"):
        learner.play(1, horizon + 1, anchors, None, np.empty((trials, horizon, 1)))


def test_zero_subgradient_flags_only_for_deliveries_within_the_horizon():
    # Trial 0 plays its anchor every round, so every gradient is the zero
    # subgradient of the norm loss; with lag 1 the last one is never delivered.
    # Trial 1's anchors sit elsewhere and raise no flag.
    streams = [ExplicitStream([[0.0]] * 4, [[0.0]] * 4),
               ExplicitStream([[0.0]] * 4, [[1.0]] * 4)]
    learner = GradientLearner(Ball([0.0], 10.0), ConstantStep(value=0.5, tau=1))
    traj = run_game(learner, streams, [FixedDelay(1)] * 2, fixed_loss(NormLoss),
                    LinearScoring.default(1, 1), 4, seeds=[0, 0])
    assert traj.flags == ((0, ZERO_SUBGRADIENT_FLAG),) * 3
