import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from delivery_oracle import deliveries
from laglearn import experiments
from laglearn.environment import (
    ConfigError,
    ExplicitStream,
    GaussianStream,
    LinearScoring,
    PolygonStream,
    StreamExhausted,
    draw,
    fixed_loss,
    run_game,
    uniform_quadratic,
)
from laglearn.feedback import ExplicitDelay, FixedDelay
from laglearn.geometry import Ball, regular_polygon
from laglearn.learners import (
    ConstantStep,
    GradientLearner,
    InverseSqrtStep,
)
from laglearn.losses import QuadraticLoss


# ---------------------------------------------------------------------------
# Context pairs and streams
# ---------------------------------------------------------------------------

def test_gaussian_perfect_correlation_ties_the_parts():
    stream = GaussianStream(rho=1.0, seed=11)
    known, hidden = stream.take(500)
    assert np.allclose(known, hidden)


@pytest.mark.parametrize("rho", [0.0, 0.5, -0.6])
def test_gaussian_sample_correlation(rho):
    stream = GaussianStream(rho=rho, seed=7)
    known, hidden = stream.take(10_000)
    sample = np.corrcoef(known[:, 0], hidden[:, 0])[0, 1]
    assert abs(sample - rho) <= 0.05


def test_gaussian_streams_are_deterministic():
    a = GaussianStream(rho=0.3, seed=123).take(64)
    b = GaussianStream(rho=0.3, seed=123).take(64)
    assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])


def test_gaussian_draws_live_in_their_bodies():
    body = Ball([0.0], 1.5)
    stream = GaussianStream(rho=0.2, body_hidden=body, seed=3)
    known, hidden = stream.take(2000)
    assert np.all(np.abs(hidden) <= 1.5 + 1e-9)
    assert np.all(np.linalg.norm(known, axis=1) <= stream.body_known.radius_bound + 1e-9)


@settings(max_examples=80, deadline=None)
@given(mean=st.floats(-6.0, 6.0), variance=st.floats(0.01, 9.0),
       rho=st.sampled_from([-1.0, 0.0, 0.5, 1.0]), d2=st.integers(1, 3),
       extra=st.integers(0, 2), sizes=st.lists(st.integers(1, 40), min_size=1, max_size=3),
       seed=st.integers(0, 2**32 - 1))
def test_gaussian_take_gives_the_bits_of_the_expression_it_computes_in_place(
        mean, variance, rho, d2, extra, sizes, seed):
    # Means and variances that put many draws outside the radius-4 bodies,
    # so the projections move points too; consecutive takes continue one draw.
    stream = GaussianStream(d1=d2 + extra, d2=d2, mean=mean, variance=variance, rho=rho,
                            seed=seed)
    rng = np.random.default_rng(seed)
    sd = float(np.sqrt(variance))
    for n in sizes:
        known, hidden = stream.take(n)
        z1 = rng.standard_normal((n, d2 + extra))
        z2 = rng.standard_normal((n, d2))
        want_known = stream.body_known.project(mean + sd * z1)
        mix = rho * z1[:, :d2] + np.sqrt(1.0 - rho**2) * z2
        want_hidden = stream.body_hidden.project(mean + sd * mix)
        assert known.view(np.uint64).tolist() == want_known.view(np.uint64).tolist()
        assert hidden.view(np.uint64).tolist() == want_hidden.view(np.uint64).tolist()


def test_pentagon_stream_membership_and_centroid():
    pentagon = regular_polygon(5, center=(1.0, 1.0), circumradius=1.0)
    stream = PolygonStream(pentagon, seed=29)
    _, hidden = stream.take(100_000)
    for row in hidden[::97]:
        assert pentagon.contains(row, tol=1e-9)

    # Independent oracle: polygon centroid from the shoelace-weighted formula.
    v = pentagon.vertices
    x, y = v[:, 0], v[:, 1]
    xn, yn = np.roll(x, -1), np.roll(y, -1)
    cross = x * yn - xn * y
    area = 0.5 * cross.sum()
    centroid = np.array([((x + xn) * cross).sum(), ((y + yn) * cross).sum()]) / (6.0 * area)
    assert np.linalg.norm(hidden.mean(axis=0) - centroid) <= 0.02


@pytest.mark.parametrize("variance", [0.0, -1.0])
def test_streams_reject_a_nonpositive_variance(variance):
    with pytest.raises(ValueError, match="variance must be positive"):
        GaussianStream(variance=variance)
    with pytest.raises(ValueError, match="variance must be positive"):
        PolygonStream(regular_polygon(5), variance=variance)


def test_gaussian_stream_rejects_a_hidden_body_of_another_dimension():
    with pytest.raises(ValueError, match="hidden body has dimension 1, d2 is 2"):
        GaussianStream(d1=2, d2=2, body_hidden=Ball([0.0], 0.5))


def test_explicit_stream_exhaustion_and_csv(tmp_path):
    path = tmp_path / "contexts.csv"
    path.write_text("1.0,0.5,2.0\n1.5,0.25,2.5\n", encoding="utf-8")
    stream = ExplicitStream.from_csv(path, d1=2, d2=1)
    known, hidden = stream.take(2)
    assert np.array_equal(known, [[1.0, 0.5], [1.5, 0.25]])
    assert np.array_equal(hidden, [[2.0], [2.5]])
    with pytest.raises(StreamExhausted):
        stream.take(1)
    with pytest.raises(ValueError):
        ExplicitStream.from_csv(path, d1=1, d2=1)
    # the known part has at least the hidden part's dimension
    with pytest.raises(ValueError):
        ExplicitStream([[1.0]], [[0.5, 0.5]])
    with pytest.raises(ValueError):
        GaussianStream(d1=1, d2=2)


# ---------------------------------------------------------------------------
# Scoring
# ---------------------------------------------------------------------------

def test_scoring_is_separable():
    # score(k, u) - score(k, u') does not depend on k.
    scoring = LinearScoring.default(3, 2)
    rng = np.random.default_rng(5)
    for _ in range(50):
        known = rng.normal(size=(10, 3))
        u, u2 = rng.normal(size=(2, 2))
        gaps = scoring.score(known, u) - scoring.score(known, u2)
        assert np.allclose(gaps, gaps[0], rtol=0.0, atol=1e-12)


def test_hidden_score_is_one_lipschitz():
    scoring = LinearScoring.default(2, 2)
    rng = np.random.default_rng(6)
    for _ in range(300):
        known, a, b = rng.normal(size=(3, 2))
        gap = abs(scoring.score(known, a) - scoring.score(known, b))
        assert gap <= np.linalg.norm(a - b) + 1e-12


def test_scores_keep_the_bits_of_their_sum_in_place_and_broadcast():
    # A score adds the hidden part's products into the known part's, in place
    # when they have one shape; rows that broadcast, and single rows, add anew.
    rng = np.random.default_rng(5)
    scoring = LinearScoring(w_known=[0.6, -0.8, 0.1], w_hidden=[0.3, -0.4])
    known, hidden = rng.standard_normal((2, 7, 3)), rng.standard_normal((2, 7, 2))
    for k, h in ((known, hidden), (known[0, 0], hidden[0, 0]), (known[0, 0], hidden),
                 (known, hidden[1, 2])):
        want = np.vecdot(scoring.w_known, k) + np.vecdot(scoring.w_hidden, h)
        got = scoring.score(k, h)
        assert np.shape(got) == np.shape(want)
        assert np.asarray(got).view(np.uint64).tolist() == np.asarray(want).view(np.uint64).tolist()


def test_scoring_rejects_lipschitz_violation():
    with pytest.raises(ValueError):
        LinearScoring(w_known=[1.0], w_hidden=[1.0, 1.0])


# ---------------------------------------------------------------------------
# Game loop: hand-simulated oracles
# ---------------------------------------------------------------------------

def _three_round_stream():
    return ExplicitStream([[1.0], [1.0], [1.0]], [[1.0], [2.0], [3.0]])


def test_three_round_game_matches_hand_simulation():
    # No delay (d = 1), quadratic a=1 b=0, constant eta = 0.5, no influence.
    # By hand: x1 = 0, g1 = 2(0-1) = -2, x2 = 0 + 1 = 1;
    #          g2 = 2(1-2) = -2, x3 = 2; losses are 1 each round.
    learner = GradientLearner(Ball([0.0], 10.0), ConstantStep(value=0.5))
    traj = run_game(learner,
                    draw([_three_round_stream()], fixed_loss(QuadraticLoss, a=1.0, b=0.0),
                         horizon=3, seeds=[0]),
                    [FixedDelay(0)], LinearScoring.default(1, 1))
    assert np.array_equal(traj.estimates, [[[0.0], [1.0], [2.0]]])
    assert np.array_equal(traj.loss_values, [[1.0, 1.0, 1.0]])
    assert np.array_equal(traj.score_errors, [[1.0, 1.0, 1.0]])
    assert deliveries(traj.delays) == {1: [(0, 1)], 2: [(0, 2)], 3: [(0, 3)]}
    assert traj.delays.sum() == 3
    assert traj.flags == ()


def test_three_round_adversarial_game_multi_delivery():
    # Delays (3, 1, 1) make rounds 1 and 3 land together at round 3.
    learner = GradientLearner(Ball([0.0], 10.0), ConstantStep(value=0.1))
    traj = run_game(learner,
                    draw([_three_round_stream()], fixed_loss(QuadraticLoss, a=1.0, b=0.0),
                         horizon=3, seeds=[0]),
                    [ExplicitDelay((3, 1, 1))], LinearScoring.default(1, 1))

    # Hand simulation with the same float operations:
    x1 = 0.0
    x2 = x1 - 0.1 * 0.0                       # empty delivery
    g2 = 2.0 * (x2 - 2.0)
    x3 = x2 - 0.1 * g2
    f3 = math.sqrt((x3 - 3.0) ** 2) ** 2      # distance then radial profile

    assert deliveries(traj.delays) == {2: [(0, 2)], 3: [(0, 1), (0, 3)]}
    assert np.array_equal(traj.estimates, [[[x1], [x2], [x3]]])
    assert traj.loss_values[0, 0] == 1.0
    assert traj.loss_values[0, 1] == 4.0
    assert traj.loss_values[0, 2] == f3
    assert traj.delays.sum() == 5

    # The post-horizon update consumed g1 evaluated at x1 and g3 at x3.
    g1 = 2.0 * (x1 - 1.0)
    g3 = 2.0 * (x3 - 3.0)
    assert learner.estimate[0] == x3 - 0.1 * (g1 + g3)


def test_horizon_equal_to_lag_keeps_all_estimates_zero():
    tau = 6
    stream = GaussianStream(rho=0.4, seed=9)
    learner = GradientLearner(Ball([0.0], 4.0), InverseSqrtStep(sigma=0.5, tau=tau),
                              1.0, coupled=True)
    traj = run_game(learner, draw([stream], uniform_quadratic(), horizon=tau, seeds=[2]),
                    [FixedDelay(tau)], LinearScoring.default(1, 1))
    assert np.array_equal(traj.estimates, np.zeros((1, tau, 1)))


def test_identical_seeds_reproduce_bit_for_bit():
    def play():
        stream = GaussianStream(rho=0.5, seed=77)
        learner = GradientLearner(Ball([0.0], 4.0), InverseSqrtStep(sigma=0.5, tau=4),
                                  1.0, coupled=True)
        return run_game(learner, draw([stream], uniform_quadratic(), horizon=200, seeds=[13]),
                        [FixedDelay(4)], LinearScoring.default(1, 1))

    a, b = play(), play()
    assert np.array_equal(a.estimates, b.estimates)
    assert np.array_equal(a.loss_values, b.loss_values)
    assert np.array_equal(a.score_errors, b.score_errors)
    assert deliveries(a.delays) == deliveries(b.delays)


def test_score_error_chain_holds_every_round():
    stream = GaussianStream(rho=0.5, seed=21)
    learner = GradientLearner(Ball([0.0], 4.0), InverseSqrtStep(sigma=0.5, tau=5),
                              1.0, coupled=True)
    traj = run_game(learner, draw([stream], uniform_quadratic(), horizon=400, seeds=[8]),
                    [FixedDelay(5)], LinearScoring.default(1, 1))
    assert np.all(traj.loss.radial(traj.score_errors) <= traj.loss_values + 1e-9)
    assert not any(flag.startswith("score_chain") for _, flag in traj.flags)


def test_score_chain_tolerance_is_relative_to_the_loss():
    # Exp losses reach 1.6e110 here; the 1-d chain holds up to rounding only.
    cfg = experiments.ExperimentConfig(kind="single-run", learner="ogd", schedule="sqrt",
                                       sigma=0.5, family="exp", a=1.0, sigma1=0.5, m=2,
                                       horizon=200, seed=0)
    traj, _ = experiments.run_single(cfg, [experiments.trial_seed(0, 0)])
    assert traj.loss_values.max() > 1e100
    assert not any(flag.startswith("score_chain") for _, flag in traj.flags)


def test_score_chain_flags_a_hidden_weight_above_one():
    class DoubledScoring:
        w_known = np.ones(1)
        w_hidden = np.ones(1)

        def score(self, known, hidden):
            return known[..., 0] + 2.0 * hidden[..., 0]

    learner = GradientLearner(Ball([0.0], 10.0), ConstantStep(value=0.5))
    traj = run_game(learner,
                    draw([_three_round_stream()], fixed_loss(QuadraticLoss, a=1.0, b=0.0),
                         horizon=3, seeds=[0]),
                    [FixedDelay(0)], DoubledScoring())
    assert [f for _, f in traj.flags if f.startswith("score_chain")] == [
        "score_chain_violated_at_1", "score_chain_violated_at_2", "score_chain_violated_at_3"]


def test_fixed_lag_learner_rejects_mismatched_delays_before_round_1():
    learner = GradientLearner(Ball([0.0], 4.0), InverseSqrtStep(sigma=0.5, tau=3))
    stream = ExplicitStream([[1.0]] * 5, [[0.5]] * 5)
    with pytest.raises(ConfigError, match="tau \\+ 1 = 4"):
        run_game(learner, draw([stream], uniform_quadratic(), horizon=5, seeds=[0]),
                 [ExplicitDelay((4, 4, 1, 4, 4))], LinearScoring.default(1, 1))
    assert np.array_equal(learner.estimate, [0.0])  # the start point, as built


def test_run_game_configuration_errors():
    stream = GaussianStream(rho=0.0, seed=1)
    learner = GradientLearner(Ball([0.0, 0.0], 4.0), ConstantStep(value=0.1))  # wrong dim
    with pytest.raises(ConfigError):
        run_game(learner, draw([stream], uniform_quadratic(), horizon=5, seeds=[0]),
                 [FixedDelay(0)], LinearScoring.default(1, 1))
    good = GradientLearner(Ball([0.0], 4.0), ConstantStep(value=0.1))
    with pytest.raises(ConfigError):
        run_game(good, draw([stream], uniform_quadratic(), horizon=0, seeds=[0]),
                 [FixedDelay(0)], LinearScoring.default(1, 1))


@pytest.mark.parametrize("factory", [uniform_quadratic(), fixed_loss(QuadraticLoss, a=1.0)],
                         ids=["uniform", "fixed"])
def test_a_drawn_batch_is_read_only(factory):
    # Several games may play one batch, so none may write into its inputs.
    streams = [GaussianStream(d1=2, d2=2, rho=0.5, seed=seed) for seed in (1, 2)]
    batch = draw(streams, factory, horizon=6, seeds=[3, 4])
    assert batch.known.shape == (2, 6, 2) and batch.hidden is batch.loss.anchor
    for array in (batch.known, batch.hidden, batch.loss.a, batch.loss.b):
        with pytest.raises(ValueError, match="read-only"):
            array[0, 0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            array += 1.0
    played = run_game(GradientLearner(Ball([0.0, 0.0], 4.0), ConstantStep(value=0.1)), batch,
                      [FixedDelay(1)] * 2, LinearScoring.default(2, 2))
    assert played.loss is batch.loss


def test_draw_configuration_errors():
    stream = GaussianStream(rho=0.0, seed=1)
    with pytest.raises(ConfigError, match="one stream and seed per trial"):
        draw([stream], uniform_quadratic(), horizon=5, seeds=[0, 1])
    with pytest.raises(ConfigError, match="disagree on their dimensions"):
        draw([stream, GaussianStream(d1=2, seed=2)], uniform_quadratic(), horizon=5, seeds=[0, 1])
    for moved in (lambda hidden: hidden[:-1], lambda hidden: hidden + 1.0):
        with pytest.raises(ConfigError, match="did not anchor the losses at the hidden contexts"):
            draw([stream], lambda hidden, rng: QuadraticLoss(moved(hidden), a=1.0), horizon=5,
                 seeds=[0])
    batch = draw([stream], uniform_quadratic(), horizon=5, seeds=[0])
    learner = GradientLearner(Ball([0.0], 4.0), ConstantStep(value=0.1))
    with pytest.raises(ConfigError, match="one delay schedule per trial"):
        run_game(learner, batch, [FixedDelay(0)] * 2, LinearScoring.default(1, 1))


def test_uniform_quadratic_draws_are_seed_stable():
    rng1 = np.random.default_rng(4)
    rng2 = np.random.default_rng(4)
    factory = uniform_quadratic()
    l1 = factory(np.zeros(1), rng1)
    l2 = factory(np.zeros(1), rng2)
    assert l1.a == l2.a and l1.b == l2.b
    assert 0.0 < l1.a <= 1.0 and 0.0 <= l1.b < 1.0
