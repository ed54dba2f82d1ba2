"""Acceptance suite: the headline checks, run at full size.

Each test prints one `[criterion N] ...: PASS/FAIL` line; run with
`pytest tests/test_acceptance.py -v -s` to watch them stream by.
"""

import csv
import dataclasses
import math
import time

import numpy as np
import pytest

from delivery_oracle import buffer_layout, deliveries
from laglearn import experiments, evaluation
from laglearn.environment import (
    ExplicitStream,
    GaussianStream,
    LinearScoring,
    draw,
    fixed_loss,
    run_game,
    uniform_quadratic,
)
from laglearn.evaluation import fit_scaling, offline_optimum, regret
from laglearn.feedback import ExplicitDelay, FeedbackBuffer, FixedDelay, delivery_order
from laglearn.geometry import (
    Ball,
    Box,
    EuclideanMap,
    NegativeEntropyMap,
    Simplex,
    regular_polygon,
)
from laglearn.learners import (
    ConstantStep,
    GradientLearner,
    InverseSqrtStep,
)
from laglearn.losses import ExpLoss, NormLoss, PowerLoss, QuadraticLoss


def _check(criterion, name, ok, detail=""):
    line = f"[criterion {criterion}] {name}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    assert ok, line


def _run_preset(name, tmp_path_factory, **overrides):
    cfg = experiments.parse_config(experiments.preset_path(name))
    if overrides:
        cfg = dataclasses.replace(cfg, **overrides)
    out = tmp_path_factory.mktemp(name)
    start = time.monotonic()
    manifest = experiments.run_experiment(cfg, out)
    return cfg, manifest, out, time.monotonic() - start


def _mean_regret_curve(out_dir, label):
    with open(out_dir / f"{label}.csv") as fh:
        return np.array([float(row["regret_mean"]) for row in csv.DictReader(fh)])


def _slope(curve, lo, hi):
    points = [(t, curve[t - 1]) for t in range(lo, hi + 1)]
    return fit_scaling(points).exponent


# ---------------------------------------------------------------------------
# Full-size experiment fixtures (each preset runs once per session)
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def fig1(tmp_path_factory):
    return _run_preset("fig1", tmp_path_factory)


@pytest.fixture(scope="module")
def fig2(tmp_path_factory):
    return _run_preset("fig2", tmp_path_factory)


@pytest.fixture(scope="module")
def fig3(tmp_path_factory):
    return _run_preset("fig3", tmp_path_factory)


@pytest.fixture(scope="module")
def fig4(tmp_path_factory):
    return _run_preset("fig4", tmp_path_factory)


@pytest.fixture(scope="module")
def thm1(tmp_path_factory):
    return _run_preset("thm1", tmp_path_factory)


@pytest.fixture(scope="module")
def thm1_tau20(tmp_path_factory):
    return _run_preset("thm1", tmp_path_factory, tau=20)


@pytest.fixture(scope="module")
def thm2(tmp_path_factory):
    return _run_preset("thm2", tmp_path_factory)


def _thm2_horizon_scaling(tmp_path_factory, tau):
    return _run_preset("thm2", tmp_path_factory, kind="scaling-check",
                       sweep_horizons=(250, 1000, 4000), sweep_taus=None, tau=tau)


@pytest.fixture(scope="module")
def thm2_horizons_tau10(tmp_path_factory):
    return _thm2_horizon_scaling(tmp_path_factory, 10)


@pytest.fixture(scope="module")
def thm2_horizons_tau40(tmp_path_factory):
    return _thm2_horizon_scaling(tmp_path_factory, 40)


@pytest.fixture(scope="module")
def thm4(tmp_path_factory):
    return _run_preset("thm4", tmp_path_factory)


# ---------------------------------------------------------------------------
# Criterion 1: delay-sweep reproduction
# ---------------------------------------------------------------------------

def test_criterion_1_delay_sweep(fig1):
    cfg, manifest, out, elapsed = fig1
    finals = [manifest["arms"][f"tau{t}"]["final_cum_loss_mean"] for t in (10, 15, 30)]
    monotone = finals[0] <= finals[1] <= finals[2]
    slopes = {t: _slope(_mean_regret_curve(out, f"tau{t}"), 100, 1000) for t in (10, 15, 30)}
    _check(1, "runtime", elapsed <= 60.0, f"{elapsed:.1f}s for 3x100 trials")
    _check(1, "cumulative loss nondecreasing in the lag", monotone,
           f"finals={[round(f, 1) for f in finals]}")
    _check(1, "log-like regret growth", all(s <= 0.35 for s in slopes.values()),
           f"slopes={[round(s, 3) for s in slopes.values()]} (bound 0.35)")


# ---------------------------------------------------------------------------
# Criterion 2: convex-case horizon and lag scaling
# ---------------------------------------------------------------------------

def test_criterion_2_convex_scaling(thm1, thm1_tau20):
    _, manifest, _, _ = thm1
    _, manifest20, _, _ = thm1_tau20
    horizons = (250, 1000, 4000)
    exponent = manifest["metrics"]["regret_exponent"]
    _check(2, "regret exponent in [0.30, 0.65]", 0.30 <= exponent <= 0.65,
           f"exponent={exponent:.3f}")

    points5 = [(h, manifest["arms"][f"T{h}"]["final_regret_mean"]) for h in horizons]
    points20 = [(h, manifest20["arms"][f"T{h}"]["final_regret_mean"]) for h in horizons]
    c5 = float(np.mean([r / math.sqrt(5 * h) for h, r in points5]))
    c20 = float(np.mean([r / math.sqrt(20 * h) for h, r in points20]))
    ratio = c20 / c5
    _check(2, "sqrt-lag law predicts the tau=20 constant within 2x",
           0.5 <= ratio <= 2.0, f"C(20)/C(5)={ratio:.3f}")


# ---------------------------------------------------------------------------
# Criterion 3: strongly-convex lag scaling
# ---------------------------------------------------------------------------

def test_criterion_3_strongly_convex_lag_ratio(thm2):
    _, manifest, _, _ = thm2
    r10 = manifest["arms"]["tau10"]["final_regret_mean"]
    r40 = manifest["arms"]["tau40"]["final_regret_mean"]
    ratio = r40 / r10
    _check(3, "regret ratio tau=40 / tau=10 in [1.5, 6]", 1.5 <= ratio <= 6.0,
           f"ratio={ratio:.2f} (linear law predicts 4)")


# ---------------------------------------------------------------------------
# Criterion 4: mirror descent with the Euclidean map reduces to gradient descent
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("trials, dim", [(1, 1), (2, 2)])
def test_criterion_4_omd_ogd_equivalence(trials, dim):
    # The game's learner under the Euclidean map against projected gradient
    # descent written out round by round, with a lag, a coupled pull and a
    # ball that binds.  One trial in 1-d plays the float game, and two
    # trials in 2-d the array walk.
    horizon, tau, sigma, radius = 500, 5, 0.5, 1.2

    def streams():
        return [GaussianStream(d1=dim, d2=dim, rho=0.5, seed=2024 + k) for k in range(trials)]

    learner = GradientLearner(Ball(np.zeros(dim), radius), InverseSqrtStep(sigma=sigma, tau=tau),
                              lam=1.0, coupled=True, mirror=EuclideanMap())
    traj = run_game(learner,
                    draw(streams(), uniform_quadratic(), horizon,
                         seeds=[99 + k for k in range(trials)]),
                    [FixedDelay(tau)] * trials, LinearScoring.default(dim, dim))
    gap, projected = 0.0, 0
    for k, stream in enumerate(streams()):
        known, _ = stream.take(horizon)
        anchor, a = traj.loss.anchor[k], traj.loss.a[k]
        x, grads = np.zeros(dim), []
        for t in range(1, horizon + 1):
            gap = max(gap, float(np.max(np.abs(traj.estimates[k, t - 1] - x))))
            grads.append(2.0 * a[t - 1] * (x - anchor[t - 1]))
            if t > tau:  # the gradient of round t - tau arrives; the pull is eta * eta * k
                eta = sigma / math.sqrt(t - tau)
                ahead = known[t] if t < horizon else np.zeros(dim)
                x = x - eta * grads[t - tau - 1] + eta * (eta * ahead)
                if np.linalg.norm(x) > radius:
                    x, projected = radius * x / np.linalg.norm(x), projected + 1
    assert projected > 0
    _check(4, "Euclidean mirror trajectory equals projected gradient descent",
           gap <= 1e-9, f"max pointwise gap={gap:g} over T={horizon}, {trials} trial(s) in {dim}-d")


# ---------------------------------------------------------------------------
# Criterion 5: arbitrary delays
# ---------------------------------------------------------------------------

def test_criterion_5_arbitrary_delay_scaling(thm4):
    _, manifest, _, _ = thm4
    ratios = manifest["metrics"]["regret_over_sqrt_delay_sum"]
    spread = max(ratios.values()) / min(ratios.values())
    exponent = manifest["metrics"]["regret_exponent"]
    _check(5, "regret / sqrt(delay sum) stable within 2x", spread <= 2.0,
           f"ratios={[round(v, 4) for v in ratios.values()]} spread={spread:.2f}")
    _check(5, "regret-vs-horizon exponent <= 0.65", exponent <= 0.65,
           f"exponent={exponent:.3f}")


# ---------------------------------------------------------------------------
# Criterion 6: correlation sweep
# ---------------------------------------------------------------------------

def test_criterion_6_correlation_sweep(fig2):
    _, manifest, _, _ = fig2
    finals = [manifest["arms"][f"rho{r:g}"]["final_cum_loss_mean"] for r in (0.0, 0.4, 0.8)]
    ok = all(nxt <= prev * 1.05 for prev, nxt in zip(finals, finals[1:]))
    _check(6, "cumulative loss nonincreasing in correlation (5% slack)", ok,
           f"finals={[round(f, 1) for f in finals]}")


# ---------------------------------------------------------------------------
# Criterion 7: sample-mean baseline comparisons
# ---------------------------------------------------------------------------

def test_criterion_7_baseline_comparisons(fig3, fig4):
    for tag, fixture in (("gaussian", fig3), ("pentagon", fig4)):
        _, manifest, out, _ = fixture
        slope = _slope(_mean_regret_curve(out, "ogd"), 100, 1000)
        ratio = manifest["metrics"]["naive_to_learner_cum_loss_ratio"]
        _check(7, f"{tag}: gradient learner regret sublinear", slope < 0.9,
               f"exponent={slope:.3f}")
        _check(7, f"{tag}: naive/learner loss ratio recorded", ratio > 0.0,
               f"ratio={ratio:.4f}")


# ---------------------------------------------------------------------------
# Criterion 8: property suites
# ---------------------------------------------------------------------------

def test_criterion_8_projection_properties():
    bodies = [Ball([0.0, 0.0], 1.0), Box([-1.0, -1.0], [1.0, 1.0]),
              regular_polygon(5, center=(1.0, 1.0), circumradius=1.0), Simplex(3)]
    rng = np.random.default_rng(88)
    worst = 0.0
    for body in bodies:
        for _ in range(1000):
            x = rng.normal(scale=5.0, size=body.dim)
            y = rng.normal(scale=5.0, size=body.dim)
            px, py = body.project(x), body.project(y)
            assert body.contains(px, tol=1e-9)
            worst = max(worst, float(np.linalg.norm(body.project(px) - px)))
            assert np.linalg.norm(px - py) <= np.linalg.norm(x - y) + 1e-12
    _check(8, "projection idempotent/member/contraction (1000 x 4 bodies)",
           worst <= 1e-9, f"worst idempotence gap={worst:g}")


def test_criterion_8_gradient_finite_differences():
    rng = np.random.default_rng(89)
    anchor = np.array([0.3, -0.2])
    losses = [NormLoss(anchor), QuadraticLoss(anchor, a=0.6, b=0.1),
              PowerLoss(anchor, m=3), ExpLoss(anchor, a=1.0, s=1.5, m=2)]
    h, worst = 1e-6, 0.0
    for loss in losses:
        for _ in range(200):
            x = anchor + rng.normal(size=2)
            if np.linalg.norm(x - anchor) < 0.1:
                x = anchor + np.array([0.5, 0.5])
            fd = np.empty(2)
            for j in range(2):
                e = np.zeros(2)
                e[j] = h
                fd[j] = (loss.value(x + e) - loss.value(x - e)) / (2 * h)
            rel = np.linalg.norm(loss.grad(x) - fd) / max(np.linalg.norm(fd), 1e-12)
            worst = max(worst, float(rel))
    _check(8, "gradients vs central differences (200 x 4 families)", worst <= 1e-5,
           f"worst relative error={worst:.2e}")


def test_criterion_8_bregman_properties():
    rng = np.random.default_rng(90)
    emap, nmap = EuclideanMap(), NegativeEntropyMap()
    ok = True
    for _ in range(500):
        x, y = rng.normal(size=3), rng.normal(size=3)
        ok &= emap.bregman(x, y) >= 0.0 and emap.bregman(x, x) == 0.0
        p = rng.dirichlet(np.ones(3)) + 1e-6
        p /= p.sum()
        q = rng.dirichlet(np.ones(3)) + 1e-6
        q /= q.sum()
        ok &= nmap.bregman(p, q) >= 0.0 and nmap.bregman(p, p) == 0.0
    _check(8, "Bregman divergence nonnegative, zero at identity", ok)


def test_criterion_8_feedback_exactly_once():
    rng = np.random.default_rng(91)
    ok = True
    for _ in range(100):
        horizon = int(rng.integers(20, 80))
        d_max = int(rng.integers(1, 12))
        delays = rng.integers(1, d_max + 1, size=horizon)
        order = [a[0].tolist() for a in delivery_order(delays)]
        sources, starts, due = buffer_layout(delays)
        ok &= order == [sources[0], starts[0]] and FeedbackBuffer(delays).due.tolist() == due
    _check(8, "exactly-once delivery over 100 random schedules", ok)


def test_criterion_8_offline_solver_agreement():
    rng = np.random.default_rng(92)
    losses = [QuadraticLoss(rng.normal(size=2), a=float(rng.uniform(0.2, 1.0)))
              for _ in range(30)]
    body = Ball([0.0, 0.0], 3.0)
    closed = offline_optimum(losses, body)
    iterative = offline_optimum(losses, body, method="iterative")
    gap = float(np.linalg.norm(closed.point[0] - iterative.point[0]))
    _check(8, "closed-form vs iterative comparator", gap <= 1e-6, f"gap={gap:g}")


def test_criterion_8_score_error_chain_on_runs():
    ok, worst = True, -np.inf
    for seed in range(5):
        stream = GaussianStream(rho=0.5, seed=seed)
        learner = GradientLearner(Ball([0.0], 4.0), InverseSqrtStep(sigma=0.5, tau=seed + 1),
                                  1.0, coupled=True)
        traj = run_game(learner,
                        draw([stream], uniform_quadratic(), horizon=400, seeds=[seed + 10]),
                        [FixedDelay(seed + 1)], LinearScoring.default(1, 1))
        report = regret(traj, Ball([0.0], 4.0))
        margin = float(traj.loss.radial(traj.score_errors)[0].sum()
                       - report.comparator_loss[0] - report.regret[0, -1])
        worst = max(worst, margin)
        ok &= margin <= 1e-6
    _check(8, "cumulative score error within comparator loss + regret", ok,
           f"worst margin={worst:.3g} (<= 1e-6)")


# ---------------------------------------------------------------------------
# Criterion 9: exact small-instance oracles
# ---------------------------------------------------------------------------

def test_criterion_9_exact_hand_oracles():
    stream = ExplicitStream([[1.0], [1.0], [1.0]], [[1.0], [2.0], [3.0]])
    learner = GradientLearner(Ball([0.0], 10.0), ConstantStep(value=0.5))
    traj = run_game(learner,
                    draw([stream], fixed_loss(QuadraticLoss, a=1.0, b=0.0), horizon=3, seeds=[0]),
                    [FixedDelay(0)], LinearScoring.default(1, 1))
    no_delay_ok = (np.array_equal(traj.estimates, [[[0.0], [1.0], [2.0]]])
                   and np.array_equal(traj.loss_values, [[1.0, 1.0, 1.0]])
                   and deliveries(traj.delays) == {1: [(0, 1)], 2: [(0, 2)], 3: [(0, 3)]})
    _check(9, "three-round no-delay trajectory exact", no_delay_ok,
           f"estimates={traj.estimates.ravel().tolist()}")

    stream = ExplicitStream([[1.0], [1.0], [1.0]], [[1.0], [2.0], [3.0]])
    learner = GradientLearner(Ball([0.0], 10.0), ConstantStep(value=0.1))
    traj = run_game(learner,
                    draw([stream], fixed_loss(QuadraticLoss, a=1.0, b=0.0), horizon=3, seeds=[0]),
                    [ExplicitDelay((3, 1, 1))], LinearScoring.default(1, 1))
    x2 = 0.0
    x3 = x2 - 0.1 * (2.0 * (x2 - 2.0))
    multi_ok = (deliveries(traj.delays) == {2: [(0, 2)], 3: [(0, 1), (0, 3)]}
                and np.array_equal(traj.estimates, [[[0.0], [x2], [x3]]])
                and traj.loss_values[0, 2] == math.sqrt((x3 - 3.0) ** 2) ** 2)
    _check(9, "multi-delivery trajectory exact (rounds 1 and 3 land together)",
           multi_ok, f"estimates={traj.estimates.ravel().tolist()}")


# ---------------------------------------------------------------------------
# Criterion 10: strongly-convex horizon scaling
# ---------------------------------------------------------------------------

def test_criterion_10_strongly_convex_horizon_scaling(thm2_horizons_tau10, thm2_horizons_tau40):
    # O(tau log T) regret: the fitted exponent in T sits near 0, far below sqrt's 0.5.
    metrics = {10: thm2_horizons_tau10[1]["metrics"], 40: thm2_horizons_tau40[1]["metrics"]}
    _check(10, "regret-vs-horizon exponent <= 0.25 at tau 10 and 40",
           all(m["regret_exponent"] <= 0.25 for m in metrics.values()),
           ", ".join(f"tau={tau}: {m['regret_exponent']:.3f} +/- "
                     f"{m['regret_exponent_halfwidth']:.3f}" for tau, m in metrics.items()))


# ---------------------------------------------------------------------------
# Criterion 12: the sqrt((tau + 1) T) rate under a fixed lag, two-sided
# ---------------------------------------------------------------------------

def _lag_sign_regret(tmp_path, signs, tau):
    """Regret / sqrt((tau + 1) T) of ogd (sqrt schedule, sigma auto, lam 0,
    norm loss, radius 2) on hidden contexts `signs` under a fixed lag tau."""
    horizon = len(signs)
    contexts = tmp_path / "contexts.csv"
    np.savetxt(contexts, np.column_stack([np.zeros(horizon), signs]), delimiter=",")
    cfg = experiments.ExperimentConfig(
        kind="single-run", horizon=horizon, learner="ogd", schedule="sqrt", sigma="auto",
        tau=tau, lam=0.0, stream="csv", context_path=str(contexts), d1=1, d2=1, radius=2.0,
        family="norm", delay_kind="fixed")
    _, report = experiments.run_single(cfg, [experiments.trial_seed(0, 0)])
    return report.regret[0, -1] / math.sqrt((tau + 1) * horizon)


def test_criterion_12_sqrt_lag_rate_against_an_adversary(tmp_path):
    # Random signs held for tau + 1 rounds are the lower-bound construction
    # for a fixed lag (Weinberger & Ordentlich 2002; Langford, Smola &
    # Zinkevich 2009): no learner keeps regret below order sqrt((tau + 1) T),
    # and a tuned one stays within a constant of it.  A run's regret is
    # about the comparator's |sum of signs|, so the ratio is taken as the
    # mean over seeds; each seed is its own run and csv.  Under a fixed lag
    # each block of tau + 1 rounds is one block of the game loop.
    rows = []
    for tau in (0, 4, 16):
        for horizon in (1000, 4000):
            rounds = np.arange(1, horizon + 1)
            blocks = rounds // (tau + 1)
            ratios = [_lag_sign_regret(tmp_path, np.random.default_rng(seed).choice(
                [-1.0, 1.0], blocks[-1] + 1)[blocks], tau) for seed in range(6)]
            rows.append((f"random tau={tau} T={horizon}", float(np.mean(ratios))))
    # Random signs cost a learner inside [-1, 1] one a round whatever its
    # step, so they cannot tell a mis-tuned step.  Signs that flip every
    # 2 (tau + 1) rounds can: for tau rounds after each flip the learner
    # still moves toward the old sign, and a step tuned as if tau were 0
    # carries it further the wrong way (regret / sqrt((tau + 1) T) 2.7-3.0
    # at tau = 16, against 1.3 tuned to tau).
    for tau in (0, 4, 16):
        for horizon in (1000, 4000):
            rounds = np.arange(1, horizon + 1)
            signs = np.where(rounds // (2 * (tau + 1)) % 2 == 0, 1.0, -1.0)
            rows.append((f"alternating tau={tau} T={horizon}",
                         _lag_sign_regret(tmp_path, signs, tau)))
    _check(12, "regret / sqrt((tau + 1) T) in [0.4, 2.5]",
           all(0.4 <= ratio <= 2.5 for _, ratio in rows),
           ", ".join(f"{name}: {ratio:.3f}" for name, ratio in rows))


# ---------------------------------------------------------------------------
# Criterion 13: the sqrt(D) rate against an adversary, two-sided
# ---------------------------------------------------------------------------

def _block_sign_regret(tmp_path, signs, block):
    """Regret / sqrt(D) of the adversarial learner (eta auto, norm loss, radius
    2) on hidden contexts `signs`, under delays d_s = block - (s mod block):
    the rounds kB..kB + B - 1 are delivered together at the last of them."""
    horizon = len(signs)
    rounds = np.arange(1, horizon + 1)
    contexts, delays = tmp_path / "contexts.csv", tmp_path / "delays.txt"
    np.savetxt(contexts, np.column_stack([np.zeros(horizon), signs]), delimiter=",")
    np.savetxt(delays, block - rounds % block, fmt="%d")
    cfg = experiments.ExperimentConfig(
        kind="single-run", horizon=horizon, learner="adversarial", eta="auto", lam=0.0,
        stream="csv", context_path=str(contexts), d1=1, d2=1, radius=2.0, family="norm",
        delay_kind="file", delay_path=str(delays))
    traj, report = experiments.run_single(cfg, [experiments.trial_seed(0, 0)])
    return report.regret[0, -1] / math.sqrt(traj.delays.sum())


def test_criterion_13_sqrt_delay_sum_rate_against_an_adversary(tmp_path):
    # Random signs held through each delivery block are the lower-bound
    # construction (Quanrud & Khashabi 2015): no learner keeps regret below
    # order sqrt(D), and a tuned one stays within a constant of it.  A run's
    # regret is about the comparator's |sum of signs|, so the ratio is taken
    # as the mean over seeds; each seed is its own run and csv.
    rows = []
    for block in (1, 5, 20):
        for horizon in (1000, 4000):
            rounds = np.arange(1, horizon + 1)
            ratios = [_block_sign_regret(
                tmp_path, np.random.default_rng(seed).choice([-1.0, 1.0], horizon // block + 1)[
                    rounds // block], block) for seed in range(6)]
            rows.append((f"random B={block} T={horizon}", float(np.mean(ratios))))
    # Signs that flip with every block leave the learner on the wrong side of
    # each block, by the move the last block made: about eta B / 2 a round,
    # so regret / sqrt(D) near B / (2 (B + 1)) with eta tuned to D, and
    # growing like sqrt(B) with eta tuned as if D were T.
    for block in (20, 100):
        for horizon in (1000, 4000):
            rounds = np.arange(1, horizon + 1)
            signs = np.where(rounds // block % 2 == 0, 1.0, -1.0)
            rows.append((f"alternating B={block} T={horizon}",
                         _block_sign_regret(tmp_path, signs, block)))
    _check(13, "regret / sqrt(delay sum) in [0.4, 2.5]",
           all(0.4 <= ratio <= 2.5 for _, ratio in rows),
           ", ".join(f"{name}: {ratio:.3f}" for name, ratio in rows))
