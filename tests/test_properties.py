"""Property tests of the contract between `validate` and `run`, of the float
walk, and of the loss rows that `grad` selects.

Configs are drawn from the options of the INI schema at small sizes.  A
config that `validate` accepts must run to exit 0, or end in exit 2 with
one of the errors that only its data can cause (`DATA_ERRORS`); one that it
rejects must make `run` exit 2 and write nothing.  An exception escaping
`cli.main` fails the test, as a traceback would.

A gradient learner plays one trial on a 1-d ball in Python floats and a
batch of trials on arrays.  Losses, delays and steps act row by row, so a
trial played alone must give the bytes of its row in a batch.

`Loss.grad` alone takes `at`, the rows of one block that the game loop
reads; those rows must give the bits of the loss cut to them.
"""

import contextlib
import io
import re
import tempfile
import warnings
from pathlib import Path

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from laglearn import cli, experiments
from laglearn.environment import (GaussianStream, LinearScoring, fixed_loss, run_game,
                                  uniform_quadratic)
from laglearn.feedback import FixedDelay, RandomDelay
from laglearn.geometry import Ball
from laglearn.learners import ConstantStep, GradientLearner, InverseSqrtStep
from laglearn.losses import ExpLoss, NormLoss, PowerLoss, QuadraticLoss

# The errors an accepted config may still end in, each with the streams or
# delays whose data can cause it.
DATA_ERRORS = [
    # a gradient or step that overflows mid-run (NonFiniteGradient)
    (re.compile(r"error: (gradient|step) has NaN or infinite entries at round \d+"), None),
]


def rounded(lo, hi):
    return st.floats(lo, hi).map(lambda v: round(v, 3))


positive = rounded(0.05, 2.0)
nonpositive = rounded(-0.5, 0.0)

# (section, option) -> a value that validate must reject.  One draw in four
# breaks one of these or cuts the csv short; the rest draw every option from
# its valid range, so that most configs get to run.
BROKEN = {
    ("experiment", "kind"): st.just("bogus"),
    ("experiment", "horizon"): st.just(0),
    ("experiment", "trials"): st.just(0),
    ("learner", "sigma"): nonpositive,
    ("learner", "gamma"): nonpositive,
    ("learner", "eta"): nonpositive,
    ("learner", "warmup"): st.just(-1),
    ("learner", "mirror"): st.just("negentropy"),
    ("stream", "rho"): st.sampled_from([-1.2, 1.2]),
    ("stream", "variance"): nonpositive,
    ("stream", "radius"): nonpositive,
    ("loss", "a"): nonpositive,
    ("loss", "b"): rounded(-0.5, -0.05),
    ("loss", "m"): st.sampled_from([0, 400]),
    ("loss", "sigma1"): nonpositive,
    ("delays", "kind"): st.just("adversarial"),
    ("delays", "d_max"): st.just(0),
}
SHORT_CSV = ("stream", "rows")  # a csv stream with fewer rows than any horizon

# Options whose defaults suit every draw; a few are dropped so that the
# defaults are drawn too.
DEFAULTED = {
    "experiment": ("trials", "seed"),
    "learner": ("schedule", "tau", "warmup", "mirror"),
    "stream": ("rho", "mean", "variance", "radius"),
    "loss": ("family", "coefficients", "a", "b", "m", "sigma1"),
    "delays": ("kind", "d_max"),
}


def _listed(values):
    return ", ".join(str(v) for v in values)


@st.composite
def configs(draw):
    """(options by section, csv rows or None, delay list or None) of one config."""
    breakable = sorted(BROKEN) + [SHORT_CSV]
    broken = draw(st.sampled_from([None] * 3 * len(breakable) + breakable))
    stream = draw(st.sampled_from(experiments.STREAMS))
    learner = draw(st.sampled_from(experiments.LEARNERS))
    kind = draw(st.sampled_from(experiments.KINDS))
    d2 = 2 if stream == "pentagon" else draw(st.integers(1, 2))
    d1 = draw(st.integers(2, 3)) if stream == "pentagon" else draw(st.integers(d2, 3))
    fixed_lag = learner in ("ogd", "omd")
    delay_kinds = ["fixed"] + (["file"] if kind == "single-run" else [])
    sections = {
        "experiment": {
            "kind": kind,
            "horizon": draw(st.integers(5, 20)),
            "trials": draw(st.integers(1, 3)),
            "seed": draw(st.integers(0, 2**32)),
        },
        "learner": {
            "kind": learner,
            "schedule": draw(st.sampled_from(experiments.SCHEDULES)),
            "sigma": draw(st.one_of(st.just("auto"), positive)),
            "gamma": draw(positive),
            "eta": draw(st.one_of(st.just("auto"), positive) if learner == "adversarial"
                        else positive),
            "lam": draw(rounded(-1.0, 1.0) if learner == "adversarial"
                        else st.one_of(st.just("coupled"), rounded(-1.0, 1.0))),
            "tau": draw(st.integers(0, 4)),
            "warmup": draw(st.integers(0, 1)),
            "mirror": "negentropy" if stream == "csv" and draw(st.booleans()) else "euclidean",
        },
        "sweep": {
            "tau": _listed(draw(st.lists(st.integers(0, 4), min_size=1, max_size=3, unique=True))),
            "rho": _listed(draw(st.lists(rounded(-1.0, 1.0), min_size=1, max_size=3,
                                         unique=True))),
            "horizon": _listed(draw(st.lists(st.integers(5, 20), min_size=1, max_size=3,
                                             unique=True))),
        },
        "stream": {
            "kind": stream,
            "rho": draw(rounded(-1.0, 1.0)),
            "mean": draw(rounded(-1.0, 2.0)),
            "variance": draw(positive),
            "d1": d1,
            "d2": d2,
            "radius": draw(rounded(0.5, 2.0)),
        },
        "loss": {
            "family": draw(st.sampled_from(experiments.FAMILIES)),
            "coefficients": draw(st.sampled_from(("uniform", "fixed"))),
            "a": draw(positive),
            "b": draw(positive),
            "m": draw(st.integers(1, 3)),
            "sigma1": draw(rounded(1.0, 2.0)),
        },
        "delays": {
            "kind": draw(st.sampled_from(delay_kinds if fixed_lag else experiments.DELAY_KINDS)),
            "d_max": draw(st.integers(1, 5)),
        },
    }
    if draw(st.booleans()):
        sections["learner"]["beta"] = draw(positive)
    if broken in BROKEN:
        section, option = broken
        sections[section][option] = draw(BROKEN[broken])
    for section, options in DEFAULTED.items():
        for key in draw(st.lists(st.sampled_from(options), max_size=2, unique=True)):
            if (section, key) != broken:
                sections[section].pop(key)
    rows = None
    if stream == "csv":
        short = broken == SHORT_CSV
        rows = draw(st.lists(st.lists(rounded(0.05, 1.0), min_size=d1 + d2, max_size=d1 + d2),
                             min_size=1 if short else 20, max_size=4 if short else 22))
    delays = None
    if sections["delays"].get("kind") == "file":
        delays = draw(st.lists(st.integers(1, 4), min_size=20, max_size=22))
    return sections, rows, delays


def _write(root: Path, sections, rows, delays) -> Path:
    if rows is not None:
        path = root / "contexts.csv"
        path.write_text("".join(",".join(map(str, row)) + "\n" for row in rows))
        sections["stream"]["path"] = str(path)
    if delays is not None:
        path = root / "delays.txt"
        path.write_text("".join(f"{d}\n" for d in delays))
        sections["delays"]["path"] = str(path)
    config = root / "config.ini"
    config.write_text("".join(
        f"[{section}]\n" + "".join(f"{key} = {value}\n" for key, value in options.items())
        for section, options in sections.items()))
    return config


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(configs())
def test_validate_and_run_agree(drawn):
    sections, rows, delays = drawn
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        config = _write(root, sections, rows, delays)
        out = root / "out"
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr), contextlib.redirect_stdout(io.StringIO()), \
                warnings.catch_warnings():
            warnings.simplefilter("ignore")
            accepted = cli.main(["validate", str(config)]) == 0
            code = cli.main(["run", str(config), "--out-dir", str(out)])
        if accepted:
            assert code in (0, 2), stderr.getvalue()
            if code == 2:
                last = stderr.getvalue().splitlines()[-1]
                sources = (None, sections["stream"]["kind"], sections["delays"].get("kind"))
                assert any(pattern.match(last) and source in sources
                           for pattern, source in DATA_ERRORS), last
        else:
            assert code == 2
            assert not out.exists() or not any(out.iterdir())


FAMILIES = {
    "norm": fixed_loss(NormLoss),
    "power": fixed_loss(PowerLoss, m=3),
    "quadratic": uniform_quadratic(),
    "exp": fixed_loss(ExpLoss, a=1.0, s=1.5, m=2),
}


@st.composite
def batches(draw):
    """One game of a 2- or 3-trial batch in 1-d, and which of its trials to play alone."""
    trials = draw(st.integers(2, 3))
    tau = draw(st.integers(0, 4))
    return {
        "trials": trials,
        "alone": draw(st.integers(0, trials - 1)),
        "horizon": draw(st.integers(1, 80)),
        "seed": draw(st.integers(0, 2**32)),
        # A random delay needs tau = 0; a fixed lag is delivered tau rounds late.
        "tau": tau,
        "d_max": None if draw(st.booleans()) else draw(st.integers(1, 8)),
        "family": draw(st.sampled_from(sorted(FAMILIES))),
        # Anchors are drawn around 1.0, so a small ball far from it binds.
        "center": draw(rounded(-1.0, 1.0)),
        "radius": draw(rounded(0.01, 0.6)),
        "rho": draw(rounded(-1.0, 1.0)),
        "pull": draw(st.sampled_from([(0.0, False), (0.4, False), (-0.7, False), (1.0, True),
                                      (-1.0, True)])),
        "step": draw(st.one_of(rounded(0.05, 1.5), st.lists(rounded(0.05, 1.5), min_size=trials,
                                                            max_size=trials))),
        "beta": draw(st.one_of(st.none(), rounded(0.01, 0.5))),
    }


def _play(game, rows):
    """The estimates of the trials `rows` of `game`, played as one batch."""
    tau = 0 if game["d_max"] else game["tau"]
    step, beta = game["step"], game["beta"]
    if isinstance(step, list):
        schedule = ConstantStep(value=[step[k] for k in rows], tau=tau, beta_override=beta)
    else:
        schedule = InverseSqrtStep(sigma=step, tau=tau, beta_override=beta)
    body = Ball([game["center"]], game["radius"])
    learner = GradientLearner(body, schedule, *game["pull"])
    seed = game["seed"]
    streams = [GaussianStream(rho=game["rho"], body_hidden=Ball([0.0], 2.0), seed=seed + k)
               for k in rows]
    delays = [RandomDelay(game["d_max"], seed + 10 + k) if game["d_max"] else FixedDelay(tau)
              for k in rows]
    played = run_game(learner, streams, delays, FAMILIES[game["family"]],
                      LinearScoring.default(1, 1), game["horizon"], [seed + 20 + k for k in rows])
    return learner, played.estimates


@settings(max_examples=200, deadline=None)
@given(batches())
def test_a_trial_played_alone_gives_the_bytes_of_its_row_in_a_batch(game):
    batch, together = _play(game, list(range(game["trials"])))
    alone, by_itself = _play(game, [game["alone"]])
    assert batch._walk == batch._walk_arrays and alone._walk == alone._walk_floats
    assert np.array_equal(by_itself[0].view(np.uint64), together[game["alone"]].view(np.uint64))


@st.composite
def row_selections(draw):
    """A loss of one of the four families with per-row coefficient columns,
    the rows `at` of one block or one round of every trial, and points
    there, some on their anchors."""
    trials, horizon = draw(st.integers(1, 3)), draw(st.integers(1, 12))
    dim = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = (trials, horizon)
    anchors = rng.choice([-1.0, -0.5, 0.0, 0.5, 1.5], size=(*rows, dim))
    family = draw(st.sampled_from(["norm", "quadratic", "power", "exp"]))
    if family == "norm":
        loss = NormLoss(anchors)
    elif family == "quadratic":
        loss = QuadraticLoss(anchors, a=rng.uniform(0.1, 2.0, rows), b=rng.uniform(0.0, 1.0, rows))
    elif family == "power":
        loss = PowerLoss(anchors, m=rng.integers(1, 4, rows))
    else:
        loss = ExpLoss(anchors, a=rng.uniform(0.1, 2.0, rows), s=rng.uniform(0.5, 2.0, rows),
                       m=rng.integers(1, 3, rows))
    lo = draw(st.integers(0, horizon - 1))
    if draw(st.booleans()):
        at = (slice(None), slice(lo, draw(st.integers(lo + 1, horizon))))
    else:
        at = (slice(None), lo)
    # A point on its anchor is at the kink of norm, power m = 1 and exp m = 1.
    x = np.where(rng.random(anchors[at].shape[:-1] + (1,)) < 0.5, anchors[at],
                 rng.uniform(-2.0, 2.0, anchors[at].shape))
    return loss, at, x


@settings(max_examples=200, deadline=None)
@given(row_selections())
def test_grad_of_the_rows_at_gives_the_bits_of_the_loss_cut_to_them(drawn):
    loss, at, x = drawn
    selected, cut = loss.grad(x, at=at), loss[at].grad(x)
    assert selected.shape == cut.shape == x.shape
    assert np.array_equal(selected.view(np.uint64), cut.view(np.uint64))
