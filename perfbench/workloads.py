"""The benchmark's workloads: generated INI configs in which only the seed varies.

Each workload stresses a different part of laglearn:

* ``lag-sweep``: the fig1 delay sweep.  The per-round game loop (learner,
  loss construction, feedback buffer, context draw) is almost all of the
  time, and the quadratic comparator has a closed form.
* ``arbitrary-delay-long``: one long single run with i.i.d. delays.  It takes
  the multi-delivery path, evaluates one 100k-round trajectory and writes a
  100k-row ``trajectory.csv``; with one trial there is nothing to batch.
* ``comparator-heavy``: OGD against the sample-mean baseline on the
  pentagon stream with a power loss.  No closed form applies, so the
  offline comparator runs projected gradient descent.
"""

from __future__ import annotations

LAG_SWEEP = """\
[experiment]
kind = delay-sweep
horizon = {horizon}
trials = 10
seed = {seed}

[learner]
kind = ogd
schedule = sqrt
sigma = 0.5
lam = coupled

[sweep]
tau = 10, 15, 30

[stream]
kind = gaussian
rho = 0.5
mean = 1.0
variance = 1.0
d1 = 1
d2 = 1
radius = 4.0

[loss]
family = quadratic
coefficients = uniform

[delays]
kind = fixed
"""

ARBITRARY_DELAY_LONG = """\
[experiment]
kind = single-run
horizon = {horizon}
trials = 1
seed = {seed}

[learner]
kind = adversarial
eta = auto
lam = 0.0

[stream]
kind = gaussian
rho = 0.0
mean = 0.25
variance = 1.0
d1 = 1
d2 = 1
radius = 4.0

[loss]
family = norm

[delays]
kind = adversarial
d_max = 20
"""

COMPARATOR_HEAVY = """\
[experiment]
kind = baseline-compare
horizon = {horizon}
trials = 4
seed = {seed}

[learner]
kind = ogd
schedule = sqrt
sigma = auto
tau = 10
lam = coupled

[stream]
kind = pentagon
mean = 1.0
variance = 1.0
d1 = 2
d2 = 2

[loss]
family = power
m = 3

[delays]
kind = fixed
"""

# name -> (config template, horizon)
WORKLOADS = {
    "lag-sweep": (LAG_SWEEP, 1000),
    "arbitrary-delay-long": (ARBITRARY_DELAY_LONG, 100_000),
    "comparator-heavy": (COMPARATOR_HEAVY, 1000),
}


def config_text(workload: str, seed: int, horizon: int | None = None) -> str:
    """The INI config of `workload` for `seed`.

    `horizon` replaces the workload's horizon; only the tests use it, to
    make smoke runs short.
    """
    template, default_horizon = WORKLOADS[workload]
    return template.format(seed=int(seed), horizon=int(horizon or default_horizon))
