"""Property test of the contract between `validate` and `run`.

Configs are drawn from the options of the INI schema at small sizes.  A
config that `validate` accepts must run to exit 0 or end in exit 2 with an
`error:` line; one that it rejects must make `run` exit 2 and write nothing.
An exception escaping `cli.main` fails the test, as a traceback would.
"""

import contextlib
import functools
import io
import tempfile
import warnings
from pathlib import Path
from unittest import mock

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from laglearn import cli, evaluation, experiments

# Losses without a closed-form comparator send it into projected gradient
# descent, which on a kinked or steep sum can take its whole budget of
# 5 x 100 000 steps: seconds a trial.  The contract does not depend on the
# budget, so the test cuts it.
SHORT_COMPARATOR = functools.partial(evaluation.offline_optimum, max_iters=1_000)

def rounded(lo, hi):
    return st.floats(lo, hi).map(lambda v: round(v, 3))


positive = rounded(0.05, 2.0)
nonpositive = rounded(-0.5, 0.0)


def mostly(valid, invalid):
    """Valid values nine draws in ten, so that many configs get to run."""
    return st.sampled_from([True] * 9 + [False]).flatmap(lambda ok: valid if ok else invalid)


def _listed(values):
    return ", ".join(str(v) for v in values)


@st.composite
def configs(draw):
    """(options by section, csv rows or None, delay list or None) of one config."""
    stream = draw(st.sampled_from(experiments.STREAMS))
    d2 = 2 if stream == "pentagon" else draw(st.integers(1, 2))
    d1 = draw(st.integers(2, 3)) if stream == "pentagon" else draw(st.integers(1, 3))
    sections = {
        "experiment": {
            "kind": draw(mostly(st.sampled_from(experiments.KINDS), st.just("bogus"))),
            "horizon": draw(mostly(st.integers(1, 20), st.just(0))),
            "trials": draw(mostly(st.integers(1, 3), st.just(0))),
            "seed": draw(st.integers(0, 2**32)),
        },
        "learner": {
            "kind": draw(st.sampled_from(experiments.LEARNERS)),
            "schedule": draw(st.sampled_from(experiments.SCHEDULES)),
            "sigma": draw(mostly(st.one_of(st.just("auto"), positive), nonpositive)),
            "gamma": draw(mostly(positive, nonpositive)),
            "eta": draw(mostly(st.one_of(st.just("auto"), positive), nonpositive)),
            "lam": draw(st.one_of(st.just("coupled"), rounded(-1.0, 1.0))),
            "tau": draw(st.integers(0, 4)),
            "warmup": draw(st.integers(0, 2)),
            "mirror": draw(st.sampled_from(("euclidean", "negentropy"))),
        },
        "sweep": {
            "tau": _listed(draw(st.lists(st.integers(0, 4), min_size=1, max_size=3))),
            "rho": _listed(draw(st.lists(rounded(-1.0, 1.0), min_size=1, max_size=3))),
            "horizon": _listed(draw(st.lists(st.integers(1, 20), min_size=1, max_size=3))),
        },
        "stream": {
            "kind": stream,
            "rho": draw(rounded(-1.2, 1.2)),
            "mean": draw(rounded(-1.0, 2.0)),
            "variance": draw(mostly(positive, nonpositive)),
            "d1": d1,
            "d2": d2,
            "radius": draw(mostly(rounded(0.5, 5.0), nonpositive)),
        },
        "loss": {
            "family": draw(st.sampled_from(experiments.FAMILIES)),
            "coefficients": draw(st.sampled_from(("uniform", "fixed"))),
            "a": draw(mostly(positive, nonpositive)),
            "b": draw(mostly(positive, nonpositive)),
            "m": draw(mostly(st.one_of(st.integers(1, 3), st.just(400)), st.just(0))),
            "sigma1": draw(mostly(positive, nonpositive)),
        },
        "delays": {
            "kind": draw(st.sampled_from(experiments.DELAY_KINDS)),
            "d_max": draw(st.integers(0, 5)),
        },
    }
    if draw(st.booleans()):
        sections["learner"]["beta"] = draw(positive)
    rows = None
    if stream == "csv":
        rows = draw(st.lists(st.lists(rounded(0.05, 1.0), min_size=d1 + d2, max_size=d1 + d2),
                             min_size=1, max_size=22))
    delays = None
    if sections["delays"]["kind"] == "file":
        delays = draw(st.lists(st.integers(1, 4), min_size=1, max_size=22))
    # Drop a few options so that their defaults are drawn too.
    for section, options in sections.items():
        for key in draw(st.lists(st.sampled_from(sorted(options)), max_size=2, unique=True)):
            if (section, key) not in (("experiment", "kind"), ("stream", "d1"), ("stream", "d2")):
                options.pop(key)
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
                warnings.catch_warnings(), \
                mock.patch.object(evaluation, "offline_optimum", SHORT_COMPARATOR):
            warnings.simplefilter("ignore")
            accepted = cli.main(["validate", str(config)]) == 0
            code = cli.main(["run", str(config), "--out-dir", str(out)])
        if accepted:
            assert code in (0, 2), stderr.getvalue()
            if code == 2:
                assert stderr.getvalue().splitlines()[-1].startswith("error: ")
        else:
            assert code == 2
            assert not out.exists() or not any(out.iterdir())
