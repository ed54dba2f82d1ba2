"""Byte-identity gate: every shipped preset, run at two trials, the two
baseline-compare presets at their full size, and one three-trial single run
must write exactly the files they wrote when these digests were recorded.

A digest is SHA-256 over each output file's name and bytes, in name order.
The outputs depend on numpy's random streams and float kernels, so the gate
only applies under the numpy version the digests were recorded with.  To record new digests after an intended output
change, print `_digest(out)` for each preset and say why in CHANGES.md.
"""

import hashlib

import numpy
import pytest

from laglearn import cli, experiments

RECORDED_WITH = {"numpy": "2.4.6"}

DIGESTS = {
    "fig1": "78cc6c7246eb0bee930ccd75a4f6e3259dde28fa35ce4c3eef8dd76ca977dce1",
    "fig2": "e94469c023d91aceec5e13001447139cd5007f49ce8f4007c8688c9f43573eeb",
    "fig3": "931deb7b58b7f624517e16857b06f6f3c1e45357a74546941e100632d4e5a92c",
    "fig4": "05bf57a7451d2881c010c060e2b917e0037dcc7d0ee0b113c76589579e0136d0",
    "thm1": "10ba3558b81b69fdf50930fada7cee5690fca73354a10233bc81427f9d6d0522",
    "thm2": "c2e66356aef5dd61b398520b3909a55ffa4a77472a526be3990866a298658b01",
    "thm3": "3a3f344470c86e9266dd75415446b865227ac0c0be5617801d2faa6efd622ee3",
    "thm4": "ba771dc2f94afdb9f7a066c15ec0a9c1fec061ed2f77fd3251a4a48e7156bc5a",
}


def _digest(out) -> str:
    h = hashlib.sha256()
    for path in sorted(out.iterdir()):
        h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def test_digests_cover_every_preset():
    assert sorted(DIGESTS) == experiments.preset_names()


def _check_versions():
    installed = {"numpy": numpy.__version__}
    if installed != RECORDED_WITH:
        pytest.skip(f"digests recorded with {RECORDED_WITH}, running with {installed}")


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_preset_outputs_match_recorded_digest(name, tmp_path):
    _check_versions()
    out = tmp_path / name
    assert cli.main(["run", name, "--trials", "2", "--out-dir", str(out)]) == 0
    assert _digest(out) == DIGESTS[name]


# fig3 and fig4, the two baseline-compare presets, at their full 100 trials:
# every trial of the sample-mean baseline (1-d in fig3, 2-d in fig4) and one
# comparator solve shared by both arms.
FULL_SIZE_DIGESTS = {
    "fig3": "1d7f42dc300e8171f9de85c07d569944e7de9f4f24194a09c8b58c1d85d55d2a",
    "fig4": "07de1e429e8477df384e0f95897860ba5d6ba619c5f1845b8ac86f648ceaba96",
}


@pytest.mark.parametrize("name", sorted(FULL_SIZE_DIGESTS))
def test_full_size_preset_outputs_match_recorded_digest(name, tmp_path):
    _check_versions()
    out = tmp_path / name
    assert cli.main(["run", name, "--out-dir", str(out)]) == 0
    assert _digest(out) == FULL_SIZE_DIGESTS[name]


# A single run of three trials with random delays, on a csv stream whose
# first ten hidden contexts sit at the learner's starting point: the norm
# loss's zero subgradient flags a different number of rounds in each trial.
# trajectory.csv, replay_gap and flags describe the first trial only.
SINGLE_RUN = """
[experiment]
kind = single-run
horizon = 24
trials = 3
seed = 5

[learner]
kind = adversarial
eta = 0.3
lam = 0.0

[stream]
kind = csv
path = contexts.csv
d1 = 1
d2 = 1
radius = 10.0

[loss]
family = norm

[delays]
kind = adversarial
d_max = 8
"""

SINGLE_RUN_DIGEST = "a8e21f2177c2399ddd5e4303f5734733763fe7f234f6607985e9b86cdbcd9c73"


def test_single_run_outputs_match_recorded_digest(tmp_path, monkeypatch):
    _check_versions()
    monkeypatch.chdir(tmp_path)  # the manifest records the relative csv path
    rows = [(1.0 + 0.1 * i, 0.0) for i in range(10)]
    rows += [(0.5 * i, 1.0 + 0.25 * (i % 3)) for i in range(14)]
    (tmp_path / "contexts.csv").write_text("".join(f"{k!r},{h!r}\n" for k, h in rows),
                                           encoding="utf-8")
    (tmp_path / "single.ini").write_text(SINGLE_RUN, encoding="utf-8")
    assert cli.main(["run", "single.ini", "--out-dir", "out"]) == 0
    assert _digest(tmp_path / "out") == SINGLE_RUN_DIGEST
