"""Byte-identity gate: every shipped preset, run at two trials, must write
exactly the files it wrote when these digests were recorded.

A digest is SHA-256 over each output file's name and bytes, in name order.
The outputs depend on numpy's random streams and float kernels (and scipy's
for the scaling fits), so the gate only applies under the versions the
digests were recorded with.  To record new digests after an intended output
change, print `_digest(out)` for each preset and say why in CHANGES.md.
"""

import hashlib

import numpy
import pytest
import scipy

from laglearn import cli, experiments

RECORDED_WITH = {"numpy": "2.4.6", "scipy": "1.17.1"}

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


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_preset_outputs_match_recorded_digest(name, tmp_path):
    installed = {"numpy": numpy.__version__, "scipy": scipy.__version__}
    if installed != RECORDED_WITH:
        pytest.skip(f"digests recorded with {RECORDED_WITH}, running with {installed}")
    out = tmp_path / name
    assert cli.main(["run", name, "--trials", "2", "--out-dir", str(out)]) == 0
    assert _digest(out) == DIGESTS[name]
