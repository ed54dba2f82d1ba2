"""Every demo, and the README's library quick start, runs to completion
and prints exactly what it printed when these digests were recorded.

A digest is the SHA-256 of a demo's standard output.  Each demo runs in a
fresh interpreter from an empty working directory (demo 03 writes its
results under `results/` there), with every RuntimeWarning an error.
Like the preset gate, the digests only apply under the numpy version they
were recorded with.  To record a new digest after an
intended change of what a demo prints, run
`python3 demos/<name>.py | sha256sum` (for the quick start, the block
`_quick_start()` returns) and say why in CHANGES.md.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy
import pytest

ROOT = Path(__file__).resolve().parent.parent

RECORDED_WITH = {"numpy": "2.4.6"}

DIGESTS = {
    "01_projections_and_mirror_maps.py":
        "989b343fa7e32e8b7a89d3331ac854d743d06f11946e5785d1298970bcfda817",
    "02_delayed_gradient_descent.py":
        "c44eec8cde77728f9926f77bf7086c198afdd8e9ed1f75bbedbefd37fef77092",
    "03_delay_and_correlation_sweeps.py":
        "62356803e0225cd28ba80cfd599c599cc60e11be3700679362a35971a2d540ac",
    "04_arbitrary_delays.py":
        "a4c4087059923d64212e3f6feb3159a1422b80c380e6ab4206e94a86c07d977b",
    "05_pentagon_vs_sample_mean.py":
        "889d5fd1881a08dce96357914cfd00b5419b353fff607182052903a4e3cad20e",
    "06_mirror_descent_on_the_simplex.py":
        "81ba51cc933462ff92282a8d5ee359b55225a44d1f200c8052c5a13250a6ac2a",
}

QUICK_START_DIGEST = "e649b01b81cbd20b19f8c701c98eb75495a734c7f6abe1a0e280ba16c6811953"


def _run(args: list[str], cwd: Path) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    # A numpy RuntimeWarning fails the run, as pytest's filter makes it fail a test.
    return subprocess.run([sys.executable, "-W", "error::RuntimeWarning", *args], cwd=cwd,
                          env=env, capture_output=True, timeout=120)


def _quick_start() -> str:
    """The first python block under the README's "Library quick start" heading."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("## Library quick start", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def _check_versions():
    installed = {"numpy": numpy.__version__}
    if installed != RECORDED_WITH:
        pytest.skip(f"digests recorded with {RECORDED_WITH}, running with {installed}")


def test_digests_cover_every_demo():
    assert sorted(DIGESTS) == sorted(p.name for p in (ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_demo_prints_recorded_output(name, tmp_path):
    _check_versions()
    done = _run([str(ROOT / "demos" / name)], tmp_path)
    assert done.returncode == 0, done.stderr.decode()
    assert hashlib.sha256(done.stdout).hexdigest() == DIGESTS[name]


def test_readme_quick_start_prints_recorded_output(tmp_path):
    _check_versions()
    done = _run(["-c", _quick_start()], tmp_path)
    assert done.returncode == 0, done.stderr.decode()
    assert hashlib.sha256(done.stdout).hexdigest() == QUICK_START_DIGEST
