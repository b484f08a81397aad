"""The demo scripts run end to end against the package in ``src``."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _run_script(name, *args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )


def _script(name, *args):
    done = _run_script(name, *args)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_noise_robustness_means():
    out = _script("noise_robustness.py", "--points", "1", "--pmax", "0.1")
    p, corrected, uncorrected = out.splitlines()[-1].split()
    assert float(p) == 0.1
    assert corrected == "1.000000000"
    # (1-p)^3 survival plus the double phase flips that cancel
    expected = 0.9**3 + 3 * (0.1 / 3) ** 2 * 0.9
    assert float(uncorrected) == pytest.approx(expected, abs=1e-9)


def test_protocol_tour_walks_every_stage():
    out = _script("protocol_tour.py")
    for heading in (
        "== two-pair emission ==",
        "== probe discrimination ==",
        "== fourfold coincidence branches ==",
        "== corrected channel output ==",
    ):
        assert heading in out
    assert "total coincidence probability 0.104167" in out


@pytest.mark.parametrize(
    "args, message",
    [
        (("--theta", "nan"), "theta must be finite"),
        (("--alpha", "-1"), "alpha must be finite and nonnegative"),
        (("--alpha", "1e200"), "alpha squared must be finite"),
        (("--noise", "Q@1"), "error kind must be X, Z or Y"),
    ],
    ids=["nan-theta", "negative-alpha", "alpha-square-overflows", "bad-noise"],
)
def test_protocol_tour_rejects_bad_flags(args, message):
    # checked once, before any stage prints
    done = _run_script("protocol_tour.py", *args)
    assert done.returncode == 2
    assert done.stdout == ""
    assert len(done.stderr.splitlines()) == 1 and done.stderr.startswith("error: ")
    assert message in done.stderr
