"""Golden artifact digests of the smoke scenario.

Criterion 11 only shows that two runs agree with each other; this test pins
what they agree on, so a refactor or a speed-up that changes any artifact
fails here.  A change that alters behaviour on purpose updates the digests
and says why in CHANGES.md.
"""

import hashlib
from pathlib import Path

import pytest

from ts3ra.cli import main

SMOKE = Path(__file__).resolve().parent.parent / "scenarios" / "smoke.cfg"

GOLDEN_SHA256 = {
    "metrics.csv": "9c20bdadc59e724368e0239c1cfb33edbb69b384fbf60f32550bfce4ee2a553b",
    "detection.csv": "5c9ae0f1166c66255537aa8aa44dc2118986a0e1e449e96606cc5c4dc0bd631a",
    "migrations.csv": "2de4b880879607c9dd2081dbdf4e906614ca451982979c80f1a6891d341517b6",
    "loss_curve.csv": "d7df3e8881f7d292825bd50dc3076af945f21ab8710cf1c44a1f32f7d0290b2b",
    "trace.csv": "bf73f90263501bb13c16180c38eb944fea1b4eab6813c9b8e43f6500d6beecd2",
    "model.bin": "e93ccfb44043fb03520a235c58fd9c0a38a899ab344a285612a0e9f00fb364aa",
    "hopfield.bin": "2614a75b8eefe3acc0d98c2225dcfb06a0cfc077a065c4d35874f37ab6bb8251",
}


@pytest.fixture(scope="module")
def smoke_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("smoke")
    assert main(["run", "--scenario", str(SMOKE), "--out", str(out), "--trace"]) == 0
    return out


def test_artifact_set(smoke_run):
    assert sorted(p.name for p in smoke_run.iterdir()) == sorted(GOLDEN_SHA256)


@pytest.mark.parametrize("name", sorted(GOLDEN_SHA256))
def test_golden_digest(smoke_run, name):
    digest = hashlib.sha256((smoke_run / name).read_bytes()).hexdigest()
    assert digest == GOLDEN_SHA256[name]
