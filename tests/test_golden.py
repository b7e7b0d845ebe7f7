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
    "metrics.csv": "3ec2dd85e94da1e4c6d59389ecfe756d7a7023f2d96e1ed3cd23130dbac81454",
    "detection.csv": "4d81020446ae8d092bee51a1571ff0933f400b41ef27e6b21345da1a791656fa",
    "migrations.csv": "55a82a3d4384f52860d4c6951b79933eff3c5c2ec854d64de519265e87cda8c7",
    "loss_curve.csv": "d7df3e8881f7d292825bd50dc3076af945f21ab8710cf1c44a1f32f7d0290b2b",
    "trace.csv": "fea509978f29dacf72969f1a93a92052bd942e404e7c9625fd19183c55cd863a",
    "model.bin": "45df27d2efdea4c83f2f6107e6c627931f5923b6b7ea6826dcce55532a17b2d7",
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
