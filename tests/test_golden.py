"""Golden artifact digests of the smoke scenario, and of a variant whose
switches are under placement pressure.

Criterion 11 only shows that two runs agree with each other; this test pins
what they agree on, so a refactor or a speed-up that changes any artifact
fails here.  A change that alters behaviour on purpose updates the digests
and says why in CHANGES.md.
"""

import hashlib
from pathlib import Path

import pytest

from ts3ra.cli import main
from ts3ra.scenario_io import apply_override, parse_scenario, serialize_scenario

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


# The smoke scenario with switches that hold only four flows each, at seed 42:
# 22 grants find no switch with room, the rebalancer moves 8 flows, and
# grants and refusals follow the first migration, so placement reads a
# ``sw_of`` that migrations have changed.
PRESSURE = {
    "network.switch_service_capacity": "200000",
    "network.switch_transmission_rate": "200000",
}
PRESSURE_SEED = 42
PRESSURE_SHA256 = {
    "metrics.csv": "8e4afb0faf7dbc5050ddeda74ecb6beb3ef4b0d21f85e0cad9ed998cedc9c85d",
    "migrations.csv": "04548ac148043e268709ebddb9a0d419073bb9e479416a6de71d9e2c39d3db38",
    "trace.csv": "d5070d4535231d5d303d11219c52048a9dbf91475bd8f28bc28f3914df360d6f",
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


@pytest.fixture(scope="module")
def pressure_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("pressure")
    scenario = parse_scenario(SMOKE.read_text())
    for key, value in PRESSURE.items():
        apply_override(scenario, key, value)
    cfg = out / "pressure.cfg"
    cfg.write_text(serialize_scenario(scenario))
    argv = ["run", "--scenario", str(cfg), "--seed", str(PRESSURE_SEED), "--trace"]
    assert main(argv + ["--out", str(out / "run")]) == 0
    return out / "run"


def test_pressure_run_places_after_migrations(pressure_run):
    migrations = (pressure_run / "migrations.csv").read_text().splitlines()[1:]
    first_us = min(int(row.split(",")[0].replace(".", "")) for row in migrations)
    allocations = [
        row.split(",")
        for row in (pressure_run / "trace.csv").read_text().splitlines()[1:]
        if ",allocate," in row
    ]
    later = [cells[5] for cells in allocations if int(cells[0].replace(".", "")) > first_us]
    assert len(migrations) == 8 and first_us == 6_000_000
    assert [cells[5] for cells in allocations].count("unroutable") == 22
    assert (later.count("granted"), later.count("unroutable")) == (3, 22)


@pytest.mark.parametrize("name", sorted(PRESSURE_SHA256))
def test_pressure_digest(pressure_run, name):
    digest = hashlib.sha256((pressure_run / name).read_bytes()).hexdigest()
    assert digest == PRESSURE_SHA256[name]
