"""Golden artifact digests of the smoke scenario, of a variant whose switches
are under placement pressure, and of two variants that move the scheduler:
one whose queues drain between arrivals, and one whose devices all arrive
at once.

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


def variant_run(tmp_path_factory, name: str, overrides: dict, seed=None) -> Path:
    """The output directory of a traced run of ``smoke.cfg`` with
    ``overrides``, at ``seed`` if one is given."""
    out = tmp_path_factory.mktemp(name)
    scenario = parse_scenario(SMOKE.read_text())
    for key, value in overrides.items():
        apply_override(scenario, key, value)
    cfg = out / f"{name}.cfg"
    cfg.write_text(serialize_scenario(scenario))
    argv = ["run", "--scenario", str(cfg), "--trace", "--out", str(out / "run")]
    if seed is not None:
        argv += ["--seed", str(seed)]
    assert main(argv) == 0
    return out / "run"


@pytest.fixture(scope="module")
def pressure_run(tmp_path_factory):
    return variant_run(tmp_path_factory, "pressure", PRESSURE, PRESSURE_SEED)


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


# Requests of 2 or 3 slots: the queues drain to idle between arrivals and the
# scheduler restarts 35 times; the last device is allocated at 5.7882 s of 30.
DRAIN = {"flows.demand_embb": "3", "flows.demand_urllc": "2", "flows.demand_mmtc": "2"}
DRAIN_SHA256 = {
    "metrics.csv": "8b0d3a18b580734c11d684a1c61ff58d5ff04b3fb7c0a490b608970a876487ef",
    "detection.csv": "738c9d06934cc30753140ae73dacd245b03d532a9e0d1c7a9ac47e6d5cff746b",
    "migrations.csv": "b22947a1caa9fcc1f2e6b051a26f91bc5a4832b83ca80799ca7ea5b4cf640399",
    "trace.csv": "c0219b8296d91a3d4073dd33b419be4a778114114a41efaf7394d6c39d552414",
}
# Every device arrives at time 0, so all 40 AUTHs share one time.
BURST = {"flows.arrival_window": "0"}
BURST_SHA256 = {
    "metrics.csv": "c255282bcb2c0c1a90dfe65ad27482a598552062536e6ad2bad19a849e499cd1",
    "detection.csv": "ed951842356cc60ac222d8ab5979e981682e837e98daf881ffc5d3e79de15e6d",
    "migrations.csv": "ec9c9175772a37c22dd89fba09eb4398cbbb139e26574c7bb196cb45e36bcb8e",
    "trace.csv": "7912952aad62d694a4611282d2020142590c7fc078132daf28ab56247c1e63e2",
}
# No ``flows`` key feeds training or the allocator's memory.
TRAINED = ("loss_curve.csv", "model.bin", "hopfield.bin")


@pytest.fixture(scope="module")
def drain_run(tmp_path_factory):
    return variant_run(tmp_path_factory, "drain", DRAIN)


@pytest.fixture(scope="module")
def burst_run(tmp_path_factory):
    return variant_run(tmp_path_factory, "burst", BURST)


def test_drain_run_allocates_its_last_device_early(drain_run):
    allocations = [
        row.split(",")[0]
        for row in (drain_run / "trace.csv").read_text().splitlines()[1:]
        if ",allocate," in row
    ]
    assert max(allocations, key=float) == "5.788200"


@pytest.mark.parametrize("name", sorted(DRAIN_SHA256) + list(TRAINED))
def test_drain_digest(drain_run, name):
    digest = hashlib.sha256((drain_run / name).read_bytes()).hexdigest()
    assert digest == {**GOLDEN_SHA256, **DRAIN_SHA256}[name]


@pytest.mark.parametrize("name", sorted(BURST_SHA256) + list(TRAINED))
def test_burst_digest(burst_run, name):
    digest = hashlib.sha256((burst_run / name).read_bytes()).hexdigest()
    assert digest == {**GOLDEN_SHA256, **BURST_SHA256}[name]
