"""ts3ra host-time benchmark.

Run from the root of a checkout::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each workload is a scenario generated from ``scenarios/default.cfg`` with the
seed set to ``N``.  Every measurement is a fresh ``ts3ra run`` child process
(``perfbench/child.py``), one at a time, single-threaded, with its own empty
output directory.  Every child's artifacts are checked (exit code, metrics
header, packet conservation in the TOTAL row, identical digests across the
children of one seed) before its numbers count.

``--trace 0`` repeats the child for about ``S`` seconds (at least
``MIN_CHILDREN`` times) and reports the medians of the end-to-end metrics:
``run_wall_s`` (spawn to exit), ``setup_s`` (``import ts3ra.cli`` plus
``Engine(scenario)``, timed inside the child) and ``peak_rss_mb``
(``ru_maxrss`` from ``os.wait4``).  Children that fail the checks are counted
in ``failed`` (the failed-runs count; it is not a metric because it is
normally 0).

The two times are reported at a fixed nominal host speed.  On a shared 2-core
VM the same child was measured running up to 1.9 times slower for minutes at
a time, so raw medians of two sets of runs can differ by more than any useful
bound.  Before the first child and after every child the benchmark runs
``reference.py``, which times a few repetitions of fixed work of the same
kinds as a child's, and multiplies the median child time by
``REFERENCE_NOMINAL_S`` over the median repetition time of the same run.  A
change to ts3ra moves the scaled times in proportion; the raw times are
printed too.

``--trace 1`` ignores ``S``: it runs one untraced and one traced child of the
workload, then the ``ADMISSION_BURST`` scenario traced at each of
``SCALE_DEVICES`` devices, and reports per-layer numbers from spans recorded
around the plane calls (``<call>.s`` and ``engine.<kind>.self_s`` are self
times: span time minus the time of the spans nested in it).

All times are host time, measured from this process and its children only:
no system-wide tracing and no cache dropping.  The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter, perf_counter_ns

import child

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
BASE_SCENARIO = ROOT / "scenarios" / "default.cfg"
WORK = ROOT / ".perfbench_runs"

MIN_CHILDREN = 3
MAX_CHILDREN = 12
REFERENCE_NOMINAL_S = 0.4  # one repetition of reference.work() at the nominal host speed
RUN_DEADLINE_S = 170.0  # a whole run, children included, ends within this
SCALE_DEVICES = (250, 600, 1000)
DEADLINE = perf_counter() + RUN_DEADLINE_S


@dataclass(frozen=True)
class Workload:
    """Scenario overrides (``section.key`` -> value) on top of ``default.cfg``."""

    overrides: dict = field(default_factory=dict)
    csv_trace: bool = False  # pass ``--trace`` so the run writes trace.csv


# Why each workload exists is recorded in BENCHMARK.json.  A run takes the
# median of at least three children, each followed by a reference
# measurement, and the workloads are sized so that a run ends within about
# 60 s even when the host is slow.  `default` is cut from 300 s to 120 s of
# simulated time, where transmit still has the largest self time.
#
# `flood_trace` has 64 devices, half of them flooding, on 16 switches for
# 60 s.  With 120 devices (a quarter flooding) an overloaded switch often held
# 11 or 12 mixed-rate flows, and offload's exact branch and bound then took
# from 0.7 s to several minutes on one rebalance, depending on the seed: the
# wall time of a run was a matter of the seed, not of the code.  At 64 devices
# the packets generated vary by under 1 % across seeds, the rebalance plane
# still migrates a few hundred flows, and the longest branch and bound on 46
# seeds took 0.11 s.
WORKLOADS = {
    "default": Workload({"network.duration": "120"}),
    "flood_trace": Workload(
        {
            "network.devices": "64",
            "network.duration": "60",
            "network.switches": "16",
            "network.illegitimate_fraction": "0.5",
            "network.forged_fraction": "0",
            "flows.arrival_window": "0.1",
            "flows.flood_start": "40",
            "ddos.window_duration": "0.25",
            "slicenet.train_samples": "240",
            "slicenet.epochs": "3",
        },
        csv_trace=True,
    ),
}

# The control plane: devices arrive within 0.5 s, so PBKDF2 registration and
# authentication dominate, and scheduler slots, slice decisions and
# allocations run past the 20 s horizon.  Every traced run measures it at
# SCALE_DEVICES devices.
ADMISSION_BURST = Workload(
    {
        "network.duration": "20",
        "flows.arrival_window": "0.5",
        "flows.flood_start": "10",
        "slicenet.train_samples": "240",
        "slicenet.epochs": "3",
    }
)

# The columns every metrics.csv starts with.
METRICS_HEADER = (
    "slice,requests,granted,sent,delivered,dropped,blocked,throughput_bps,"
    "latency_s,response_s,ptr,plr,capacity_utilization,bandwidth_bps,"
    "acceptance_ratio,degenerate"
).split(",")
ARTIFACTS = frozenset(
    {"metrics.csv", "detection.csv", "migrations.csv", "model.bin", "hopfield.bin", "loss_curve.csv"}
)

END_TO_END = {"run_wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

KINDS = (
    "arrival", "auth", "schedule_slot", "slice_decide", "allocate", "transmit",
    "deliver", "drop", "window_close", "rebalance", "mobility_tick",
)
PLANE_SPANS = [name for _, _, name in child.PLANE_CALLS]


def _per_layer_units() -> dict[str, str]:
    units = {
        "engine.events": "count",
        "engine.events_per_s": "1/s",
        "engine.run_s": "s",
        "engine.heap_high_water": "count",
        "engine.events_past_horizon": "count",
    }
    for kind in KINDS:
        units[f"engine.{kind}.count"] = "count"
        units[f"engine.{kind}.self_s"] = "s"
    for call in PLANE_SPANS:
        units[f"{call}.calls"] = "count"
        units[f"{call}.s"] = "s"
    units.update(
        {
            "auth.accept_ratio": "ratio",
            "sched.enqueue_rejected": "count",
            "hopfield.pool_rejected": "count",
            "offload.migrations": "count",
            "ddos.attack_windows": "count",
            "ddos.share_of_run": "ratio",
            "import.s": "s",
            "io.trace_rows": "count",
            "io.sink_s": "s",
            "io.save_s": "s",
            "trace.run_wall_s": "s",
            "trace.overhead_s": "s",
        }
    )
    for n in SCALE_DEVICES:
        units[f"scale.d{n}.run_wall_s"] = "s"
        units[f"scale.d{n}.auth_s"] = "s"
        units[f"scale.d{n}.sched_s"] = "s"
        units[f"scale.d{n}.events_past_horizon"] = "count"
    return units


PER_LAYER = _per_layer_units()


class BenchError(Exception):
    """The benchmark cannot run here (missing sources, bad arguments)."""


@dataclass
class ChildResult:
    wall_s: float
    peak_rss_mb: float
    report: dict
    digests: dict
    problems: list

    @property
    def ok(self) -> bool:
        return not self.problems


def fresh_dir(path: Path) -> Path:
    """Create ``path`` as a new empty directory; refuse one that already exists.

    A reused output directory would let a stale artifact (say a trace.csv of
    an earlier traced run) into this run's digests.
    """
    path.mkdir(parents=True, exist_ok=False)
    return path


def check_outputs(out: Path, csv_trace: bool) -> tuple[list[str], dict[str, str]]:
    """Problems found in one run's artifacts, and the sha256 of each artifact."""
    problems: list[str] = []
    present = {p.name for p in out.iterdir()} if out.is_dir() else set()
    required = ARTIFACTS | {"trace.csv"} if csv_trace else ARTIFACTS
    if required - present:
        problems.append(f"artifacts missing: {sorted(required - present)}")
    if "trace.csv" in present and not csv_trace:
        problems.append("trace.csv present in a run without --trace")
    digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in sorted(present)}
    if "metrics.csv" in present:
        lines = (out / "metrics.csv").read_text().splitlines()
        header = lines[0].split(",") if lines else []
        if header[: len(METRICS_HEADER)] != METRICS_HEADER:
            problems.append("metrics.csv: wrong header")
        else:
            col = {name: k for k, name in enumerate(header)}
            total = [line.split(",") for line in lines[1:] if line.startswith("TOTAL,")]
            if len(total) != 1:
                problems.append("metrics.csv: no single TOTAL row")
            else:
                sent, delivered, dropped = (
                    int(total[0][col[name]]) for name in ("sent", "delivered", "dropped")
                )
                if sent != delivered + dropped:
                    problems.append(
                        f"metrics.csv: TOTAL sent {sent} != delivered {delivered} + dropped {dropped}"
                    )
    return problems, digests


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update(
        {
            "PYTHONPATH": str(SRC),
            "PYTHONHASHSEED": "0",
            "OMP_NUM_THREADS": "1",
            "OPENBLAS_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1",
            "TS3RA_LOG": "error",
        }
    )
    return env


def spawn(argv: list[str], log_path: Path):
    """Run ``argv`` from the checkout root; return (wall seconds, exit code, peak RSS MB).

    The child is killed at the run's deadline, and on any exception here
    (including SIGTERM, see ``main``) it is killed and reaped before re-raising.
    """
    with open(log_path, "wb") as log:
        t0 = perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdout=log, stderr=subprocess.STDOUT)
        watchdog = threading.Timer(max(DEADLINE - t0, 1.0), proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        wall = perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage.ru_maxrss / 1024.0


def run_child(scenario: Path, run_dir: Path, csv_trace: bool, spans: bool, argv=None) -> ChildResult:
    """One ``ts3ra run`` child in a fresh directory; its artifacts are checked, then removed."""
    fresh_dir(run_dir)
    out = run_dir / "out"
    report_path = run_dir / "report.json"
    if argv is None:
        argv = [sys.executable, str(BENCH / "child.py"), str(report_path)]
        argv += ["--spans"] if spans else []
        argv += ["--", "--scenario", str(scenario), "--out", str(out)]
        argv += ["--trace"] if csv_trace else []
    wall, code, rss = spawn(argv, run_dir / "child.log")
    report = json.loads(report_path.read_text()) if report_path.exists() else {}
    if code != 0:
        problems, digests = [f"exit code {code}"], {}
    else:
        problems, digests = check_outputs(out, csv_trace)
        if "setup_s" not in report:
            problems.append("child wrote no timing report")
    shutil.rmtree(out, ignore_errors=True)
    return ChildResult(wall, rss, report, digests, problems)


def check_same_digests(results: list[ChildResult]) -> None:
    """Mark children whose digests differ from the first good child's (same seed and commit)."""
    reference = next((r.digests for r in results if r.ok), None)
    for r in results:
        if r.ok and r.digests != reference:
            changed = sorted(k for k in reference.keys() | r.digests.keys() if r.digests.get(k) != reference.get(k))
            r.problems.append(f"digests differ from the first run of this seed: {changed}")


def write_scenario(path: Path, workload: Workload, seed: int, extra: dict | None = None) -> Path:
    from ts3ra.scenario_io import apply_override, parse_scenario, serialize_scenario

    scenario = parse_scenario(BASE_SCENARIO.read_text())
    for key, value in {**workload.overrides, **(extra or {}), "seed": str(seed)}.items():
        apply_override(scenario, key, value)
    path.write_text(serialize_scenario(scenario))
    return path


def measure_end_to_end(
    workload: Workload, seed: int, seconds: float, run_dir: Path
) -> tuple[list[ChildResult], list[float]]:
    """Repeat the workload's child for about ``seconds`` (at least MIN_CHILDREN times).

    Returns the children and the repetition times of the reference runs around them.
    """
    scenario = write_scenario(run_dir / "scenario.cfg", workload, seed)
    results: list[ChildResult] = []
    references: list[float] = []

    def reference() -> None:
        log = run_dir / "reference.log"
        _, code, _ = spawn([sys.executable, str(BENCH / "reference.py")], log)
        if code != 0:
            raise BenchError(f"reference.py exit code {code}")
        references.extend(json.loads(log.read_text()))

    t0 = perf_counter()
    reference()
    while len(results) < MAX_CHILDREN:
        results.append(run_child(scenario, run_dir / f"child{len(results)}", workload.csv_trace, spans=False))
        reference()
        elapsed = perf_counter() - t0
        if len(results) >= MIN_CHILDREN and elapsed * (len(results) + 1) / len(results) > seconds:
            break
    check_same_digests(results)
    return results, references


def end_to_end_metrics(results: list[ChildResult], references: list[float]) -> dict[str, float]:
    good = [r for r in results if r.ok]
    scale = REFERENCE_NOMINAL_S / statistics.median(references)
    return {
        "run_wall_s": statistics.median(r.wall_s for r in good) * scale,
        "setup_s": statistics.median(r.report["setup_s"] for r in good) * scale,
        "peak_rss_mb": statistics.median(r.peak_rss_mb for r in good),
    }


def measure_layers(workload: Workload, seed: int, run_dir: Path) -> tuple[list[ChildResult], dict]:
    """One untraced and one traced child of the workload, then the traced scaling curve."""
    scenario = write_scenario(run_dir / "scenario.cfg", workload, seed)
    plain = run_child(scenario, run_dir / "plain", workload.csv_trace, spans=False)
    traced = run_child(scenario, run_dir / "traced", workload.csv_trace, spans=True)
    check_same_digests([plain, traced])  # tracing must not change what the run writes
    results = [plain, traced]
    layers = dict(traced.report.get("layers", {}))
    layers["trace.run_wall_s"] = traced.wall_s
    layers["trace.overhead_s"] = traced.wall_s - plain.wall_s
    ddos_s = sum(layers.get(f"{c}.s", 0.0) for c in PLANE_SPANS if c.startswith("ddos."))
    layers["ddos.share_of_run"] = ddos_s / traced.wall_s
    for n in SCALE_DEVICES:
        path = write_scenario(
            run_dir / f"scale{n}.cfg", ADMISSION_BURST, seed, {"network.devices": str(n)}
        )
        point = run_child(path, run_dir / f"scale{n}", False, spans=True)
        results.append(point)
        got = point.report.get("layers", {})
        layers[f"scale.d{n}.run_wall_s"] = point.wall_s
        layers[f"scale.d{n}.auth_s"] = got.get("auth.register_device.s", 0.0) + got.get("auth.authenticate.s", 0.0)
        layers[f"scale.d{n}.sched_s"] = got.get("sched.step_slot.s", 0.0) + got.get("sched.enqueue.s", 0.0)
        layers[f"scale.d{n}.events_past_horizon"] = got.get("engine.events_past_horizon", 0)
    return results, layers


def result_line(results: list[ChildResult], metrics: dict) -> dict:
    failed = sum(not r.ok for r in results)
    return {"correct": failed == 0, "attempted": len(results), "failed": failed, "metrics": metrics}


def environment() -> dict:
    import numpy
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "limit": "own-process measurement only: no system-wide tracing, no cache dropping",
    }


def preflight(args: argparse.Namespace) -> None:
    for needed in (SRC / "ts3ra" / "cli.py", BASE_SCENARIO):
        if not needed.is_file():
            raise BenchError(f"missing {needed.relative_to(ROOT)}: run from a full ts3ra checkout")
    if args.seed < 0:
        raise BenchError("--seed must be >= 0")
    if args.seconds <= 0:
        raise BenchError("--seconds must be > 0")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))  # unwind, killing any child
    try:
        preflight(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import ts3ra.cli  # noqa: F401  (compiles the sources before anything is timed)

    workload = WORKLOADS[args.workload]
    WORK.mkdir(exist_ok=True)
    run_dir = fresh_dir(WORK / f"{args.workload}-{args.seed}-{os.getpid()}-{perf_counter_ns()}")
    try:
        if args.trace:
            results, layers = measure_layers(workload, args.seed, run_dir)
            metrics = {name: {"value": layers.get(name, 0), "unit": unit} for name, unit in PER_LAYER.items()}
        else:
            try:
                results, references = measure_end_to_end(workload, args.seed, args.seconds, run_dir)
            except BenchError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 1
            metrics = None
        for k, r in enumerate(results):
            status = "ok" if r.ok else "FAILED: " + "; ".join(r.problems)
            print(f"child {k}: raw wall {r.wall_s:.3f} s, raw setup {r.report.get('setup_s', float('nan')):.3f} s, "
                  f"rss {r.peak_rss_mb:.1f} MB, {status}")
        if not any(r.ok for r in results):
            print("error: every child failed", file=sys.stderr)
            return 1
        if metrics is None:
            print("reference: " + " ".join(f"{w:.4f}" for w in references) + " s")
            metrics = {name: {"value": value, "unit": END_TO_END[name]}
                       for name, value in end_to_end_metrics(results, references).items()}
        print("digests: " + json.dumps(next(r.digests for r in results if r.ok), sort_keys=True))
        print("environment: " + json.dumps(environment(), sort_keys=True))
        for name, m in metrics.items():
            print(f"{args.workload} {name} = {m['value']} {m['unit']}")
        print(json.dumps(result_line(results, metrics)))
        return 0
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
