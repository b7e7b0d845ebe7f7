"""Command-line entry point: run scenarios, summarize metrics, train models.

Exit codes: 0 success, 1 user/scenario error, 2 internal invariant breach.
``TS3RA_LOG`` (error|info|debug) controls log verbosity.
"""

from __future__ import annotations

import argparse
import contextlib
import copy
import logging
import math
import os
import sys
import traceback
from pathlib import Path

import numpy as np

from .domain import ServiceType
from .engine import Engine, InvariantViolation
from .metrics import METRICS_COLUMNS
from .scenario import Scenario, ScenarioError
from .scenario_io import apply_override, parse_scenario
from .serialization import save_hopfield, save_slicenet

log = logging.getLogger("ts3ra")

EXIT_OK = 0
EXIT_USER_ERROR = 1
EXIT_INTERNAL = 2


def _configure_logging() -> None:
    level_name = os.environ.get("TS3RA_LOG", "error").lower()
    level = {"error": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}.get(
        level_name, logging.ERROR
    )
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")


def _execute_run(scenario: Scenario, out_dir: str, label: str, trace: bool) -> str:
    """Simulate one scenario and write its artifacts into the existing
    directory ``out_dir``; returns the metrics path."""
    out = Path(out_dir)
    suffix = f"_{label}" if label else ""
    with contextlib.ExitStack() as files:

        def sink(name: str):
            return files.enter_context(open(out / f"{name}{suffix}.csv", "w")).write

        engine = Engine(
            scenario,
            trace_sink=sink("trace") if trace else None,
            detection_sink=sink("detection"),
            migration_sink=sink("migrations"),
        )
        report = engine.run()

    metrics_path = out / f"metrics{suffix}.csv"
    metrics_path.write_text("\n".join(report.to_csv_rows()) + "\n")
    save_slicenet(engine.model, out / f"model{suffix}.bin")
    save_hopfield(
        engine.allocator.we, engine.allocator.thresholds, out / f"hopfield{suffix}.bin"
    )
    if engine.loss_curve is not None:
        (out / f"loss_curve{suffix}.csv").write_text(
            "\n".join(engine.loss_curve.rows()) + "\n"
        )
    log.info("run %s finished: %s", label or "default", metrics_path)
    return str(metrics_path)


def _run_job(args: tuple) -> str:
    scenario, out_dir, label, trace = args
    return _execute_run(scenario, out_dir, label, trace)


def _cmd_run(args: argparse.Namespace) -> int:
    if args.jobs < 1:
        print(f"error: --jobs must be >= 1 (got {args.jobs})", file=sys.stderr)
        return EXIT_USER_ERROR
    if args.scenario:
        path = Path(args.scenario)
        if not path.exists():
            print(f"error: scenario file not found: {path}", file=sys.stderr)
            return EXIT_USER_ERROR
        scenario = parse_scenario(path.read_text())
    else:
        scenario = Scenario()
    if args.seed is not None:
        scenario.seed = args.seed
    scenario.validate()

    jobs: list[tuple] = []
    if args.sweep:
        if "=" not in args.sweep:
            raise ScenarioError("--sweep expects key=v1,v2,...")
        key, joined = args.sweep.split("=", 1)
        values = [v for v in joined.split(",") if v]
        if not values:
            raise ScenarioError("--sweep needs at least one value")
        seen: set[str] = set()
        for value in values:
            # Each value labels its run's files; a repeat would overwrite them.
            if value.strip() in seen:
                raise ScenarioError(f"--sweep repeats the value {value.strip()!r}")
            seen.add(value.strip())
            variant = copy.deepcopy(scenario)
            apply_override(variant, key.strip(), value.strip())
            label = f"{key.strip().replace('.', '_')}_{value.strip()}"
            jobs.append((variant, args.out, label, args.trace))
    else:
        jobs.append((scenario, args.out, "", args.trace))
    try:
        Path(args.out).mkdir(parents=True, exist_ok=True)
    except (FileExistsError, NotADirectoryError):
        print(f"error: --out {args.out} is not a directory", file=sys.stderr)
        return EXIT_USER_ERROR

    if len(jobs) > 1 and args.jobs > 1:
        # Imported here: only parallel sweeps need it, and it loads
        # multiprocessing.
        from concurrent.futures import ProcessPoolExecutor

        # A fork-started pool starts all its workers at the first submit.
        with ProcessPoolExecutor(max_workers=min(args.jobs, len(jobs))) as pool:
            for path in pool.map(_run_job, jobs):
                print(path)
    else:
        for job in jobs:
            print(_run_job(job))
    return EXIT_OK


def _metrics_rows(path: str) -> list[tuple[str, list[float]]]:
    """The data rows of a metrics file, each a slice id and its numeric cells.

    Raises ``ValueError`` naming the file, the line and the cell when the
    header is not ``METRICS_COLUMNS`` or a row does not fit it.
    """
    lines = Path(path).read_text().strip().splitlines()
    if not lines:
        raise ValueError(f"empty metrics file {path}")
    header = lines[0].split(",")
    for k in range(max(len(header), len(METRICS_COLUMNS))):
        got = header[k] if k < len(header) else None
        want = METRICS_COLUMNS[k] if k < len(METRICS_COLUMNS) else None
        if got != want:
            raise ValueError(
                f"{path} line 1: header cell {k + 1} is {got!r}, expected {want!r}"
            )
    rows = []
    for line_no, line in enumerate(lines[1:], 2):
        cells = line.split(",")
        n = len(METRICS_COLUMNS)
        if len(cells) < n:
            raise ValueError(
                f"{path} line {line_no}: cell {METRICS_COLUMNS[len(cells)]} is missing"
            )
        if len(cells) > n:
            raise ValueError(
                f"{path} line {line_no}: cell {n + 1} is {cells[n]!r}, past the {n} columns"
            )
        values = []
        for column, cell in zip(METRICS_COLUMNS[1:], cells[1:]):
            try:
                values.append(float(cell))
            except ValueError:
                raise ValueError(
                    f"{path} line {line_no}: cell {column} is {cell!r}, not a number"
                ) from None
        rows.append((cells[0], values))
    return rows


def _cmd_summarize(args: argparse.Namespace) -> int:
    """Per-slice mean and standard deviation across metric files."""
    rows_by_slice: dict[str, list[list[float]]] = {}
    for path in args.files:
        try:
            rows = _metrics_rows(path)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_USER_ERROR
        for slice_id, values in rows:
            rows_by_slice.setdefault(slice_id, []).append(values)
    numeric_cols = METRICS_COLUMNS[1:]
    print("slice,stat," + ",".join(numeric_cols))
    order = [st.slice_id for st in ServiceType] + ["TOTAL"]
    for slice_id in order:
        if slice_id not in rows_by_slice:
            continue
        arr = np.asarray(rows_by_slice[slice_id])
        means = arr.mean(axis=0)
        stds = arr.std(axis=0)
        print(f"{slice_id},mean," + ",".join(f"{v:.9g}" for v in means))
        print(f"{slice_id},std," + ",".join(f"{v:.9g}" for v in stds))
    return EXIT_OK


def _cmd_train_slicenet(args: argparse.Namespace) -> int:
    from . import slicenet as sn

    lo, hi = sn.LEARNING_RATE_RANGE
    for flag, value, ok, rule in (
        ("--epochs", args.epochs, 1 <= args.epochs <= sn.MAX_EPOCHS,
         f"within [1, {sn.MAX_EPOCHS}]"),
        ("--lr", args.lr, lo <= args.lr <= hi, f"within [{lo}, {hi}]"),
        ("--d-model", args.d_model, 1 <= args.d_model <= sn.MAX_D_MODEL,
         f"within [1, {sn.MAX_D_MODEL}]"),
        ("--seed", args.seed, args.seed >= 0, ">= 0"),
    ):
        if not ok:
            print(f"error: {flag} must be {rule} (got {value!r})", file=sys.stderr)
            return EXIT_USER_ERROR
    data_path = Path(args.data)
    if not data_path.exists():
        print(f"error: data file not found: {data_path}", file=sys.stderr)
        return EXIT_USER_ERROR
    rows = []
    for line_no, line in enumerate(data_path.read_text().splitlines(), 1):
        if not line.strip():
            continue
        cells = line.split(",")
        row = []
        for cell in cells:
            try:
                row.append(float(cell))
            except ValueError:
                break
        if len(row) < len(cells):
            if line_no == 1:
                continue  # header row
            print(
                f"error: {data_path} line {line_no}: cell {cells[len(row)].strip()!r} "
                "is not a number",
                file=sys.stderr,
            )
            return EXIT_USER_ERROR
        bad = next((cell for cell, v in zip(cells[:-1], row) if not math.isfinite(v)), None)
        if bad is not None:
            print(
                f"error: {data_path} line {line_no}: cell {bad.strip()!r} is not finite",
                file=sys.stderr,
            )
            return EXIT_USER_ERROR
        if len(row) < 2:
            print(
                f"error: {data_path} line {line_no}: a label and no feature column; "
                "at least one feature column is needed",
                file=sys.stderr,
            )
            return EXIT_USER_ERROR
        if rows and len(row) != len(rows[0]):
            print(
                f"error: {data_path} line {line_no}: {len(row)} columns, "
                f"but the first data row has {len(rows[0])}",
                file=sys.stderr,
            )
            return EXIT_USER_ERROR
        rows.append(row)
        label = row[-1]
        if not (label.is_integer() and 0 <= label < sn.N_CLASSES):
            print(
                f"error: {data_path} line {line_no}: label {cells[-1].strip()!r} "
                f"is not an integer in [0, {sn.N_CLASSES})",
                file=sys.stderr,
            )
            return EXIT_USER_ERROR
    if not rows:
        print("error: no numeric rows in data file", file=sys.stderr)
        return EXIT_USER_ERROR
    arr = np.asarray(rows)
    features, labels = arr[:, :-1], arr[:, -1].astype(int)
    model = sn.SliceNetModel(
        n_features=features.shape[1],
        d_model=args.d_model,
        rng=np.random.default_rng(args.seed),
    )
    try:
        curve = sn.train(
            model,
            features,
            labels,
            epochs=args.epochs,
            learning_rate=args.lr,
            rng=np.random.default_rng(args.seed + 1),
        )
    except sn.TrainingDivergedError as exc:
        print(f"error: training on {data_path} diverged: {exc}", file=sys.stderr)
        return EXIT_USER_ERROR
    save_slicenet(model, args.out)
    if args.curve:
        Path(args.curve).write_text("\n".join(curve.rows()) + "\n")
    print(
        f"{args.out} ({len(curve.epochs)} of at most {args.epochs} epochs, "
        f"final accuracy {curve.accuracies[-1]:.4f})"
    )
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ts3ra",
        description="Simulate a secured, sliced SDN/NFV 5G access network.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="simulate a scenario")
    p_run.add_argument("--scenario", help="scenario file (defaults when omitted)")
    p_run.add_argument("--seed", type=int, help="override the scenario seed")
    p_run.add_argument("--out", default="results", help="output directory")
    p_run.add_argument("--trace", action="store_true", help="write the event trace CSV")
    p_run.add_argument("--sweep", help="key=v1,v2,... run once per value")
    p_run.add_argument("--jobs", type=int, default=1, help="parallel runs for sweeps")
    p_run.set_defaults(func=_cmd_run)

    p_sum = sub.add_parser("summarize", help="aggregate metric files")
    p_sum.add_argument("files", nargs="+", help="metrics CSV files")
    p_sum.set_defaults(func=_cmd_summarize)

    p_train = sub.add_parser("train-slicenet", help="train a slice-selection model")
    p_train.add_argument("--data", required=True, help="CSV of feature columns + label")
    p_train.add_argument("--epochs", type=int, default=10)
    p_train.add_argument("--lr", type=float, default=0.01)
    p_train.add_argument("--out", required=True, help="model output path")
    p_train.add_argument("--curve", help="optional loss-curve CSV path")
    p_train.add_argument("--seed", type=int, default=0)
    p_train.add_argument("--d-model", type=int, default=8)
    p_train.set_defaults(func=_cmd_train_slicenet)
    return parser


def main(argv=None) -> int:
    _configure_logging()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USER_ERROR
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USER_ERROR
    except InvariantViolation as exc:
        print(f"internal invariant violated: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except Exception:
        traceback.print_exc()
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
