"""One benchmark child: ``ts3ra run`` with timing hooks added from outside.

Usage::

    PYTHONPATH=src python3 perfbench/child.py REPORT.json [--spans] -- RUN_ARGS...

``RUN_ARGS`` are the arguments of ``ts3ra run`` (``--scenario``, ``--out``,
``--trace``).  The child times ``import ts3ra.cli`` and the construction of
``Engine``; these two make up the set-up time.  With ``--spans`` it also
wraps the plane functions the engine calls, drives the event heap itself
through the public ``Engine.step_event`` and writes per-layer numbers.
Nothing inside ``ts3ra`` is modified.  The report is a JSON file; the exit
code is that of ``ts3ra run``.
"""

from __future__ import annotations

import heapq
import json
import sys
from time import perf_counter

# (owner module, attribute, span name) for every plane call that is traced.
PLANE_CALLS = [
    ("auth", "register_device", "auth.register_device"),
    ("auth", "authenticate", "auth.authenticate"),
    ("slicenet", "train", "slicenet.train"),
    ("slicenet", "select_slice", "slicenet.select_slice"),
    ("sched", "step_slot", "sched.step_slot"),
    ("sched", "enqueue", "sched.enqueue"),
    ("offload", "edge_weight", "offload.edge_weight"),
    ("offload", "rebalance", "offload.rebalance"),
    ("ddos", "window_entropies", "ddos.window_entropies"),
    ("ddos", "classify_window", "ddos.classify_window"),
    ("ddos", "predict_bandwidth", "ddos.predict_bandwidth"),
    ("hopfield.HopfieldAllocator", "allocate_resources", "hopfield.allocate_resources"),
]


def install_spans(log: SpanLog) -> None:
    import importlib

    for owner, attr, name in PLANE_CALLS:
        module, _, cls = owner.partition(".")
        target = importlib.import_module(f"ts3ra.{module}")
        log.patch(getattr(target, cls) if cls else target, attr, name)


def layer_metrics(log: SpanLog, engine, loop: dict, import_s: float, save_s: float) -> dict:
    """Per-layer numbers of one traced run, keyed by benchmark metric name."""
    from ts3ra.engine import KIND_NAMES

    spans = log.summary()

    def calls(name: str) -> int:
        return spans.get(name, (0, 0.0))[0]

    def self_s(name: str) -> float:
        return spans.get(name, (0, 0.0))[1]

    out = {
        "engine.events": loop["events"],
        "engine.events_per_s": loop["events"] / loop["run_s"] if loop["run_s"] else 0.0,
        "engine.run_s": loop["run_s"],
        "engine.heap_high_water": loop["heap_high_water"],
        "engine.events_past_horizon": loop["past_horizon"],
    }
    for kind in KIND_NAMES.values():
        out[f"engine.{kind}.count"] = calls(f"engine.{kind}")
        out[f"engine.{kind}.self_s"] = self_s(f"engine.{kind}")
    for _, _, name in PLANE_CALLS:
        out[f"{name}.calls"] = calls(name)
        out[f"{name}.s"] = self_s(name)
    decided = engine.auth_accepted + engine.auth_rejected
    out["auth.accept_ratio"] = engine.auth_accepted / decided if decided else 0.0
    out["sched.enqueue_rejected"] = engine.queue_dropped
    out["hopfield.pool_rejected"] = sum(c.rejected for c in engine.counters.values())
    out["offload.migrations"] = engine.migrations
    out["ddos.attack_windows"] = engine.attack_windows
    out["import.s"] = import_s
    out["io.trace_rows"] = calls("io.trace_sink")
    out["io.sink_s"] = self_s("io.trace_sink") + self_s("io.sink")
    out["io.save_s"] = save_s
    return out


def main(argv: list[str]) -> int:
    report_path = argv[0]
    sep = argv.index("--")
    spans_on = "--spans" in argv[1:sep]
    run_args = argv[sep + 1 :]

    t0 = perf_counter()
    import ts3ra.cli as cli

    import_s = perf_counter() - t0
    log = None
    if spans_on:
        # Imported after the timed import: spans pulls in numpy.
        from spans import SpanLog

        log = SpanLog()
        install_spans(log)
    state: dict = {}

    class TimedEngine(cli.Engine):
        def __init__(self, scenario, **sinks):
            t = perf_counter()
            if log is not None:
                for key in ("trace_sink", "detection_sink", "migration_sink"):
                    if sinks.get(key) is not None:
                        name = "io.trace_sink" if key == "trace_sink" else "io.sink"
                        sinks[key] = log.wrap(sinks[key], name)
            super().__init__(scenario, **sinks)
            state["engine_init_s"] = perf_counter() - t
            state["engine"] = self

        def run(self):
            if log is None:
                report = super().run()
            else:
                report = self._traced_run()
            state["run_end"] = perf_counter()
            return report

        def _traced_run(self):
            from ts3ra.engine import KIND_NAMES

            kind_ids = [log.name_id(f"engine.{KIND_NAMES[k]}") for k in sorted(KIND_NAMES)]
            heap, pop, step = self.heap, heapq.heappop, self.step_event
            open_, close, end_us = log.open, log.close, self.end_us
            events = past = high = 0
            t = perf_counter()
            while heap:
                if len(heap) > high:
                    high = len(heap)
                event = pop(heap)
                if event[0] > end_us:
                    past += 1
                i = open_(kind_ids[event[1]])
                step(event)
                close(i)
                events += 1
            state["loop"] = {
                "events": events,
                "run_s": perf_counter() - t,
                "heap_high_water": high,
                "past_horizon": past,
            }
            return self.collect_metrics()

    cli.Engine = TimedEngine
    code = cli.main(["run", *run_args])
    t_end = perf_counter()

    report = {}
    if "engine_init_s" in state:
        report["setup_s"] = import_s + state["engine_init_s"]
    if log is not None and "loop" in state:
        report["layers"] = layer_metrics(
            log, state["engine"], state["loop"], import_s, t_end - state["run_end"]
        )
    with open(report_path, "w") as fh:
        json.dump(report, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
