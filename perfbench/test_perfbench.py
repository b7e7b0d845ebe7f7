"""Tests of the benchmark's own logic: ``python3 -m pytest perfbench -q``."""

from __future__ import annotations

import json
import sys

import pytest

import run
from spans import SpanLog, self_times


def test_self_time_subtracts_direct_children_only():
    # a [0, 10] holds b [1, 4] (which holds c [2, 3]) and b [5, 6].
    names = ["a", "b", "c"]
    spans = self_times(
        names,
        name_ids=[0, 1, 2, 1],
        parents=[-1, 0, 1, 0],
        starts=[0.0, 1.0, 2.0, 5.0],
        ends=[10.0, 4.0, 3.0, 6.0],
    )
    assert spans["a"] == (1, pytest.approx(6.0))
    assert spans["b"] == (2, pytest.approx(3.0))
    assert spans["c"] == (1, pytest.approx(1.0))


def test_nested_wrapped_calls_are_not_counted_twice():
    log = SpanLog()

    def inner():
        return sum(range(1000))

    inner_traced = log.wrap(inner, "inner")
    outer = log.wrap(lambda: inner_traced() + inner_traced(), "outer")
    root = log.open(log.name_id("root"))
    outer()
    log.close(root)
    spans = log.summary()
    assert spans["outer"][0] == 1 and spans["inner"][0] == 2
    total = log.end[root] - log.start[root]
    assert sum(s for _, s in spans.values()) == pytest.approx(total)
    assert all(s >= 0 for _, s in spans.values())


def test_span_left_open_is_an_error():
    log = SpanLog()
    log.open(log.name_id("never closed"))
    with pytest.raises(ValueError):
        log.summary()


def _write_artifacts(out, *, header=None, total="TOTAL,3,3,10,7,3,0"):
    out.mkdir(parents=True, exist_ok=True)
    for name in run.ARTIFACTS:
        (out / name).write_text(name)
    header = header or ",".join(run.METRICS_HEADER)
    (out / "metrics.csv").write_text(f"{header}\nS1,3,3,10,7,3,0\n{total}\n")


def test_fresh_dir_refuses_a_reused_directory(tmp_path):
    run.fresh_dir(tmp_path / "c0")
    with pytest.raises(FileExistsError):
        run.fresh_dir(tmp_path / "c0")


def test_stale_trace_csv_is_caught(tmp_path):
    out = tmp_path / "out"
    _write_artifacts(out)
    assert run.check_outputs(out, csv_trace=False)[0] == []
    (out / "trace.csv").write_text("left over from an earlier traced run\n")
    problems = run.check_outputs(out, csv_trace=False)[0]
    assert problems == ["trace.csv present in a run without --trace"]
    assert run.check_outputs(out, csv_trace=True)[0] == []


def test_wrong_header_and_broken_conservation_fail(tmp_path):
    _write_artifacts(tmp_path / "h", header="slice,sent,delivered,dropped")
    assert run.check_outputs(tmp_path / "h", False)[0] == ["metrics.csv: wrong header"]
    _write_artifacts(tmp_path / "c", total="TOTAL,3,3,10,7,2,0")
    problems = run.check_outputs(tmp_path / "c", False)[0]
    assert problems and "sent 10 != delivered 7 + dropped 2" in problems[0]


def test_differing_digests_fail_the_later_run():
    def child(digests):
        return run.ChildResult(1.0, 1.0, {"setup_s": 0.5}, digests, [])

    first, same, other = child({"m": "1"}), child({"m": "1"}), child({"m": "2"})
    run.check_same_digests([first, same, other])
    assert first.ok and same.ok and not other.ok


def test_failing_child_is_counted_as_failed(tmp_path):
    failing = run.run_child(
        tmp_path / "unused.cfg", tmp_path / "c0", False, False,
        argv=[sys.executable, "-c", "import sys; sys.exit(3)"],
    )
    assert failing.problems == ["exit code 3"]
    good = run.ChildResult(1.0, 1.0, {"setup_s": 0.5}, {}, [])
    line = run.result_line([good, failing], {"run_wall_s": {"value": 1.0, "unit": "s"}})
    assert (line["correct"], line["attempted"], line["failed"]) == (False, 2, 1)


def test_times_are_scaled_by_the_reference_and_failures_left_out():
    def child(wall, setup, problems=()):
        return run.ChildResult(wall, 100.0, {"setup_s": setup}, {}, list(problems))

    nominal = run.REFERENCE_NOMINAL_S
    results = [
        child(20.0, 8.0),
        child(22.0, 9.0),
        child(24.0, 10.0),
        child(1.0, 1.0, ["exit code 1"]),
    ]
    # The host ran at half speed: the reference took twice its nominal time.
    references = [2 * nominal, 2.1 * nominal, 1.9 * nominal, 2 * nominal, 5 * nominal]
    metrics = run.end_to_end_metrics(results, references)
    assert metrics["run_wall_s"] == pytest.approx(11.0)
    assert metrics["setup_s"] == pytest.approx(4.5)
    assert metrics["peak_rss_mb"] == 100.0


def test_benchmark_json_matches_the_emitted_metrics():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_traced_child_reports_every_layer_metric(tmp_path):
    sys.path.insert(0, str(run.SRC))
    tiny = run.Workload(
        {
            "network.devices": "12",
            "network.duration": "4",
            "flows.flood_start": "2",
            "slicenet.train_samples": "32",
            "slicenet.epochs": "1",
        },
        csv_trace=True,
    )
    scenario = run.write_scenario(tmp_path / "tiny.cfg", tiny, seed=7)
    plain = run.run_child(scenario, tmp_path / "plain", True, spans=False)
    traced = run.run_child(scenario, tmp_path / "traced", True, spans=True)
    run.check_same_digests([plain, traced])
    assert plain.ok and traced.ok, plain.problems + traced.problems
    layers = traced.report["layers"]
    from_parent = {n for n in run.PER_LAYER if n.startswith(("trace.", "scale.", "ddos.share"))}
    assert set(layers) == set(run.PER_LAYER) - from_parent
    assert layers["engine.events"] == sum(layers[f"engine.{k}.count"] for k in run.KINDS)
    assert layers["io.trace_rows"] > 1  # header plus one line per traced event
