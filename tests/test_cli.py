import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ts3ra
from ts3ra.cli import main
from ts3ra.scenario import Scenario, ScenarioError
from ts3ra.scenario_io import apply_override, parse_scenario, serialize_scenario

SMALL = """
# desk-scale scenario
[network]
devices = 18
duration = 10.0
seed = 5

[slicenet]
train_samples = 120
epochs = 2
"""

DEFAULT_CFG = Path(__file__).resolve().parent.parent / "scenarios" / "default.cfg"
SMOKE_CFG = DEFAULT_CFG.with_name("smoke.cfg")


class TestParse:
    def test_empty_document_gives_defaults(self):
        scenario = parse_scenario("")
        assert scenario.devices == 250
        assert scenario.duration == 300.0
        assert scenario.packet_length == 512
        assert scenario.packet_interval == pytest.approx(0.1)
        assert scenario.area_width == 1000.0

    def test_negative_devices_names_key(self):
        with pytest.raises(ScenarioError, match="devices"):
            parse_scenario("[network]\ndevices = -1\n")

    def test_unknown_key_names_line(self):
        with pytest.raises(ScenarioError, match="line 2.*warp_factor"):
            parse_scenario("[network]\nwarp_factor = 9\n")

    @pytest.mark.parametrize(
        "key", ["physical_switches", "local_controllers", "global_controllers"]
    )
    def test_removed_network_key_rejected(self, key):
        with pytest.raises(ScenarioError, match=f"unknown key '{key}'"):
            parse_scenario(f"[network]\n{key} = 1\n")

    def test_unknown_section_rejected(self):
        with pytest.raises(ScenarioError, match="unknown section"):
            parse_scenario("[quantum]\n")

    def test_key_outside_section_rejected(self):
        with pytest.raises(ScenarioError, match="line 1"):
            parse_scenario("devices = 3\n")

    def test_type_mismatch_names_key(self):
        with pytest.raises(ScenarioError, match="devices"):
            parse_scenario("[network]\ndevices = many\n")

    def test_round_trip_idempotent(self):
        first = parse_scenario(SMALL)
        text = serialize_scenario(first)
        second = parse_scenario(text)
        assert first == second
        assert serialize_scenario(second) == text

    def test_defaults_serialize_to_default_cfg(self):
        assert serialize_scenario(Scenario()).encode() == DEFAULT_CFG.read_bytes()

    def test_comments_and_blank_lines_ignored(self):
        scenario = parse_scenario("# top\n\n[network]\ndevices = 7  # inline\n")
        assert scenario.devices == 7

    def test_apply_override(self):
        scenario = Scenario()
        apply_override(scenario, "network.devices", "32")
        assert scenario.devices == 32
        apply_override(scenario, "seed", "99")
        assert scenario.seed == 99
        with pytest.raises(ScenarioError):
            apply_override(scenario, "nope.key", "1")


@pytest.fixture
def scenario_file(tmp_path):
    path = tmp_path / "small.cfg"
    path.write_text(SMALL)
    return path


class TestRunCommand:
    def test_run_writes_artifacts(self, tmp_path, scenario_file):
        out = tmp_path / "results"
        code = main(["run", "--scenario", str(scenario_file), "--out", str(out)])
        assert code == 0
        assert (out / "metrics.csv").exists()
        assert (out / "detection.csv").exists()
        assert (out / "migrations.csv").exists()
        assert (out / "model.bin").exists()
        assert (out / "hopfield.bin").exists()
        assert not (out / "trace.csv").exists()

    def test_deterministic_across_invocations(self, tmp_path, scenario_file):
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["run", "--scenario", str(scenario_file), "--seed", "42", "--out", str(a), "--trace"]) == 0
        assert main(["run", "--scenario", str(scenario_file), "--seed", "42", "--out", str(b), "--trace"]) == 0
        assert (a / "metrics.csv").read_bytes() == (b / "metrics.csv").read_bytes()
        assert (a / "trace.csv").read_bytes() == (b / "trace.csv").read_bytes()

    def test_missing_scenario_exit_one(self, tmp_path, capsys):
        code = main(["run", "--scenario", str(tmp_path / "ghost.cfg")])
        assert code == 1
        assert "ghost.cfg" in capsys.readouterr().err

    def test_invalid_scenario_exit_one(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("[network]\ndevices = -5\n")
        assert main(["run", "--scenario", str(bad)]) == 1

    @pytest.mark.parametrize(
        "section,key,value",
        [
            ("mobility", "tick_interval", "0"),
            ("ddos", "window_duration", "0"),
            ("scheduler", "slot_duration", "0"),
            ("offload", "rebalance_interval", "0"),
            ("packets", "packet_interval", "0"),
            ("flows", "flood_packet_interval", "0"),
            ("ddos", "window_duration", "4e-7"),  # rounds to 0 us
        ],
    )
    def test_zero_event_interval_exit_one(self, tmp_path, capsys, section, key, value):
        bad = tmp_path / "bad.cfg"
        bad.write_text(SMALL + f"\n[{section}]\n{key} = {value}\n")
        assert main(["run", "--scenario", str(bad), "--out", str(tmp_path / "out")]) == 1
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize(
        "section,key,value",
        [
            ("network", "auth_delay", "-1"),
            ("network", "decision_delay", "-1"),
            ("network", "switch_loss_rate", "2"),
            ("network", "switch_transmission_rate", "3e6"),  # capacity is 2.2e6
            ("flows", "arrival_window", "-1"),
            ("scheduler", "continue_prob", "2"),
            ("scheduler", "hp_capacity", "0"),
            ("scheduler", "steps_per_service", "0"),
            ("scheduler", "mu1", "0.5"),  # mu2 stays 0.4
            ("packets", "retransmit_delay", "-1"),
            ("network", "processing_latency", "-1"),
            ("ddos", "alpha", "1"),
            ("slicenet", "d_model", "0"),
            ("slicenet", "epochs", "0"),
            ("slicenet", "learning_rate", "-1"),
            ("slicenet", "train_samples", "0"),
            # upper bounds: each of these used to exhaust memory
            ("slicenet", "d_model", "257"),
            ("slicenet", "d_model", "5000"),
            ("slicenet", "d_model", "100000"),
            ("slicenet", "train_samples", "1000001"),
            ("slicenet", "train_samples", "1000000000"),
            # upper bound: training this long never ends on data that does
            # not converge
            ("slicenet", "epochs", "1001"),
            ("slicenet", "epochs", "100000000"),
            ("network", "auth_delay", "inf"),
            ("network", "decision_delay", "inf"),
            ("flows", "arrival_window", "inf"),
            ("network", "processing_latency", "inf"),
            ("packets", "retransmit_delay", "inf"),
            ("offload", "queue_delay_bound", "-1"),
            ("offload", "queue_delay_bound", "inf"),
            ("offload", "queue_delay_bound", "nan"),
            ("ddos", "alpha", "inf"),
            ("ddos", "alpha", "1e308"),
            ("ddos", "k_sigma", "nan"),
            ("ddos", "k_sigma", "inf"),
            ("ddos", "dominance_factor", "nan"),
            ("ddos", "dominance_factor", "inf"),
            ("network", "duration", "nan"),
            ("network", "duration", "inf"),
            ("network", "seed", "-1"),
            ("network", "area_width", "inf"),
            ("network", "area_height", "inf"),
            ("mobility", "speed_max", "inf"),
            ("mobility", "speed_min", "nan"),
            ("flows", "mix_embb", "nan"),
            ("flows", "flood_start", "nan"),
            ("flows", "flood_start", "inf"),
            ("network", "switch_transmission_rate", "0"),
            ("network", "switch_transmission_rate", "-1"),
            ("network", "pool_headroom", "nan"),
            ("network", "pool_headroom", "-1"),
            ("network", "pool_headroom", "1e308"),
            ("network", "freshness_window", "nan"),
            ("offload", "alpha", "nan"),
            ("network", "aps", "-1"),
            ("network", "switches", "-1"),
            # sizes whose world would exhaust memory
            ("network", "devices", "1000000000"),
            ("network", "switches", "1000000000"),
            ("network", "aps", "1000000000"),
            ("network", "switch_service_capacity", "inf"),
            ("flows", "demand_embb", "-1"),
            ("flows", "flood_giveup", "-1"),
            ("flows", "delay_bound_embb", "nan"),
            ("flows", "delay_bound_urllc", "inf"),
            ("flows", "delay_bound_mmtc", "-1"),
            ("ddos", "min_packets", "-1"),
            # a deque's length must fit a C ssize_t
            ("ddos", "baseline_windows", "10000000000000000000"),
            # packet times must stay within int64 microseconds
            ("packets", "retransmit_delay", "1e13"),
            ("network", "processing_latency", "1e13"),
            ("offload", "queue_delay_bound", "1e13"),
            ("network", "switch_transmission_rate", "1e-9"),
            ("network", "duration", "1e13"),
        ],
    )
    def test_out_of_range_value_exit_one(self, tmp_path, capsys, section, key, value):
        bad = tmp_path / "bad.cfg"
        bad.write_text(SMALL + f"\n[{section}]\n{key} = {value}\n")
        assert main(["run", "--scenario", str(bad), "--out", str(tmp_path / "out")]) == 1
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize("interval", ["1e13", "1e300"])
    def test_flood_interval_past_int64_runs_as_one_past_the_horizon(self, tmp_path, interval):
        # Any interval longer than the run sends the same packets: 1000 s is
        # past the smoke horizon, and 1e13 s is past int64 microseconds.
        files = {}
        for value in ("1e3", interval):
            scenario = parse_scenario(SMOKE_CFG.read_text())
            apply_override(scenario, "flows.flood_packet_interval", value)
            cfg = tmp_path / f"{value}.cfg"
            cfg.write_text(serialize_scenario(scenario))
            out = tmp_path / value
            assert main(["run", "--scenario", str(cfg), "--out", str(out), "--trace"]) == 0
            files[value] = {path.name: path.read_bytes() for path in out.iterdir()}
        assert "trace.csv" in files["1e3"]
        assert files[interval] == files["1e3"]

    def test_negative_seed_flag_exit_one(self, tmp_path, scenario_file, capsys):
        args = ["run", "--scenario", str(scenario_file), "--out", str(tmp_path / "o"), "--seed", "-1"]
        assert main(args) == 1
        assert "seed" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_seed_sweep_stamps_files(self, tmp_path, scenario_file):
        out = tmp_path / "sweep"
        code = main(
            [
                "run", "--scenario", str(scenario_file), "--out", str(out),
                "--sweep", "seed=1,2,3", "--jobs", "2",
            ]
        )
        assert code == 0
        for seed in (1, 2, 3):
            assert (out / f"metrics_seed_{seed}.csv").exists()

    def test_repeated_sweep_value_exit_one(self, tmp_path, scenario_file, capsys):
        # Both runs would be labelled seed_2 and write the same files.
        out = tmp_path / "sweep"
        args = ["run", "--scenario", str(scenario_file), "--out", str(out), "--sweep", "seed=2,3, 2"]
        assert main([*args, "--jobs", "2"]) == 1
        assert "'2'" in capsys.readouterr().err
        assert not out.exists()

    def test_pool_never_larger_than_sweep(self, tmp_path, scenario_file, monkeypatch):
        import concurrent.futures

        sizes = []

        class RecordingPool:
            # Runs the jobs in this process; only records the pool size.
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, jobs):
                return map(fn, jobs)

        # The CLI imports the pool class only when a sweep runs in parallel.
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        code = main(
            [
                "run", "--scenario", str(scenario_file), "--out", str(tmp_path / "sweep"),
                "--sweep", "seed=1,2", "--jobs", "5000",
            ]
        )
        assert code == 0
        assert sizes == [2]

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one_exit_one(self, tmp_path, scenario_file, capsys, jobs):
        args = ["run", "--scenario", str(scenario_file), "--out", str(tmp_path / "o"), "--jobs", jobs]
        assert main(args) == 1
        assert "--jobs" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_out_naming_a_file_exit_one(self, tmp_path, scenario_file, capsys):
        out = tmp_path / "taken"
        out.write_text("not a directory\n")
        assert main(["run", "--scenario", str(scenario_file), "--out", str(out)]) == 1
        assert "--out" in capsys.readouterr().err
        assert out.read_text() == "not a directory\n"

    @pytest.mark.parametrize(
        "case",
        [
            "bad_magic", "truncated_header", "truncated_payload", "directory", "feature_count",
            "no_lift_w", "tensor_shape", "tensor_name",
        ],
    )
    def test_unusable_model_path_exit_one(self, tmp_path, capsys, case):
        from ts3ra.serialization import SNET_TAG, read_container, save_slicenet, write_container
        from ts3ra.slicenet import SliceNetModel

        model = tmp_path / "model.bin"
        save_slicenet(SliceNetModel(rng=np.random.default_rng(0)), model)
        whole = model.read_bytes()
        if case == "bad_magic":
            model.write_bytes(b"NOT-A-MODEL" + whole[11:])
        elif case == "truncated_header":
            model.write_bytes(whole[:20])
        elif case == "truncated_payload":
            model.write_bytes(whole[: len(whole) // 2])
        elif case == "tensor_name":
            # the first tensor's name starts after the magic, version, section
            # count, section tag, tensor count and name length: 26 bytes
            model.write_bytes(whole[:26] + b"\xff" + whole[27:])
        elif case == "directory":
            model.unlink()
            model.mkdir()
        elif case in ("no_lift_w", "tensor_shape"):
            tensors = read_container(model)[SNET_TAG]
            if case == "no_lift_w":
                del tensors["lift_w"]
            else:
                tensors["lift_b"] = tensors["lift_b"][:, :-1]
            write_container(model, {SNET_TAG: tensors})
        else:
            # a model of three features, where the engine gives seven
            data = tmp_path / "data.csv"
            data.write_text("".join(f"0.{i},0.5,0.{9 - i},{i % 3}\n" for i in range(10)))
            assert main(["train-slicenet", "--data", str(data), "--out", str(model)]) == 0
        bad = tmp_path / "bad.cfg"
        bad.write_text(SMALL + f"\n[slicenet]\nmodel_path = {model}\n")
        assert main(["run", "--scenario", str(bad), "--out", str(tmp_path / "out")]) == 1
        assert "model_path" in capsys.readouterr().err

    def test_sink_files_close_when_the_run_fails(self, tmp_path, scenario_file, monkeypatch):
        import gc
        import warnings

        from ts3ra.engine import Engine, InvariantViolation

        def fail(self):
            raise InvariantViolation("injected")

        monkeypatch.setattr(Engine, "run", fail)
        args = ["run", "--scenario", str(scenario_file), "--out", str(tmp_path), "--trace"]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            code = main(args)
            gc.collect()
        assert code == 2
        assert not [w for w in caught if "unclosed file" in str(w.message)]


def run_probe(probe: str) -> str:
    """Standard output of ``probe`` run by a fresh interpreter that imports this ts3ra."""
    env = dict(os.environ)
    src = str(Path(ts3ra.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    return result.stdout.strip()


def test_cli_import_leaves_scipy_unloaded():
    # SciPy is not a dependency: neither the CLI nor the offload solver
    # may load it.
    probe = (
        "import sys, ts3ra.cli\n"
        "from ts3ra.domain import Flow, ServiceType, SwitchProfile\n"
        "from ts3ra.offload import build_offload_graph, max_weight_assignment\n"
        "flows = [Flow(f'f{i}', ServiceType.EMBB, rate=1.0, packet_delay=0.1)"
        " for i in range(3)]\n"
        "switches = [SwitchProfile(f'SW{j}', 4.0, 4.0, 0.1) for j in range(2)]\n"
        "assert max_weight_assignment(build_offload_graph(flows, switches)).assignment\n"
        "print(any(m.split('.')[0] == 'scipy' for m in sys.modules))"
    )
    assert run_probe(probe) == "False"


def test_cli_import_leaves_process_pool_unloaded():
    # Only sweeps run with --jobs use a process pool; every other run would
    # pay for importing it in its set-up time.
    probe = (
        "import sys, ts3ra.cli\n"
        "print([m for m in ('concurrent.futures.process', 'multiprocessing') if m in sys.modules])"
    )
    assert run_probe(probe) == "[]"


def test_engine_run_leaves_thread_pool_unloaded():
    # Set-up derives its keys on the main thread: building and running an
    # engine loads no executor.
    probe = (
        "import sys, ts3ra.cli\n"
        "from ts3ra.engine import Engine\n"
        "from ts3ra.scenario import Scenario\n"
        "Engine(Scenario(devices=12, duration=5.0, train_samples=60, epochs=1)).run()\n"
        "print('concurrent.futures' in sys.modules)"
    )
    assert run_probe(probe) == "False"


class TestSummarize:
    HEADER = (
        "slice,requests,granted,sent,delivered,dropped,blocked,throughput_bps,"
        "latency_s,response_s,ptr,plr,capacity_utilization,bandwidth_bps,"
        "acceptance_ratio,degenerate"
    )

    def make_metrics(self, path: Path, ptr: float):
        row = f"S1,10,10,100,{int(ptr * 100)},{100 - int(ptr * 100)},0,1,0.1,0.5,{ptr},{1 - ptr},0.5,1,1,0"
        path.write_text(self.HEADER + "\n" + row + "\n")

    def test_single_file_mean_equals_values(self, tmp_path, capsys):
        f = tmp_path / "m.csv"
        self.make_metrics(f, 0.8)
        assert main(["summarize", str(f)]) == 0
        out = capsys.readouterr().out
        mean_line = [l for l in out.splitlines() if l.startswith("S1,mean")][0]
        std_line = [l for l in out.splitlines() if l.startswith("S1,std")][0]
        assert ",0.8," in mean_line
        assert set(std_line.split(",")[2:]) == {"0"}

    def test_two_files_average(self, tmp_path, capsys):
        f1, f2 = tmp_path / "m1.csv", tmp_path / "m2.csv"
        self.make_metrics(f1, 0.8)
        self.make_metrics(f2, 1.0)
        assert main(["summarize", str(f1), str(f2)]) == 0
        out = capsys.readouterr().out
        mean_line = [l for l in out.splitlines() if l.startswith("S1,mean")][0]
        assert ",0.9," in mean_line

    def test_column_order_stable(self, tmp_path, capsys):
        f = tmp_path / "m.csv"
        self.make_metrics(f, 0.8)
        main(["summarize", str(f)])
        first = capsys.readouterr().out
        main(["summarize", str(f)])
        second = capsys.readouterr().out
        assert first == second

    def test_inconsistent_headers_rejected(self, tmp_path, capsys):
        f1, f2 = tmp_path / "m1.csv", tmp_path / "m2.csv"
        self.make_metrics(f1, 0.8)
        f2.write_text("slice,other\nS1,1\n")
        assert main(["summarize", str(f1), str(f2)]) == 1

    @pytest.mark.parametrize(
        "mangle,named",
        [
            (lambda row: row.replace("S1,10,", "S1,abc,", 1), ["line 2", "requests", "'abc'"]),
            (lambda row: row.rsplit(",", 2)[0], ["line 2", "acceptance_ratio", "missing"]),
            (lambda row: row + ",7", ["line 2", "cell 17", "'7'"]),
        ],
        ids=["non_numeric", "short_row", "long_row"],
    )
    def test_bad_row_exit_one(self, tmp_path, capsys, mangle, named):
        f = tmp_path / "m.csv"
        self.make_metrics(f, 0.8)
        header, row = f.read_text().splitlines()
        f.write_text(f"{header}\n{mangle(row)}\n")
        assert main(["summarize", str(f)]) == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err
        for part in [str(f), *named]:
            assert part in err

    def test_foreign_header_exit_one(self, tmp_path, capsys):
        f = tmp_path / "m.csv"
        f.write_text("slice,requests\nS1,3\n")
        assert main(["summarize", str(f)]) == 1
        err = capsys.readouterr().err
        for part in (str(f), "line 1", "cell 3", "None", "'granted'"):
            assert part in err


class TestTrainCommand:
    def test_end_to_end(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        from ts3ra.slicenet import make_separable_dataset

        feats, labels = make_separable_dataset(120, rng)
        data = tmp_path / "data.csv"
        header = ",".join(f"f{i}" for i in range(feats.shape[1])) + ",label"
        rows = [header] + [
            ",".join(f"{v:.6f}" for v in feats[i]) + f",{labels[i]}"
            for i in range(len(labels))
        ]
        data.write_text("\n".join(rows))
        model_path = tmp_path / "model.bin"
        curve_path = tmp_path / "curve.csv"
        code = main(
            [
                "train-slicenet", "--data", str(data), "--epochs", "3",
                "--lr", "0.01", "--out", str(model_path), "--curve", str(curve_path),
            ]
        )
        assert code == 0
        assert model_path.exists()
        assert curve_path.read_text().startswith("epoch,loss,accuracy")
        epochs_run = len(curve_path.read_text().splitlines()) - 1
        assert f"({epochs_run} of at most 3 epochs," in capsys.readouterr().out

        from ts3ra.serialization import load_slicenet

        model = load_slicenet(model_path)
        preds = np.argmax(model.logits(feats), axis=-1)
        assert np.mean(preds == labels) >= 0.9

    def test_missing_data_exit_one(self, tmp_path):
        assert main(["train-slicenet", "--data", str(tmp_path / "no.csv"), "--out", "m.bin"]) == 1

    @pytest.mark.parametrize(
        "flag,value",
        [
            ("--epochs", "0"),
            ("--epochs", "-1"),
            ("--epochs", "1001"),
            ("--epochs", "100000000"),
            ("--lr", "0.5"),
            ("--d-model", "0"),
            ("--d-model", "257"),
            ("--d-model", "100000"),
            ("--seed", "-1"),
        ],
    )
    def test_bad_flag_exit_one(self, tmp_path, capsys, flag, value):
        from ts3ra.slicenet import make_separable_dataset

        feats, labels = make_separable_dataset(50, np.random.default_rng(0))
        data = tmp_path / "data.csv"
        data.write_text(
            "\n".join(
                ",".join(f"{v:.6f}" for v in row) + f",{label}"
                for row, label in zip(feats, labels)
            )
        )
        model_path = tmp_path / "model.bin"
        args = ["train-slicenet", "--data", str(data), "--out", str(model_path), flag, value]
        assert main(args) == 1
        assert flag in capsys.readouterr().err
        assert not model_path.exists()

    @pytest.mark.parametrize("label", ["3", "5", "-1", "1.5"])
    def test_bad_label_exit_one(self, tmp_path, capsys, label):
        from ts3ra.slicenet import make_separable_dataset

        feats, labels = make_separable_dataset(50, np.random.default_rng(0))
        lines = [
            ",".join(f"{v:.6f}" for v in row) + f",{lab}" for row, lab in zip(feats, labels)
        ]
        lines[6] = ",".join(f"{v:.6f}" for v in feats[6]) + f",{label}"
        data = tmp_path / "data.csv"
        data.write_text("\n".join(lines))
        model_path = tmp_path / "model.bin"
        assert main(["train-slicenet", "--data", str(data), "--out", str(model_path)]) == 1
        err = capsys.readouterr().err
        assert "line 7" in err and repr(label) in err
        assert not model_path.exists()

    @pytest.mark.parametrize(
        "mangle,message",
        [
            (lambda cells: cells[:2] + ["x"] + cells[3:], "'x' is not a number"),
            (lambda cells: cells[1:], "columns"),
        ],
        ids=["non-numeric-cell", "short-row"],
    )
    def test_bad_row_exit_one(self, tmp_path, capsys, mangle, message):
        from ts3ra.slicenet import make_separable_dataset

        feats, labels = make_separable_dataset(50, np.random.default_rng(0))
        lines = [",".join(f"f{i}" for i in range(feats.shape[1])) + ",label"] + [
            ",".join(f"{v:.6f}" for v in row) + f",{lab}" for row, lab in zip(feats, labels)
        ]
        lines[10] = ",".join(mangle(lines[10].split(",")))
        data = tmp_path / "data.csv"
        data.write_text("\n".join(lines))
        model_path = tmp_path / "model.bin"
        assert main(["train-slicenet", "--data", str(data), "--out", str(model_path)]) == 1
        err = capsys.readouterr().err
        assert f"{data} line 11" in err and message in err
        assert not model_path.exists()

    @pytest.mark.parametrize(
        "cell,message",
        [
            ("nan", "'nan' is not finite"),
            ("inf", "'inf' is not finite"),
            ("-inf", "'-inf' is not finite"),
            ("1.7e308", "diverged"),
        ],
    )
    def test_nonfinite_feature_exit_one(self, tmp_path, capsys, cell, message):
        from ts3ra.slicenet import make_separable_dataset

        feats, labels = make_separable_dataset(50, np.random.default_rng(0))
        lines = [
            ",".join(f"{v:.6f}" for v in row) + f",{lab}" for row, lab in zip(feats, labels)
        ]
        cells = lines[4].split(",")
        cells[2] = cell
        lines[4] = ",".join(cells)
        data = tmp_path / "data.csv"
        data.write_text("\n".join(lines))
        model_path = tmp_path / "model.bin"
        with np.errstate(all="ignore"):  # the 1.7e308 cell overflows
            assert main(["train-slicenet", "--data", str(data), "--out", str(model_path)]) == 1
        err = capsys.readouterr().err
        assert str(data) in err and message in err
        if message != "diverged":
            assert "line 5" in err
        assert not model_path.exists()

    def test_label_without_features_exit_one(self, tmp_path, capsys):
        data = tmp_path / "data.csv"
        data.write_text("label\n1\n0\n2\n")
        model_path = tmp_path / "model.bin"
        assert main(["train-slicenet", "--data", str(data), "--out", str(model_path)]) == 1
        err = capsys.readouterr().err
        assert f"{data} line 2" in err and "at least one feature column" in err
        assert not model_path.exists()
