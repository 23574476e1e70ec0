import copy
import dataclasses
import importlib.util
import json
import os
import platform
import shutil
import subprocess
import sys
import zlib
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
import yaml

import odup
import odup.cli as cli
from odup import codec, pipeline, updater, wire
from odup.errors import (
    ConfigError, DataError, DimensionMismatch, FrameError, LedgerDivergence, ProtocolError,
    StaleDeltaError,
)
from odup.numkit import Rng
from odup.pipeline import (
    BYTES_COLUMNS, RATIO_COLUMNS, REPORT_COLUMNS, DeviceSim, ExperimentConfig, RoundReport,
    cloud_trajectory, load_config, prepare_data, replay, run_report, run_simulate, write_reports,
)
from odup.sessions import SYNTH_LEN_RANGE
from odup.updater import UpdateDelta, plan_slots

from helpers import reconstruct_item


def assert_rows_match(csv_path, records):
    """The CSV at ``csv_path`` has one row per record, each cell equal to
    the record's value in that column once read back as the value's type."""
    with open(csv_path, encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        rows = [line.strip().split(",") for line in fh]
    assert len(rows) == len(records)
    for row, rec in zip(rows, records):
        assert len(row) == len(header)
        for col, cell in zip(header, row):
            assert type(rec[col])(cell) == rec[col]
    return header


def valid_record(**overrides) -> dict:
    """A report.json record whose every value has its column's type."""
    return {**dict.fromkeys(REPORT_COLUMNS, 0), "slice": 1, "strategy": "queue", **overrides}


def load_script(name: str):
    """``scripts/<name>.py`` imported as a module."""
    path = os.path.join(os.path.dirname(__file__), os.pardir, "scripts", f"{name}.py")
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def small_config(**overrides) -> ExperimentConfig:
    base = dict(
        data="synth",
        slices="1:1:2",
        synth_vocab=120,
        synth_sessions=700,
        synth_drift=0.3,
        synth_clusters=6,
        d=16,
        rec_epochs=6,
        n=4,
        k=8,
        codec_epochs=60,
        codec_batch=64,
        strategy="queue",
        r=4.0,
        mmd_samples=0,
        seed=11,
        timing="zero",
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestConfigFile:
    def test_parse_and_defaults(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text(
            "# comment\n"
            "strategy = stack\n"
            "r = 5\n"
            "seed = 42  # trailing comment\n"
            "slices = 1:2:3\n"
            "timing = zero\n",
            encoding="utf-8",
        )
        cfg = load_config(path)
        assert cfg.strategy == "stack"
        assert cfg.r == 5.0
        assert cfg.seed == 42
        assert cfg.slice_plan().fractions == pytest.approx([1 / 6, 2 / 6, 3 / 6])
        assert cfg.d == ExperimentConfig().d  # untouched default

    def test_hash_starts_a_comment_only_at_line_start_or_after_whitespace(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text(
            "#out = commented\n"
            "  # indented comment\n"
            "out = results/run#2  # a note\n"
            "r = 10\t# ten\n"
            "slices = 1:1#2\n",
            encoding="utf-8",
        )
        with pytest.raises(ConfigError, match="slices"):  # 1:1#2 is the value, not 1:1
            load_config(path)
        path.write_text(path.read_text(encoding="utf-8").replace("slices = 1:1#2", "seed = 3"),
                        encoding="utf-8")
        cfg = load_config(path)
        assert (cfg.out, cfg.r, cfg.seed) == ("results/run#2", 10.0, 3)

    def test_out_holding_a_hash_writes_there(self, tmp_path):
        sentinel = tmp_path / "run" / "report.json"
        sentinel.parent.mkdir()
        sentinel.write_text("another run's report\n", encoding="utf-8")
        cfg = small_config(slices="1:1")
        text = "".join(f"{f.name} = {getattr(cfg, f.name)}\n" for f in dataclasses.fields(cfg)
                       if f.name not in ("delimiter", "out"))
        path = tmp_path / "exp.cfg"
        path.write_text(text + f"out = {tmp_path / 'run#2'}\n", encoding="utf-8")
        loaded = load_config(path)
        assert loaded == dataclasses.replace(cfg, out=str(tmp_path / "run#2"))
        run_simulate(loaded)
        assert (tmp_path / "run#2" / "report.json").is_file()
        assert (tmp_path / "run#2" / "frames" / "round_01.odup").is_file()
        assert sentinel.read_text(encoding="utf-8") == "another run's report\n"
        assert not (sentinel.parent / "frames").exists()


class TestDemoConfig:
    def test_demo_cfg_is_the_demo_experiment(self):
        path = os.path.join(os.path.dirname(__file__), os.pardir, "scripts", "demo.cfg")
        assert load_config(path) == ExperimentConfig(
            data="synth", slices="2:1:1:1:1", synth_vocab=300, synth_sessions=3000,
            synth_drift=0.3, synth_clusters=6, d=16, rec_epochs=20, n=8, k=16, tau=0.2,
            codec_epochs=250, strategy="queue", r=10.0, mmd_samples=0, seed=7, out="runs/demo",
        )


class TestRatioSweepScript:
    @pytest.mark.parametrize("argv", [
        ["--ratios", "0.5"], ["--seed", "-1"], ["--ratios", "x"], ["--ratios", "2,nan"],
        ["--ratios", "5,5.0"],
    ])
    def test_bad_argument_exit_2_before_any_data(self, tmp_path, monkeypatch, capsys, argv):
        sweep = load_script("ratio_sweep")
        prepared = []
        monkeypatch.setattr(sweep, "prepare_data", lambda *args: prepared.append(args))
        monkeypatch.setattr(sys, "argv", ["ratio_sweep.py", "--out", str(tmp_path / "s"), *argv])
        assert sweep.main() == 2
        assert capsys.readouterr().err.startswith("config error: ")
        assert prepared == []


class TestCiLocalScript:
    def test_runs_the_steps_in_order_and_stops_at_a_failure(self, tmp_path, monkeypatch, capsys):
        ci = load_script("ci_local")
        workflow = tmp_path / "ci.yml"
        workflow.write_text(
            "jobs:\n"
            "  j:\n"
            "    steps:\n"
            "      - uses: actions/checkout@v4\n"
            "      - name: Install\n"
            "        run: pip install -e '.[test]'\n"
            "      - name: Temp and shim\n"
            "        run: odup --help > \"$RUNNER_TEMP/help.txt\" && grep -q simulate \"$RUNNER_TEMP/help.txt\"\n"
            "      - name: Newest Python only\n"
            "        if: matrix.python-version == '3.12'\n"
            "        run: exit 3\n"
            "      - name: A pipe fails\n"
            "        run: false | cat\n"
            "      - name: After the failure\n"
            "        run: 'true'\n", encoding="utf-8")
        monkeypatch.setattr(ci, "WORKFLOW", str(workflow))
        assert ci.main(["j", "--python-version", "3.10"]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert [line.split()[0] for line in lines] == ["skip", "skip", "ok", "skip", "FAIL(1)", "skip"]
        assert lines[-1].endswith("After the failure (an earlier step failed)")

    def test_every_workflow_step_is_understood(self):
        ci = load_script("ci_local")
        with open(ci.WORKFLOW, encoding="utf-8") as fh:
            jobs = yaml.safe_load(fh)["jobs"]
        reasons = [ci._skip_reason(step, "3.10") for job in jobs.values() for step in job["steps"]]
        assert reasons.count("installs packages") == 3  # both Install steps and the numpy pin
        assert reasons.count("runs on Python 3.12 only") == 2  # the perfbench step and the MMD cap


class TestGateScript:
    def test_paper_stream_is_opt_in_at_the_paper_shape(self):
        gate = load_script("gate")
        assert load_config(gate.PAPER_CONFIG) == ExperimentConfig(
            data="synth", slices="1:1:1", synth_vocab=37722, synth_sessions=60000, synth_clusters=8,
            d=64, rec_epochs=1, n=20, k=32, codec_epochs=1, strategy="queue", r=10.0, out="runs/paper",
        )
        assert "paper" in gate.STREAMS and "paper" not in gate.DEFAULT_STREAMS

    def test_compare_names_a_flipped_frame_byte(self, tmp_path, capsys):
        gate = load_script("gate")
        out = tmp_path / "base"
        # a fresh interpreter, since run puts its --src first on sys.path
        subprocess.run([sys.executable, gate.__file__, "run", "--src",
                        os.path.dirname(os.path.dirname(odup.__file__)), "--out", str(out),
                        "--seeds", "1", "--streams", "c4-queue,longlog"], check=True, timeout=300)
        manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
        report = json.loads((out / "c4-queue" / "seed1" / "report.json").read_text(encoding="utf-8"))
        assert manifest["runs"]["c4-queue/seed1"]["delta_bytes"] == [r["delta_bytes"] for r in report]
        # longlog's users each hold LONG_MERGE synth sessions, so its pads run wide
        log = (out / "longlog" / "seed1" / "events.tsv").read_text(encoding="utf-8").splitlines()
        per_user = Counter(line.split("\t")[0] for line in log)
        lo, hi = SYNTH_LEN_RANGE
        assert len(per_user) == load_config(gate.DEMO_CONFIG).synth_sessions // gate.LONG_MERGE
        assert min(per_user.values()) >= gate.LONG_MERGE * lo and max(per_user.values()) > 3 * hi

        assert gate.main(["compare", str(out), str(out)]) == 0
        lines = capsys.readouterr().out.splitlines()
        files = sum(len(r["files"]) for r in manifest["runs"].values())
        assert lines[0] == f"files: all {files} byte-identical"
        assert lines[1] == "frame sizes: all 10 equal"
        assert lines[3].endswith("paired median +0.0000") and lines[5].endswith("paired median +0.0000")

        flipped = tmp_path / "flipped"
        shutil.copytree(out, flipped)
        frame = flipped / "c4-queue" / "seed1" / "frames" / "round_03.odup"
        data = bytearray(frame.read_bytes())
        data[40] ^= 0x01
        frame.write_bytes(bytes(data))
        assert gate.main(["compare", str(out), str(flipped)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].endswith(" differ: " + os.path.join("c4-queue", "seed1", "frames", "round_03.odup"))
        assert lines[1] == "frame sizes: all 10 equal"
        with pytest.raises(SystemExit):
            gate.main(["compare", str(out), str(tmp_path)])


def tree_bytes(root) -> dict:
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


class TestCloudTrajectory:
    def test_replay_matches_separate_runs(self, tmp_path):
        base = small_config()
        data = prepare_data(base, Rng(base.seed))
        trajectory = list(cloud_trajectory(base, data))
        for strategy in ("queue", "full"):
            cfg = dataclasses.replace(base, strategy=strategy, out=str(tmp_path / "replay" / strategy))
            replay(cfg, data, trajectory)
            run_simulate(dataclasses.replace(cfg, out=str(tmp_path / "sim" / strategy)))
            replayed = tree_bytes(tmp_path / "replay" / strategy)
            assert {"report.csv", "report.json", "frames/round_01.odup"} <= replayed.keys()
            assert replayed == tree_bytes(tmp_path / "sim" / strategy)

    def test_last_gated_gate_frozen_after_slice_1(self, tmp_path, monkeypatch):
        cfg = small_config(encoder="last_gated", out=str(tmp_path / "sim"))
        data = prepare_data(cfg, Rng(cfg.seed))
        trajectory = list(cloud_trajectory(cfg, data))
        # the gate trains on slice 1 only; later slices keep its bits
        first = trajectory[0].model.gate_raw
        assert all(step.model.gate_raw.hex() == first.hex() for step in trajectory[1:])
        devices = []

        class RecordingDevice(DeviceSim):
            def __init__(self, *args):
                super().__init__(*args)
                devices.append(self)

        monkeypatch.setattr(pipeline, "DeviceSim", RecordingDevice)
        replay(cfg, data, trajectory)
        # the device and the server's replica of it
        assert len(devices) == 2
        assert all(device.gate == trajectory[-1].model.gate for device in devices)

    def test_drift_free_slice_2_does_not_lose_precision(self):
        # drift-free data: the slice-2 model saw strictly more of the same
        # distribution, so held-out precision should not degrade
        cfg = small_config(slices="1:1", synth_drift=0.0, rec_epochs=8, synth_sessions=900)
        first, second = cloud_trajectory(cfg, prepare_data(cfg, Rng(cfg.seed)))
        assert second.metrics[2] >= first.metrics[2]

    def test_tables_are_read_only_snapshots(self):
        cfg = small_config(slices="1:1", rec_epochs=2)
        first, second = cloud_trajectory(cfg, prepare_data(cfg, Rng(cfg.seed)))
        for step in (first, second):
            assert step.model.embeddings.dtype == np.float32
            assert not step.model.embeddings.flags.writeable
            with pytest.raises(ValueError):
                step.model.embeddings[0, 0] = 0.0
        # training slice 2 did not move the slice-1 snapshot
        assert not np.array_equal(first.model.embeddings, second.model.embeddings)

class TestReplaySample:
    @staticmethod
    def training_sets(cfg, monkeypatch):
        """The prepared data and the dataset each slice's ``train`` call gets."""
        seen = []
        monkeypatch.setattr(pipeline, "train", lambda model, ds, tcfg: seen.append(ds))
        data = prepare_data(cfg, Rng(cfg.seed))
        assert len(list(cloud_trajectory(cfg, data))) == len(data.slices)
        return data, seen

    @pytest.mark.parametrize("frac", [pipeline.REPLAY_FRAC, 0.0, 0.5, 100.0])
    def test_new_pairs_plus_a_sample_of_earlier_ones(self, monkeypatch, frac):
        monkeypatch.setattr(pipeline, "REPLAY_FRAC", frac)
        data, seen = self.training_sets(small_config(slices="1:1:1:2"), monkeypatch)
        assert seen[0] is data.slices[0]
        for t in range(1, len(data.slices)):
            new, ds = data.slices[t], seen[t]
            earlier_ends = np.concatenate([e.ends for e in data.slices[:t]])
            size = min(len(earlier_ends), round(frac * len(new)))
            assert len(ds) == size + len(new)
            # the sample comes first, from earlier slices only, then the new pairs
            assert np.isin(ds.ends[:size], earlier_ends).all()
            assert np.array_equal(ds.starts[size:], new.starts) and np.array_equal(ds.ends[size:], new.ends)
            # an end is the label position of one pair, so no pair repeats
            assert np.all(np.diff(ds.ends) > 0)
        if frac == 100.0:  # the cap: the whole history, once
            assert np.array_equal(seen[-1].ends[:-len(data.slices[-1])],
                                  np.concatenate([e.ends for e in data.slices[:-1]]))

    def test_same_seed_same_sample(self, monkeypatch):
        cfg = small_config(slices="1:1:1:2")
        _, first = self.training_sets(cfg, monkeypatch)
        _, again = self.training_sets(cfg, monkeypatch)
        for a, b in zip(first, again):
            assert np.array_equal(a.starts, b.starts) and np.array_equal(a.ends, b.ends)

    def test_sample_draws_from_its_own_stream(self, monkeypatch):
        # not the training shuffle's stream, so the sample and the batch order are independent
        cfg = small_config(slices="1:1:1:2")
        data, seen = self.training_sets(cfg, monkeypatch)
        rng = Rng(cfg.seed).child("rec-replay")
        for t in range(1, len(data.slices)):
            expected = pipeline.with_replay(data.slices[t], data.slices[:t], rng)
            assert np.array_equal(seen[t].starts, expected.starts)
            assert np.array_equal(seen[t].ends, expected.ends)


class TestDeviceSim:
    V, N, K, D = 10, 2, 4, 3

    def deployed(self):
        rng = np.random.default_rng(3)
        nk = self.N * self.K
        codes = rng.integers(0, self.K, (self.V, self.N)).astype(np.int32)
        deploy = UpdateDelta(1, "full", nk, rng.normal(size=(nk, self.D)), codes, list(range(nk)))
        device = DeviceSim("queue", "mean_pool", 0.5)
        device.receive(wire.encode_delta(deploy, vocab=self.V, d=self.D, n=self.N, k=self.K))
        return device, rng

    def frame(self, device, rng, vocab, n, k, beta=2):
        # valid in every byte and next in epoch; only the dimensions differ
        delta = UpdateDelta(
            device.epoch + 1, "queue", beta, rng.normal(size=(beta, self.D)),
            rng.integers(0, k, (vocab, n)).astype(np.int32),
            plan_slots(device.ledger, "queue", beta),
        )
        return wire.encode_delta(delta, vocab=vocab, d=self.D, n=n, k=k)

    @pytest.mark.parametrize("vocab,n,k", [
        (V + 7, N, K),      # header vocabulary is not the deployment's
        (V, 4, 2),          # same nk, different n
        (V, N, 8),          # codes may reach past the device's k
        (V, N, 2),          # smaller k, every code below both
    ])
    def test_dimension_mismatch_leaves_state_untouched(self, vocab, n, k):
        device, rng = self.deployed()
        store, ledger, table = device.store, device.ledger, device.table
        rows_before, ledger_before, table_before = store.rows.copy(), copy.deepcopy(ledger), table.copy()
        bad = self.frame(device, rng, vocab, n, k)
        assert k <= self.K or wire.decode_delta(bad).codes.max() >= self.K
        with pytest.raises(DimensionMismatch):
            device.receive(bad)
        assert device.store is store and device.ledger is ledger and device.table is table
        assert np.array_equal(store.rows, rows_before)
        assert ledger == ledger_before
        assert np.array_equal(table, table_before)
        # the deployment still accepts a matching frame afterwards
        device.receive(self.frame(device, rng, self.V, self.N, self.K))
        assert device.epoch == 2

    def test_full_frame_with_smaller_k_leaves_state_untouched(self):
        device, rng = self.deployed()
        store, ledger, table = device.store, device.ledger, device.table
        k = self.K // 2
        nk = self.N * k
        full = UpdateDelta(device.epoch + 1, "full", nk, rng.normal(size=(nk, self.D)),
                           rng.integers(0, k, (self.V, self.N)).astype(np.int32), list(range(nk)))
        with pytest.raises(DimensionMismatch):
            device.receive(wire.encode_delta(full, vocab=self.V, d=self.D, n=self.N, k=k))
        assert device.store is store and device.ledger is ledger and device.table is table

    @pytest.mark.parametrize("strategy,epoch,slots,error", [
        ("full", 1, list(range(N * K))[::-1], LedgerDivergence),  # reversed slot list
        ("full", 1, [0] * (N * K), LedgerDivergence),             # one slot repeated
        ("full", 2, list(range(N * K)), StaleDeltaError),         # deploy is epoch 1
        ("queue", 1, [0, 1], ProtocolError),                      # deploy is a full frame
    ])
    def test_bad_first_frame_leaves_device_undeployed(self, strategy, epoch, slots, error):
        rng = np.random.default_rng(6)
        delta = UpdateDelta(epoch, strategy, len(slots), rng.normal(size=(len(slots), self.D)),
                            rng.integers(0, self.K, (self.V, self.N)).astype(np.int32), slots)
        device = DeviceSim("queue", "mean_pool", 0.5)
        with pytest.raises(error) as exc:
            device.receive(wire.encode_delta(delta, vocab=self.V, d=self.D, n=self.N, k=self.K))
        assert type(exc.value) is error
        assert device.store is None and device.ledger is None and device.table is None

    def test_nan_deploy_frame_leaves_device_undeployed(self):
        rng = np.random.default_rng(4)
        nk = self.N * self.K
        rows = rng.normal(size=(nk, self.D))
        codes = rng.integers(0, self.K, (self.V, self.N)).astype(np.int32)
        delta = UpdateDelta(1, "full", nk, rows, codes, list(range(nk)))
        delta.new_rows[2, 1] = np.nan  # UpdateDelta itself refuses non-finite rows
        frame = wire.encode_delta(delta, vocab=self.V, d=self.D, n=self.N, k=self.K)
        device = DeviceSim("queue", "mean_pool", 0.5)
        with pytest.raises(FrameError) as exc:
            device.receive(frame)
        assert exc.value.check == "rows"
        assert device.store is None and device.ledger is None and device.table is None

    def test_inf_update_frame_leaves_state_untouched(self):
        device, rng = self.deployed()
        store, ledger, table = device.store, device.ledger, device.table
        rows_before, ledger_before, table_before = store.rows.copy(), copy.deepcopy(ledger), table.copy()
        delta = wire.decode_delta(self.frame(device, rng, self.V, self.N, self.K))
        delta.new_rows = delta.new_rows.copy()  # the decoded rows are a read-only view of the frame
        delta.new_rows[0, 0] = np.inf
        with pytest.raises(FrameError) as exc:
            device.receive(wire.encode_delta(delta, vocab=self.V, d=self.D, n=self.N, k=self.K))
        assert exc.value.check == "rows"
        assert device.store is store and device.ledger is ledger and device.table is table
        assert np.array_equal(store.rows, rows_before)
        assert ledger == ledger_before
        assert np.array_equal(table, table_before)

    def test_raise_in_the_rebuild_leaves_state_untouched(self, monkeypatch):
        # the frame passes every check, and the rebuild fills the new table, then raises
        device, rng = self.deployed()
        store, ledger, table = device.store, device.ledger, device.table
        rows_before, ledger_before, table_before = store.rows.copy(), copy.deepcopy(ledger), table.copy()
        rebuilt = []

        def failing_rebuild(*args, **kwargs):
            rebuilt.append(codec.reconstruct_table(*args, **kwargs))
            raise RuntimeError("the rebuild failed")

        monkeypatch.setattr(updater, "reconstruct_table", failing_rebuild)
        with pytest.raises(RuntimeError, match="rebuild failed"):
            device.receive(self.frame(device, rng, self.V, self.N, self.K))
        assert len(rebuilt) == 1 and not np.array_equal(rebuilt[0], table_before)
        assert device.store is store and device.ledger is ledger and device.table is table
        assert np.array_equal(store.rows, rows_before)
        assert ledger == ledger_before
        assert np.array_equal(table, table_before)

    def test_full_frame_must_carry_every_row(self):
        n, k, beta = 4, 2, 6
        rng = np.random.default_rng(5)
        delta = UpdateDelta(1, "full", beta, rng.normal(size=(beta, self.D)),
                            rng.integers(0, k, (self.V, n)).astype(np.int32), list(range(beta)))
        with pytest.raises(ValueError, match="full frame carries"):
            wire.encode_delta(delta, vocab=self.V, d=self.D, n=n, k=k)
        # the same frame built as a stack frame, relabelled full, CRC refreshed
        stack = wire.encode_delta(dataclasses.replace(delta, strategy="stack"),
                                  vocab=self.V, d=self.D, n=n, k=k)
        body = bytearray(stack[:-4])
        body[5] = wire.STRATEGY_CODES["full"]
        frame = bytes(body) + zlib.crc32(body).to_bytes(4, "little")
        device = DeviceSim("queue", "mean_pool", 0.5)
        with pytest.raises(FrameError) as exc:
            device.receive(frame)
        assert exc.value.check == "beta"
        assert device.store is None and device.ledger is None and device.table is None


class TestSimulate:
    def test_round_reports_and_ledgers(self, tmp_path):
        cfg = small_config(out=str(tmp_path / "sim"))
        result = run_simulate(cfg)
        assert len(result.reports) == 3
        dep = result.reports[0]
        assert dep.slice == 1 and dep.beta == cfg.n * cfg.k and dep.delta_bytes > 0
        for state in result.rounds:
            assert state.server_ledger == state.device_ledger
        cums = [r.cum_bytes for r in result.reports]
        deltas = [r.delta_bytes for r in result.reports]
        assert cums == list(np.cumsum(deltas))
        for rep in result.reports[1:]:
            assert rep.mmd > 0
            assert rep.r == cfg.r
        # frames persisted with the .odup extension
        assert (tmp_path / "sim" / "frames" / "round_01.odup").exists()

    def test_rerun_removes_stale_frames(self, tmp_path):
        out = tmp_path / "sim"
        run_simulate(small_config(out=str(out), rec_epochs=2, codec_epochs=5))
        (out / "frames" / "notes.txt").write_text("kept", encoding="utf-8")
        run_simulate(small_config(out=str(out), slices="1:1", rec_epochs=2, codec_epochs=5))
        assert sorted(p.name for p in (out / "frames").iterdir()) == [
            "notes.txt", "round_01.odup", "round_02.odup",
        ]
        assert len(json.loads((out / "report.json").read_text(encoding="utf-8"))) == 2

    def test_deploy_frame_rows_are_the_train_codec_store(self, tmp_path, monkeypatch):
        """perfbench's ServerTap takes the deploy store as
        ``pipeline.train_codec(...)[0]`` and checks device tables against its
        rows narrowed to float32. A deploy built by the update's own solver
        (ROADMAP item 3) must change this test and the tap together."""
        stores, train_codec = [], pipeline.train_codec

        def tap(*args, **kwargs):
            out = train_codec(*args, **kwargs)
            stores.append(out[0])
            return out

        monkeypatch.setattr(pipeline, "train_codec", tap)
        run_simulate(small_config(out=str(tmp_path / "sim")))
        [store] = stores
        frame = (tmp_path / "sim" / "frames" / "round_01.odup").read_bytes()
        assert wire.decode_delta(frame).new_rows.tobytes() == store.rows.astype(np.float32).tobytes()

    @pytest.mark.parametrize("strategy", ["queue", "stack"])
    def test_saved_frames_rebuild_the_oracle_table(self, tmp_path, strategy):
        """Every round's device table, replayed from the saved frames, is
        bitwise an oracle built without reconstruct_table: numpy writes each
        frame's float32 rows into their slots, and helpers.reconstruct_item
        sums every item's codewords in float32. The run's own lockstep check
        compares two reconstruct_table outputs, so it cannot see a rebuild
        that both sides get wrong alike."""
        cfg = small_config(strategy=strategy, out=str(tmp_path / "sim"))
        rounds = run_simulate(cfg).rounds
        device = DeviceSim(strategy, cfg.encoder, 0.5)
        rows = np.zeros((cfg.n * cfg.k, cfg.d), dtype=np.float32)
        for t, state in enumerate(rounds, start=1):
            frame = (tmp_path / "sim" / "frames" / f"round_{t:02d}.odup").read_bytes()
            assert frame == state.frame
            delta = device.receive(frame)
            rows[delta.replaced_slots] = delta.new_rows
            store = codec.CodebookStore(cfg.n, cfg.k, cfg.d, rows)
            oracle = np.array([reconstruct_item(store, code, dtype=np.float32) for code in delta.codes])
            assert device.table.dtype == oracle.dtype == np.float32
            assert device.table.tobytes() == oracle.tobytes()

    def test_deploy_rows_are_float32(self):
        cfg = small_config(codec_epochs=2)
        table = Rng(2).uniform((cfg.synth_vocab, cfg.d)).astype(np.float32)
        assert pipeline.deploy(cfg, table).new_rows.dtype == np.float32

    def test_stack_queue_differ_only_in_device_metrics(self, tmp_path):
        cfg_q = small_config(out=str(tmp_path / "q"), strategy="queue")
        cfg_s = small_config(out=str(tmp_path / "s"), strategy="stack")
        rq = run_simulate(cfg_q).reports
        rs = run_simulate(cfg_s).reports
        for a, b in zip(rq, rs):
            assert a.delta_bytes == b.delta_bytes
            assert a.cum_bytes == b.cum_bytes
            assert a.mmd == b.mmd
            assert a.r == b.r and a.beta == b.beta
            assert (a.cloud_p5, a.cloud_n5, a.cloud_p10, a.cloud_n10) == (
                b.cloud_p5, b.cloud_n5, b.cloud_p10, b.cloud_n10
            )

    def test_full_strategy_ships_everything(self, tmp_path):
        cfg = small_config(out=str(tmp_path / "full"), strategy="full")
        result = run_simulate(cfg)
        for rep in result.reports:
            assert rep.beta == cfg.n * cfg.k
            assert rep.cr_update == 1.0

    def adaptive_config(self, out, drift):
        # a half-data first slice keeps retraining jitter well below the
        # drift-induced table movement, so MMD separates the two regimes
        return small_config(
            out=out,
            ratio_mode="adaptive",
            slices="2:1:1",
            synth_sessions=2000,
            rec_epochs=16,
            synth_drift=drift,
            skip_threshold=0.0015,
        )

    def test_adaptive_updates_under_drift(self, tmp_path, calm_adaptive_run):
        calm_cfg, calm = calm_adaptive_run
        drifted_cfg = self.adaptive_config(str(tmp_path / "ad2"), drift=0.6)
        # the calm arm is this run without drift; r is not read when ratio_mode is adaptive
        assert dataclasses.replace(drifted_cfg, synth_drift=0.0, r=calm_cfg.r, out=calm_cfg.out) == calm_cfg
        drifted = run_simulate(drifted_cfg)
        drift_mmds = [r.mmd for r in drifted.reports[1:]]
        calm_mmds = [r.mmd for r in calm.reports[1:]]
        assert max(calm_mmds) < min(drift_mmds)
        # the calm arm skips every update (criterion 8), and a skipped round reports no r or beta
        assert all(r.r == 0.0 and r.beta == 0 for r in calm.reports[1:])
        assert all(r.delta_bytes > 0 for r in drifted.reports[1:])
        # adaptive ratios bounded below by ceil(1 / RATIO_C) = 5
        assert all(r.r >= 5 for r in drifted.reports[1:])

    def test_adaptive_tiny_mmd_ships_one_row(self, tmp_path, monkeypatch):
        # 2 sigmoid(1e-16) - 1 rounds to 0; the ratio is still finite and beta 1
        monkeypatch.setattr(pipeline, "mmd2", lambda *args: 1e-16)
        cfg = small_config(out=str(tmp_path / "ad"), ratio_mode="adaptive", skip_threshold=0.0)
        result = run_simulate(cfg)
        assert all(r.beta == 1 and r.delta_bytes > 0 for r in result.reports[1:])

    @pytest.mark.parametrize("epoch", [1, 2])
    def test_device_table_one_ulp_off_raises(self, tmp_path, monkeypatch, epoch):
        class DriftingDevice(DeviceSim):
            def receive(self, frame):
                delta = super().receive(frame)
                if self.epoch == epoch:
                    table = self.table.copy()
                    table[0, 0] = np.nextafter(table[0, 0], np.inf)
                    self.table = table
                return delta

        monkeypatch.setattr(pipeline, "DeviceSim", DriftingDevice)
        with pytest.raises(ProtocolError, match="lockstep"):
            run_simulate(small_config(out=str(tmp_path / "sim")))

    @pytest.mark.parametrize("epoch", [1, 2])
    @pytest.mark.parametrize("field", ["codes", "store"])
    def test_device_replica_one_step_off_raises(self, tmp_path, monkeypatch, field, epoch):
        # codes or store move while the table matches; the moved store row is
        # the next update's first slot, so no later table ever shows it
        class DriftingDevice(DeviceSim):
            def receive(self, frame):
                delta = super().receive(frame)
                if self.epoch == epoch:
                    if field == "codes":
                        self.codes = self.codes.copy()
                        self.codes[0, 0] = (self.codes[0, 0] + 1) % self.store.k
                    else:
                        row = plan_slots(self.ledger, self.strategy, 1)[0]
                        self.store = self.store.copy()
                        self.store.rows[row, 0] = np.nextafter(self.store.rows[row, 0], np.inf)
                return delta

        monkeypatch.setattr(pipeline, "DeviceSim", DriftingDevice)
        with pytest.raises(ProtocolError, match="lockstep"):
            run_simulate(small_config(out=str(tmp_path / "sim")))

    def test_server_frozen_row_change_raises(self, tmp_path, monkeypatch):
        retrain_update = pipeline.retrain_update

        def moving_retrain(prev_store, prev_codes, target, slots, *args, **kwargs):
            upd = retrain_update(prev_store, prev_codes, target, slots, *args, **kwargs)
            frozen = min(set(range(prev_store.rows.shape[0])) - set(slots))
            upd.store = upd.store.copy()
            upd.store.rows[frozen, 0] = np.nextafter(upd.store.rows[frozen, 0], np.inf)
            return upd

        monkeypatch.setattr(pipeline, "retrain_update", moving_retrain)
        with pytest.raises(ProtocolError, match="frozen"):
            run_simulate(small_config(out=str(tmp_path / "sim")))

    def test_updates_start_from_the_device_rows(self, tmp_path, monkeypatch):
        retrain_update, prev_rows = pipeline.retrain_update, []

        def recording_retrain(prev_store, *args, **kwargs):
            prev_rows.append(prev_store.rows)
            return retrain_update(prev_store, *args, **kwargs)

        monkeypatch.setattr(pipeline, "retrain_update", recording_retrain)
        run_simulate(small_config(out=str(tmp_path / "sim")))
        assert prev_rows
        for rows in prev_rows:
            assert np.array_equal(rows, rows.astype(np.float32))

    def test_skipped_round_updates_from_the_deployed_codes(self, tmp_path, monkeypatch):
        mmd2, retrain_update = pipeline.mmd2, pipeline.retrain_update
        mmd_calls, prev_codes = [], []

        def skip_round_2(*args):
            mmd_calls.append(args)
            return 0.0 if len(mmd_calls) == 1 else mmd2(*args)

        def recording_retrain(prev_store, codes, *args, **kwargs):
            prev_codes.append(codes)
            return retrain_update(prev_store, codes, *args, **kwargs)

        monkeypatch.setattr(pipeline, "mmd2", skip_round_2)
        monkeypatch.setattr(pipeline, "retrain_update", recording_retrain)
        result = run_simulate(small_config(out=str(tmp_path / "sim"), ratio_mode="adaptive"))
        assert [rep.beta > 0 for rep in result.reports] == [True, False, True]
        deployed = wire.decode_delta((tmp_path / "sim" / "frames" / "round_01.odup").read_bytes())
        [codes] = prev_codes
        assert codes.dtype == np.int32 and np.array_equal(codes, deployed.codes)

    def test_wall_timing_only_touches_secs(self, tmp_path):
        cfg_a = small_config(out=str(tmp_path / "w1"), timing="wall")
        cfg_b = small_config(out=str(tmp_path / "w2"), timing="wall")
        ra = run_simulate(cfg_a).reports
        rb = run_simulate(cfg_b).reports
        for a, b in zip(ra, rb):
            da, db = dataclasses.asdict(a), dataclasses.asdict(b)
            da.pop("secs"), db.pop("secs")
            assert da == db

    def test_csv_json_agree(self, tmp_path):
        run_simulate(small_config(out=str(tmp_path / "cj")))
        with open(tmp_path / "cj" / "report.json", encoding="utf-8") as fh:
            records = json.load(fh)
        assert assert_rows_match(tmp_path / "cj" / "report.csv", records) == list(REPORT_COLUMNS)


class TestReport:
    def test_side_by_side_and_tables(self, tmp_path):
        cfg_q = small_config(out=str(tmp_path / "queue"))
        cfg_s = small_config(out=str(tmp_path / "stack"), strategy="stack")
        run_simulate(cfg_q)
        run_simulate(cfg_s)
        summary = run_report([str(tmp_path / "queue"), str(tmp_path / "stack")], str(tmp_path / "agg"))
        assert "queue:dev_p10" in summary and "stack:dev_p10" in summary
        bytes_csv = (tmp_path / "agg" / "accuracy_vs_bytes.csv").read_text()
        assert bytes_csv.count("\n") == 1 + 2 * 3
        ratio_csv = (tmp_path / "agg" / "accuracy_vs_ratio.csv").read_text()
        assert "cr_total" in ratio_csv
        # every table row equals its run's report.json record; the ratio
        # table leaves out the slice-1 deploy
        rows = [{**rec, "run": name} for name in ("queue", "stack")
                for rec in json.loads((tmp_path / name / "report.json").read_text())]
        header = assert_rows_match(tmp_path / "agg" / "accuracy_vs_bytes.csv", rows)
        assert header == list(BYTES_COLUMNS)
        header = assert_rows_match(tmp_path / "agg" / "accuracy_vs_ratio.csv",
                                   [row for row in rows if row["slice"] != 1])
        assert header == list(RATIO_COLUMNS)

    def test_missing_report_errors(self, tmp_path):
        from odup.errors import DataError

        with pytest.raises(DataError, match="report"):
            run_report([str(tmp_path / "nope")], str(tmp_path / "agg"))

    @pytest.mark.parametrize("records", [
        [{"slice": 1}], [1],
        [valid_record(dev_p10="x")], [valid_record(dev_p10=None)], [valid_record(dev_p10=True)],
        [valid_record(slice="a")], [valid_record(slice=[1])], [valid_record(slice=1.0)],
        [valid_record(beta=False)], [valid_record(strategy=1)],
        [valid_record(slice=0)], [valid_record(slice=2), valid_record(slice=2)],
        [valid_record(slice=s) for s in (1, 2, 2, -3)],
        [valid_record(strategy="heap")], [valid_record(strategy="queue,1\nx")],
    ])
    def test_record_without_report_columns_errors(self, tmp_path, records):
        (tmp_path / "run").mkdir()
        (tmp_path / "run" / "report.json").write_text(json.dumps(records), encoding="utf-8")
        with pytest.raises(DataError, match="report column"):
            run_report([str(tmp_path / "run")], str(tmp_path / "agg"))

    def test_ratio_sweep_monotone_betas(self, tmp_path):
        from odup.updater import beta_from_ratio

        betas = [beta_from_ratio(4, 8, r) for r in (2, 5, 10, 20, 100)]
        assert betas == sorted(betas, reverse=True)


class TestBlasThreads:
    def test_report_bits_do_not_depend_on_blas_env(self, tmp_path):
        # at |V| 2000 and d 32 the products S @ X.T and DY @ X give other
        # bits at 2 BLAS threads than at 1, and two epochs over three slices
        # carry that into the report; importing odup pins BLAS to one thread
        # before numpy loads, so an unset environment gives the bits of one
        # set to 1
        cfgfile = tmp_path / "exp.cfg"
        cfgfile.write_text("slices = 1:1:1\nsynth_vocab = 2000\nsynth_sessions = 3000\nd = 32\n"
                           "rec_epochs = 2\nn = 4\nk = 16\ncodec_epochs = 2\ntiming = zero\n",
                           encoding="utf-8")
        src = os.path.dirname(os.path.dirname(cli.__file__))
        reports = []
        for threads in (None, "1"):
            env = {k: v for k, v in os.environ.items() if k not in odup._BLAS_VARS}
            if threads is not None:
                env.update(dict.fromkeys(odup._BLAS_VARS, threads))
            env["PYTHONPATH"] = os.pathsep.join([src] + [p for p in [env.get("PYTHONPATH")] if p])
            out = tmp_path / f"threads-{threads}"
            run = subprocess.run(
                [sys.executable, "-c", "import sys; from odup.cli import main; sys.exit(main(sys.argv[1:]))",
                 "--config", str(cfgfile), "--out", str(out), "simulate"],
                env=env, capture_output=True, text=True, timeout=300,
            )
            assert run.returncode == 0, run.stderr
            reports.append((out / "report.json").read_bytes())
        assert reports[0] == reports[1]


class TestHeapTop:
    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="mallopt's M_TOP_PAD is glibc's")
    def test_repeated_training_faults_in_few_fresh_pages(self):
        # importing odup keeps 64 MiB of freed heap top mapped; glibc's
        # default trims it, and a train_codec call at c4-queue's shape then
        # faults tens of thousands of pages back in for its temporaries
        src = os.path.dirname(os.path.dirname(cli.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        code = ("import resource\n"
                "import odup\n"
                "from odup.codec import CodecConfig, train_codec\n"
                "from odup.numkit import Rng\n"
                "X = Rng(1).uniform((300, 16)) * 0.2 - 0.1\n"
                "cfg = CodecConfig(8, 16, 0.2, 100, 256, 1)\n"
                "train_codec(X, cfg)\n"
                "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
                "train_codec(X, cfg)\n"
                "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n")
        run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                             timeout=120)
        assert run.returncode == 0, run.stderr
        assert int(run.stdout) < 1000


class TestCli:
    def test_synth_then_simulate_from_file(self, tmp_path):
        out = tmp_path / "synthdata"
        code = cli.main(["--out", str(out), "--seed", "3", "synth"])
        assert code == 0
        events = out / "events.tsv"
        assert events.exists()

        cfgfile = tmp_path / "exp.cfg"
        cfgfile.write_text(
            f"data = {events}\n"
            "slices = 1:1\n"
            "d = 8\n"
            "rec_epochs = 2\n"
            "n = 4\n"
            "k = 8\n"
            "codec_epochs = 10\n"
            "r = 2\n"
            "timing = zero\n"
            "seed = 5\n",
            encoding="utf-8",
        )
        code = cli.main(["--config", str(cfgfile), "--out", str(tmp_path / "simout"), "simulate"])
        assert code == 0
        assert (tmp_path / "simout" / "report.csv").exists()

    # malformed or out-of-range values that the key test below does not try
    @pytest.mark.parametrize("line", [
        "slices = abc", "d = 1", "delimiter =", "r = nan", "l2 = nan", "skip_threshold = nan",
        "out =", "seed = banana",
    ])
    def test_invalid_setting_exit_2(self, tmp_path, line, capsys):
        cfgfile = tmp_path / "bad.cfg"
        cfgfile.write_text(line + "\n", encoding="utf-8")
        assert cli.main(["--config", str(cfgfile), "--out", str(tmp_path / "o"), "simulate"]) == 2
        assert capsys.readouterr().err.startswith("config error: ")

    @pytest.mark.parametrize("lines, key", [
        ("rec_epochs = 0", "rec_epochs"), ("codec_epochs = -1", "codec_epochs"),
        ("codec_batch = 0", "codec_batch"), ("n = 0", "n"), ("k = 0", "k"), ("n = 3\nk = 3", "n * k"),
        ("tau = 0", "tau"), ("l2 = -1", "l2"), ("synth_vocab = 10", "synth_vocab"),
        ("synth_sessions = 50", "synth_sessions"), ("synth_drift = 1.5", "synth_drift"),
        ("synth_clusters = 0", "synth_clusters"), ("mmd_samples = 1", "mmd_samples"),
        ("slices = 1:0:2", "slices"), ("n = 65536", "n"), ("k = 65536", "k"),
        ("strategy = heap", "strategy"), ("ratio_mode = auto", "ratio_mode"),
        ("timing = cpu", "timing"), ("encoder = gru", "encoder"), ("data =", "data"),
        # beyond numpy's index range, refused before any array is sized
        (f"n = 30\nsynth_vocab = {10**23}", "synth_vocab"), (f"synth_sessions = {10**30}", "synth_sessions"),
        (f"synth_clusters = {10**30}", "synth_clusters"), (f"d = {10**30}", "d"),
    ])
    def test_out_of_range_setting_names_its_key(self, tmp_path, lines, key, capsys):
        cfgfile = tmp_path / "bad.cfg"
        cfgfile.write_text(lines + "\n", encoding="utf-8")
        assert cli.main(["--config", str(cfgfile), "--out", str(tmp_path / "o"), "simulate"]) == 2
        assert capsys.readouterr().err.startswith((f"config error: {key} ", f"config error: {key}: "))

    @pytest.mark.parametrize("command", ["simulate", "synth"])
    @pytest.mark.parametrize("n_slices", [100, 101])
    def test_fewer_synth_sessions_than_slices_exit_2(self, tmp_path, monkeypatch, capsys, command, n_slices):
        # with no session left for the test set, a run would train and then
        # fail to evaluate; the config is refused before any data is made
        def no_training(*args):
            raise AssertionError("trained on a refused config")

        monkeypatch.setattr(pipeline, "train", no_training)
        cfgfile = tmp_path / "few.cfg"
        cfgfile.write_text(f"slices = {':'.join(['1'] * n_slices)}\nsynth_sessions = 100\n", encoding="utf-8")
        assert cli.main(["--config", str(cfgfile), "--out", str(tmp_path / "o"), command]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: synth_sessions ") and f"{n_slices} slices" in err
        assert not (tmp_path / "o").exists()

    # keys that became constants, and one that never was a key
    @pytest.mark.parametrize("key", [
        "session_gap", "min_len", "max_len", "top_items", "test_frac", "synth_len_min",
        "synth_len_max", "rec_lr", "batch", "codec_lr", "C", "no_such_key",
    ])
    def test_constant_is_an_unknown_key_exit_2(self, tmp_path, key, capsys):
        cfgfile = tmp_path / "old.cfg"
        cfgfile.write_text(f"{key} = 1\n", encoding="utf-8")
        assert cli.main(["--config", str(cfgfile), "--out", str(tmp_path / "o"), "synth"]) == 2
        assert f"unknown key {key!r}" in capsys.readouterr().err

    @pytest.mark.parametrize("command, epochs", [("simulate", 1), ("simulate", 0)])
    def test_tiny_tau_diverges_exit_4(self, tmp_path, capsys, command, epochs):
        # logits / tau overflow; without a codec epoch the final loss is the
        # one that is non-finite, and no report is written with it
        cfgfile = tmp_path / "exp.cfg"
        cfgfile.write_text("slices = 1:1\nsynth_vocab = 60\nsynth_sessions = 200\nd = 4\n"
                           f"rec_epochs = 1\nn = 4\nk = 8\ntau = 1e-320\ncodec_epochs = {epochs}\n",
                           encoding="utf-8")
        out = tmp_path / "o"
        assert cli.main(["--config", str(cfgfile), "--out", str(out), command]) == 4
        err = capsys.readouterr().err
        assert err.startswith("training diverged: ") and "codec loss" in err
        assert not (out / "report.json").exists()

    def test_negative_seed_exit_2(self, tmp_path, capsys):
        assert cli.main(["--seed", "-1", "--out", str(tmp_path / "o"), "simulate"]) == 2
        assert capsys.readouterr().err.startswith("config error: ")

    # log is the event log's text, written in latin-1, or a Path (under
    # tmp_path if relative) given as data; a refusal that starts with a
    # whole line is matched exactly
    @pytest.mark.parametrize("log, settings, start, part", [
        pytest.param(Path("/does/not/exist.tsv"), "", "data error: cannot read event log "
                     "/does/not/exist.tsv: No such file or directory\n", "", id="missing"),
        pytest.param(Path("."), "", "data error: cannot read event log", "", id="directory"),
        pytest.param("", "", "data error: event log is empty", "", id="empty"),
        pytest.param("u1\tcaf\u00e9\t1.0\nu1\tb\t2.0\n", "", "data error: ", "not UTF-8", id="non-utf8"),
        pytest.param("".join(f"u{s}\ti{(s + j) % 6}\t{j}.0\n" for s in range(40) for j in range(4)), "",
                     "data error: ", "6 items are fewer than", id="vocabulary-below-report-k"),
        # 12 sessions leave 11 for training, and the default slices give slice 1 none of them
        pytest.param("".join(f"u{s}\ti{(s + j) % 12}\t{1000 * s + j}.0\n" for s in range(12) for j in range(3)),
                     "", "data error: slices = 1:3:6:10:15: slice 1 of 5 gets none of the 11 training "
                     "sessions\n", "", id="empty-slice"),
        # one user's 11 events within the session gap: one session, so no test set
        pytest.param("".join(f"u0\ti{j}\t{j}.0\n" for j in range(11)), "slices = 1\n",
                     "data error: 1 session(s)", "at least 2", id="single-session"),
    ])
    def test_unusable_data_exit_3_before_training(self, tmp_path, monkeypatch, capsys, log, settings, start,
                                                   part):
        def no_training(*args, **kwargs):
            raise AssertionError("a model was trained on unusable data")

        monkeypatch.setattr(pipeline, "train", no_training)
        if isinstance(log, Path):
            data = tmp_path / log
        else:
            data = tmp_path / "events.tsv"
            data.write_text(log, encoding="latin-1")
        cfgfile = tmp_path / "exp.cfg"
        cfgfile.write_text(f"data = {data}\n{settings}", encoding="utf-8")
        assert cli.main(["--config", str(cfgfile), "--out", str(tmp_path / "o"), "simulate"]) == 3
        err = capsys.readouterr().err
        assert err.startswith(start) and part in err and err.count("\n") == 1
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["synth", "simulate", "report"])
    def test_out_naming_a_file_exit_2(self, tmp_path, capsys, monkeypatch, command):
        def no_training(*args, **kwargs):
            raise AssertionError("a model was trained before the output directory was made")

        monkeypatch.setattr(pipeline, "train", no_training)
        monkeypatch.setattr(pipeline, "train_codec", no_training)
        write_reports(str(tmp_path / "run"), [RoundReport(**valid_record())])
        out = tmp_path / "taken"
        out.write_text("not a directory\n", encoding="utf-8")
        args = ["report", str(tmp_path / "run")] if command == "report" else [command]
        assert cli.main(["--out", str(out), *args]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: cannot write") and err.count("\n") == 1

    def test_out_of_memory_exit_2(self, capsys):
        def command():
            raise MemoryError("Unable to allocate 95.4 GiB for an array with shape (100000000, 128)")

        assert cli.run_guarded(command) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: out of memory: Unable to allocate") and err.count("\n") == 1

    def test_report_command(self, tmp_path):
        cfg = small_config(out=str(tmp_path / "runA"))
        run_simulate(cfg)
        assert cli.main(["--out", str(tmp_path / "agg"), "report", str(tmp_path / "runA")]) == 0

    def test_report_same_run_names_exit_2(self, tmp_path, capsys):
        rep = RoundReport(**valid_record())
        runs = [str(tmp_path / side / "run") for side in ("a", "b")]
        for run in runs:
            write_reports(run, [rep])
        assert cli.main(["--out", str(tmp_path / "agg"), "report", *runs]) == 2
        assert "'run'" in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["a,b", 'a"b', "a\rb", "a\nb"])
    def test_report_run_name_unfit_for_csv_exit_2(self, tmp_path, capsys, name):
        run = tmp_path / name
        write_reports(str(run), [RoundReport(**valid_record())])
        assert cli.main(["--out", str(tmp_path / "agg"), "report", str(run)]) == 2
        assert "run name" in capsys.readouterr().err
        assert not (tmp_path / "agg").exists()

    @pytest.mark.parametrize("source", ["synth", "log"])
    def test_code_space_checked_before_training_exit_2(self, tmp_path, monkeypatch, capsys, source):
        # k^n = 2^1 = 2 codes cannot tell 12 (or 120) items apart; a synth
        # config is refused before any session is drawn
        def no_draw(*args, **kwargs):
            raise AssertionError("sessions were drawn before the code space was checked")

        calls = []
        monkeypatch.setattr(pipeline, "train", lambda *args: calls.append(args))
        monkeypatch.setattr(pipeline, "synth_generate", no_draw)
        lines = "n = 1\nk = 2\n"
        if source == "synth":
            lines += "synth_vocab = 120\nsynth_sessions = 300\n"
        else:
            log = tmp_path / "events.tsv"
            log.write_text("".join(f"u{s}\ti{(s + j) % 12}\t{j}.0\n" for s in range(40) for j in range(4)),
                           encoding="utf-8")
            lines += f"data = {log}\n"
        cfgfile = tmp_path / "exp.cfg"
        cfgfile.write_text(lines, encoding="utf-8")
        assert cli.main(["--config", str(cfgfile), "--out", str(tmp_path / "o"), "simulate"]) == 2
        assert "code space k^n = 2^1 <= vocab" in capsys.readouterr().err
        assert calls == []
        assert not (tmp_path / "o").exists()

    def test_usage_error_exit_2(self):
        with pytest.raises(SystemExit) as exc:
            cli.main([])
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv", [["train"], ["compress", "--table", "t.ckpt"]],
                             ids=["train", "compress"])
    def test_removed_subcommand_exit_2(self, tmp_path, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["--out", str(tmp_path / "o"), *argv])
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_mmd_sample_too_large_exit_2(self, tmp_path, monkeypatch, capsys):
        # every row of 5000 items pools 10000 rows, over MMD_POOL_MAX = 8192,
        # refused before any session is drawn
        def no_training(*args, **kwargs):
            raise AssertionError("a model was trained before the MMD sample was checked")

        def no_draw(*args, **kwargs):
            raise AssertionError("sessions were drawn before the MMD sample was checked")

        monkeypatch.setattr(pipeline, "train", no_training)
        monkeypatch.setattr(pipeline, "synth_generate", no_draw)
        cfgfile = tmp_path / "exp.cfg"
        cfgfile.write_text("synth_vocab = 5000\nmmd_samples = 0\n", encoding="utf-8")
        assert cli.main(["--config", str(cfgfile), "--out", str(tmp_path / "o"), "simulate"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and "pools 10000 rows" in err
        assert not (tmp_path / "o").exists()

    def test_divergence_exit_4(self, monkeypatch, tmp_path):
        from odup.errors import ProtocolError, TrainingDiverged

        monkeypatch.setattr(
            cli, "run_simulate", lambda cfg: (_ for _ in ()).throw(TrainingDiverged("boom"))
        )
        assert cli.main(["--out", str(tmp_path / "x"), "simulate"]) == 4
        monkeypatch.setattr(
            cli, "run_simulate", lambda cfg: (_ for _ in ()).throw(ProtocolError("split"))
        )
        assert cli.main(["--out", str(tmp_path / "x"), "simulate"]) == 5

    def test_synth_generates_once_and_caches_it(self, tmp_path, monkeypatch):
        calls, synth_generate = [], pipeline.synth_generate

        def counted(*args, **kwargs):
            calls.append(1)
            return synth_generate(*args, **kwargs)

        monkeypatch.setattr(pipeline, "synth_generate", counted)
        log = tmp_path / "other.tsv"
        log.write_text("u1\ta\t1.0\nu1\tb\t2.0\nu2\tb\t3.0\nu2\ta\t4.0\n", encoding="utf-8")
        cfgfile = tmp_path / "exp.cfg"
        cfgfile.write_text(f"data = {log}\n", encoding="utf-8")
        out = tmp_path / "sd"
        assert cli.main(["--config", str(cfgfile), "--out", str(out), "--seed", "3", "synth"]) == 0
        assert len(calls) == 1

    def test_synth_writes_the_event_log_only(self, tmp_path):
        out = tmp_path / "sd"
        assert cli.main(["--out", str(out), "--seed", "3", "synth"]) == 0
        assert os.listdir(out) == ["events.tsv"]

    def test_old_dataset_cache_is_read_as_a_log_exit_3(self, tmp_path, capsys):
        cache = tmp_path / "data.cache"
        cache.write_bytes(b"\x02\x2c\x01\x00\x00\x07\x00i\xff\xfe")
        cfgfile = tmp_path / "exp.cfg"
        cfgfile.write_text(f"data = {cache}\n", encoding="utf-8")
        assert cli.main(["--config", str(cfgfile), "--out", str(tmp_path / "o"), "simulate"]) == 3
        assert "not UTF-8" in capsys.readouterr().err

