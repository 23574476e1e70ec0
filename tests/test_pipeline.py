import copy
import dataclasses
import json
import os
import warnings

import numpy as np
import pytest

import odup.cli as cli
from odup import wire
from odup.errors import ConfigError, DimensionMismatch
from odup.pipeline import (
    CSV_COLUMNS, DeviceSim, ExperimentConfig, load_config, run_report, run_simulate, run_train,
)
from odup.updater import UpdateDelta, plan_slots

pytestmark = pytest.mark.filterwarnings("ignore::UserWarning")


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

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text("no_such_key = 1\n", encoding="utf-8")
        with pytest.raises(ConfigError):
            load_config(path)

    def test_bad_value_rejected(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text("seed = banana\n", encoding="utf-8")
        with pytest.raises(ConfigError):
            load_config(path)

    def test_bad_strategy_rejected(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(strategy="heap")


class TestRunTrain:
    def test_checkpoints_and_improvement(self, tmp_path):
        cfg = small_config(
            out=str(tmp_path / "train"),
            slices="1:1",
            synth_drift=0.0,
            rec_epochs=8,
            synth_sessions=900,
        )
        metas = run_train(cfg)
        assert len(metas) == 2
        for t in (1, 2):
            assert os.path.exists(tmp_path / "train" / f"slice_{t:02d}.ckpt")
        # drift-free data: the slice-2 model saw strictly more of the same
        # distribution, so held-out precision should not degrade
        assert metas[1]["test_p10"] >= metas[0]["test_p10"]

    def test_bitwise_deterministic_checkpoints(self, tmp_path):
        cfg1 = small_config(out=str(tmp_path / "a"), slices="1:1", rec_epochs=4)
        cfg2 = small_config(out=str(tmp_path / "b"), slices="1:1", rec_epochs=4)
        run_train(cfg1)
        run_train(cfg2)
        for t in (1, 2):
            a = (tmp_path / "a" / f"slice_{t:02d}.ckpt").read_bytes()
            b = (tmp_path / "b" / f"slice_{t:02d}.ckpt").read_bytes()
            assert a == b


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

    def test_adaptive_skips_on_no_drift(self, tmp_path):
        cfg = self.adaptive_config(str(tmp_path / "ad"), drift=0.0)
        result = run_simulate(cfg)
        deploy = result.reports[0].delta_bytes
        assert all(r.delta_bytes == 0 for r in result.reports[1:])
        assert all(r.r == 0.0 and r.beta == 0 for r in result.reports[1:])
        assert result.reports[-1].cum_bytes == deploy

    def test_adaptive_updates_under_drift(self, tmp_path):
        drifted = run_simulate(self.adaptive_config(str(tmp_path / "ad2"), drift=0.6))
        calm = run_simulate(self.adaptive_config(str(tmp_path / "ad0"), drift=0.0))
        drift_mmds = [r.mmd for r in drifted.reports[1:]]
        calm_mmds = [r.mmd for r in calm.reports[1:]]
        assert max(calm_mmds) < min(drift_mmds)
        assert all(r.delta_bytes > 0 for r in drifted.reports[1:])
        # adaptive ratios bounded below by ceil(1/C) = 5 with the default C
        assert all(r.r >= 5 for r in drifted.reports[1:])

    def test_byte_identical_reports(self, tmp_path):
        cfg_a = small_config(out=str(tmp_path / "r1"))
        cfg_b = small_config(out=str(tmp_path / "r2"))
        ra = run_simulate(cfg_a)
        rb = run_simulate(cfg_b)
        assert (tmp_path / "r1" / "report.csv").read_bytes() == (tmp_path / "r2" / "report.csv").read_bytes()
        assert (tmp_path / "r1" / "report.json").read_bytes() == (tmp_path / "r2" / "report.json").read_bytes()

    def test_wall_timing_only_touches_secs(self, tmp_path):
        cfg_a = small_config(out=str(tmp_path / "w1"), timing="wall")
        cfg_b = small_config(out=str(tmp_path / "w2"), timing="wall")
        ra = run_simulate(cfg_a).reports
        rb = run_simulate(cfg_b).reports
        for a, b in zip(ra, rb):
            da, db = a.to_dict(), b.to_dict()
            da.pop("secs"), db.pop("secs")
            assert da == db

    def test_csv_json_agree(self, tmp_path):
        cfg = small_config(out=str(tmp_path / "cj"))
        result = run_simulate(cfg)
        with open(result.json_path, encoding="utf-8") as fh:
            records = json.load(fh)
        with open(result.csv_path, encoding="utf-8") as fh:
            header = fh.readline().strip().split(",")
            rows = [line.strip().split(",") for line in fh]
        assert header == CSV_COLUMNS.split(",")
        assert len(rows) == len(records)
        for row, rec in zip(rows, records):
            for col, cell in zip(header, row):
                expected = rec[col]
                if isinstance(expected, float):
                    assert float(cell) == expected
                else:
                    assert type(expected)(cell) == expected


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

    def test_missing_report_errors(self, tmp_path):
        from odup.errors import DataError

        with pytest.raises(DataError, match="report"):
            run_report([str(tmp_path / "nope")], str(tmp_path / "agg"))

    def test_ratio_sweep_monotone_betas(self, tmp_path):
        from odup.updater import beta_from_ratio

        betas = [beta_from_ratio(4, 8, r) for r in (2, 5, 10, 20, 100)]
        assert betas == sorted(betas, reverse=True)


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
            "session_gap = 1000000\n"
            "min_len = 2\n"
            "max_len = 50\n"
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

    def test_bad_config_exit_2(self, tmp_path):
        cfgfile = tmp_path / "bad.cfg"
        cfgfile.write_text("strategy = heap\n", encoding="utf-8")
        assert cli.main(["--config", str(cfgfile), "simulate"]) == 2

    @pytest.mark.parametrize("line", [
        "slices = 1:0:2", "slices = abc", "d = 1", "C = 5", "mmd_samples = 1", "rec_lr = 5",
        "test_frac = 1.5",
    ])
    def test_invalid_setting_exit_2(self, tmp_path, line, capsys):
        cfgfile = tmp_path / "bad.cfg"
        cfgfile.write_text(line + "\n", encoding="utf-8")
        assert cli.main(["--config", str(cfgfile), "--out", str(tmp_path / "o"), "simulate"]) == 2
        assert capsys.readouterr().err.startswith("config error: ")

    def test_missing_data_exit_3(self, tmp_path):
        cfgfile = tmp_path / "exp.cfg"
        cfgfile.write_text("data = /does/not/exist.tsv\n", encoding="utf-8")
        assert cli.main(["--config", str(cfgfile), "--out", str(tmp_path / "o"), "simulate"]) == 3

    def test_empty_data_exit_3(self, tmp_path):
        empty = tmp_path / "empty.tsv"
        empty.write_text("", encoding="utf-8")
        cfgfile = tmp_path / "exp.cfg"
        cfgfile.write_text(f"data = {empty}\n", encoding="utf-8")
        assert cli.main(["--config", str(cfgfile), "--out", str(tmp_path / "o"), "simulate"]) == 3

    def test_train_and_compress(self, tmp_path):
        out = tmp_path / "train"
        cfgfile = tmp_path / "exp.cfg"
        cfgfile.write_text(
            "slices = 1:1\n"
            "synth_vocab = 80\n"
            "synth_sessions = 300\n"
            "d = 8\n"
            "rec_epochs = 2\n"
            "n = 2\n"
            "k = 8\n"
            "codec_epochs = 15\n"
            "timing = zero\n",
            encoding="utf-8",
        )
        assert cli.main(["--config", str(cfgfile), "--out", str(out), "train"]) == 0
        ckpt = out / "slice_02.ckpt"
        assert ckpt.exists()
        assert cli.main([
            "--config", str(cfgfile), "--out", str(tmp_path / "comp"),
            "compress", "--table", str(ckpt),
        ]) == 0
        assert (tmp_path / "comp" / "model.odcm").exists()

    def test_report_command(self, tmp_path):
        cfg = small_config(out=str(tmp_path / "runA"))
        run_simulate(cfg)
        assert cli.main(["--out", str(tmp_path / "agg"), "report", str(tmp_path / "runA")]) == 0

    def test_usage_error_exit_2(self):
        with pytest.raises(SystemExit) as exc:
            cli.main([])
        assert exc.value.code == 2

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

    def test_synth_cache_round_trip(self, tmp_path):
        out = tmp_path / "sd"
        assert cli.main(["--out", str(out), "--seed", "3", "synth"]) == 0
        cache = out / "data.cache"
        assert cache.exists()
        # simulating from the cache reproduces the in-memory synth data
        from odup.numkit import Rng
        from odup.pipeline import prepare_data

        base = ExperimentConfig(seed=3)
        direct = prepare_data(base, Rng(3))
        cached = prepare_data(dataclasses.replace(base, data=str(cache)), Rng(3))
        assert [s.pairs for s in cached.slices] == [s.pairs for s in direct.slices]
        assert cached.test.pairs == direct.test.pairs
