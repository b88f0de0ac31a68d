"""Run configs, grid search, run directories, and the comparison table."""

import json
from pathlib import Path

import numpy as np
import pytest

from sste.data import generate_synthetic, save_tsv
from sste.errors import ParseError, SsteError, ValidationError
from sste.experiment import (
    GridSpec,
    RunConfig,
    load_config,
    load_grid,
    make_table,
    run_grid,
    run_one,
    save_config,
)
from sste.model import InitSpec
from sste.propensity import estimate_popularity_propensity
from sste.seeding import derive_seed
from sste.selfsample import train_family, val_family
from sste.train import TrainConfig, fit

from test_data import small_spec


def quick_cfg(tmp_path, **overrides):
    base = dict(
        synthetic=True, n_users=30, n_items=20, latent_dim=4,
        exposure_bias_strength=1.5, positive_threshold=0.3,
        train_impressions=1500, test_impressions=600, data_seed=1,
        objective="naive", gamma=1.0, floor=0.01,
        embedding_dim=4, init_scale=0.1, learning_rate=0.01,
        l2_lambda=1e-5, batch_size=256, max_epochs=3, patience=3,
        seed=0, out_dir=str(tmp_path / "runs"),
    )
    base.update(overrides)
    return RunConfig(**base)


class TestRunConfig:
    def test_run_id_ignores_the_output_directory(self, tmp_path):
        a = quick_cfg(tmp_path, out_dir="x")
        b = quick_cfg(tmp_path, out_dir="y")
        assert a.run_id == b.run_id

    def test_run_id_tracks_real_settings(self, tmp_path):
        a = quick_cfg(tmp_path, learning_rate=0.01)
        b = quick_cfg(tmp_path, learning_rate=0.02)
        assert a.run_id != b.run_id

    def test_run_id_is_stable_across_processes(self, tmp_path):
        # A fixed config must map to a fixed id; this value is frozen.
        cfg = RunConfig()
        assert cfg.run_id == RunConfig().run_id
        assert len(cfg.run_id) == 16
        assert all(c in "0123456789abcdef" for c in cfg.run_id)

    def test_joint_objective_requires_train_thresholds(self, tmp_path):
        with pytest.raises(ValidationError):
            quick_cfg(tmp_path, objective="sste")

    def test_train_thresholds_are_exclusive_to_the_joint_objective(
        self, tmp_path
    ):
        with pytest.raises(ValidationError):
            quick_cfg(tmp_path, objective="ips", epsilon_train=(0.5,))

    def test_file_mode_needs_a_test_path(self, tmp_path):
        with pytest.raises(ValidationError):
            quick_cfg(tmp_path, synthetic=False, train_path="a.tsv")
        # With val_path the config can train (sste train), but not run.
        result = run_one(quick_cfg(tmp_path, synthetic=False,
                                   train_path="a.tsv", val_path="b.tsv"))
        assert (result.status, result.stage) == ("failed", "data")
        assert "test_path" in result.error

    def test_unknown_objective_is_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            quick_cfg(tmp_path, objective="dr")

    @pytest.mark.parametrize("line", [
        "ndcg_k=0", "precision_ks=0", "precision_ks=5,-1",
    ])
    def test_cutoffs_below_one_are_rejected_on_load(self, tmp_path, line):
        path = tmp_path / "run.cfg"
        path.write_text(line + "\n")
        with pytest.raises(ValidationError, match=">= 1"):
            load_config(path)


class TestConfigFiles:
    def test_round_trip(self, tmp_path):
        cfg = quick_cfg(tmp_path, objective="sste", epsilon_train=(0.5, 0.7),
                        epsilon_val=(0.5,))
        path = tmp_path / "run.cfg"
        save_config(cfg, path)
        assert load_config(path) == cfg

    def test_overrides_win(self, tmp_path):
        cfg = quick_cfg(tmp_path)
        path = tmp_path / "run.cfg"
        save_config(cfg, path)
        loaded = load_config(path, learning_rate=0.5)
        assert loaded.learning_rate == 0.5

    def test_comments_and_blanks_are_skipped(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("# comment\n\nlearning_rate=0.25\n")
        assert load_config(path).learning_rate == 0.25

    def test_unknown_key_reports_its_line(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("learning_rate=0.1\nnot_a_field=3\n")
        with pytest.raises(ParseError, match="line 2"):
            load_config(path)

    def test_bad_value_reports_its_line(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("batch_size=many\n")
        with pytest.raises(ParseError, match="line 1"):
            load_config(path)

    def test_tuple_fields_parse_comma_lists(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(
            "objective=sste\nepsilon_train=0.3,0.5\nepsilon_val=0.5\n"
            "precision_ks=5,10\n"
        )
        cfg = load_config(path)
        assert cfg.epsilon_train == (0.3, 0.5)
        assert cfg.epsilon_val == (0.5,)

    def test_booleans_accept_words(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("synthetic=false\ntest_path=t.tsv\n")
        assert load_config(path).synthetic is False


class TestGridSpec:
    def test_full_product_in_sorted_name_order(self):
        grid = GridSpec(values={"learning_rate": (0.1, 0.2),
                                "batch_size": (16, 32)})
        combos = grid.combinations()
        assert len(combos) == 4
        assert combos[0] == {"batch_size": 16, "learning_rate": 0.1}
        assert combos[-1] == {"batch_size": 32, "learning_rate": 0.2}

    def test_random_mode_draws_distinct_cells(self):
        grid = GridSpec(
            values={"learning_rate": tuple(float(x) for x in range(100)),
                    "l2_lambda": tuple(float(x) for x in range(100))},
            mode="random", samples=10, grid_seed=4,
        )
        combos = grid.combinations()
        assert len(combos) == 10
        assert len({tuple(sorted(c.items())) for c in combos}) == 10

    def test_random_mode_is_seeded(self):
        kwargs = dict(
            values={"learning_rate": tuple(float(x) for x in range(50))},
            mode="random", samples=5,
        )
        a = GridSpec(grid_seed=1, **kwargs).combinations()
        b = GridSpec(grid_seed=1, **kwargs).combinations()
        c = GridSpec(grid_seed=2, **kwargs).combinations()
        assert a == b
        assert a != c

    def test_random_mode_caps_at_the_product_size(self):
        grid = GridSpec(values={"batch_size": (16, 32)}, mode="random",
                        samples=10, grid_seed=0)
        assert len(grid.combinations()) == 2

    def test_unknown_field_is_rejected(self):
        with pytest.raises(ValidationError):
            GridSpec(values={"not_a_field": (1,)})

    def test_list_valued_fields_cannot_be_swept(self):
        with pytest.raises(ValidationError):
            GridSpec(values={"epsilon_train": ((0.5,), (0.7,))})

    def test_empty_value_list_is_rejected(self):
        with pytest.raises(ValidationError):
            GridSpec(values={"batch_size": ()})

    def test_load_grid_parses_control_keys_and_values(self, tmp_path):
        path = tmp_path / "grid.cfg"
        path.write_text(
            "mode=random\nsamples=3\ngrid_seed=7\n"
            "learning_rate=0.001,0.01\nbatch_size=512,4096\n"
        )
        grid = load_grid(path)
        assert grid.mode == "random"
        assert grid.samples == 3
        assert grid.values["learning_rate"] == (0.001, 0.01)

    def test_load_grid_rejects_unknown_keys(self, tmp_path):
        path = tmp_path / "grid.cfg"
        path.write_text("verbosity=3\n")
        with pytest.raises(ParseError):
            load_grid(path)

    @pytest.mark.parametrize("line", ["samples=x", "grid_seed=1.5"])
    def test_load_grid_bad_control_value_reports_its_line(self, tmp_path, line):
        path = tmp_path / "grid.cfg"
        path.write_text("mode=random\n" + line + "\nbatch_size=16,32\n")
        with pytest.raises(ParseError, match="line 2"):
            load_grid(path)


class TestRunOne:
    def test_writes_the_full_artifact_set(self, tmp_path):
        cfg = quick_cfg(tmp_path)
        result = run_one(cfg)
        assert result.status == "ok"
        run_dir = Path(result.run_dir)
        assert run_dir.name == f"run-{cfg.run_id}"
        for name in ("config.txt", "config.json", "epochs.jsonl",
                     "model.ckpt", "report.json", "status.json"):
            assert (run_dir / name).exists(), name
        status = json.loads((run_dir / "status.json").read_text())
        assert status["status"] == "ok"
        assert status["elapsed_seconds"] >= 0.0
        report = json.loads((run_dir / "report.json").read_text())
        for key in ("auc", "p@5", "p@10", "r@5", "r@10", "ndcg@50"):
            assert key in report["test_metrics"]
        lines = (run_dir / "epochs.jsonl").read_text().splitlines()
        assert len(lines) == report["epochs_run"]
        first = json.loads(lines[0])
        assert first["epoch"] == 1
        assert "loss" in first and "modified_score" in first

    def test_repeat_runs_are_byte_identical(self, tmp_path):
        cfg_a = quick_cfg(tmp_path, out_dir=str(tmp_path / "a"))
        cfg_b = quick_cfg(tmp_path, out_dir=str(tmp_path / "b"))
        ra = run_one(cfg_a)
        rb = run_one(cfg_b)
        assert ra.run_id == rb.run_id
        for name in ("epochs.jsonl", "report.json", "model.ckpt"):
            assert (Path(ra.run_dir) / name).read_bytes() == (
                Path(rb.run_dir) / name
            ).read_bytes(), name

    def test_joint_objective_runs_and_logs_aux_scores(self, tmp_path):
        cfg = quick_cfg(tmp_path, objective="sste", epsilon_train=(0.5,),
                        epsilon_val=(0.5,))
        result = run_one(cfg)
        assert result.status == "ok"
        first = json.loads(
            (Path(result.run_dir) / "epochs.jsonl").read_text().splitlines()[0]
        )
        assert len(first["aux_scores"]) == 1
        assert first["loss"]["tilde_bce"] is not None

    def test_missing_input_file_fails_at_the_data_stage(self, tmp_path):
        cfg = quick_cfg(tmp_path, synthetic=False,
                        train_path=str(tmp_path / "absent.tsv"),
                        test_path=str(tmp_path / "absent2.tsv"))
        result = run_one(cfg)
        assert result.status == "failed"
        assert result.stage == "data"
        status = json.loads(Path(result.run_dir, "status.json").read_text())
        assert status["status"] == "failed"
        assert status["stage"] == "data"

    def test_divergence_fails_at_the_train_stage(self, tmp_path):
        cfg = quick_cfg(tmp_path, learning_rate=1e3, max_epochs=10)
        result = run_one(cfg)
        assert result.status == "failed"
        assert result.stage == "train"
        assert "TrainingDivergedError" in result.error

    def test_file_mode_round_trips_through_saved_datasets(self, tmp_path):
        # Loading shares the train file's id maps, so the train pool must
        # cover the item vocabulary for val/test to load at all.
        train, val, test, _ = generate_synthetic(small_spec(train_impressions=5000))
        assert np.unique(train.items).size == train.n_items
        save_tsv(train, tmp_path / "train.tsv")
        save_tsv(val, tmp_path / "val.tsv")
        save_tsv(test, tmp_path / "test.tsv")
        cfg = quick_cfg(
            tmp_path, synthetic=False, schema="label",
            train_path=str(tmp_path / "train.tsv"),
            val_path=str(tmp_path / "val.tsv"),
            test_path=str(tmp_path / "test.tsv"),
        )
        result = run_one(cfg)
        assert result.status == "ok"

    def test_derived_seeds_match_the_documented_scheme(self, tmp_path):
        cfg = quick_cfg(tmp_path, objective="sste", epsilon_train=(0.0,),
                        epsilon_val=(0.5,), max_epochs=4, patience=4)
        result = run_one(cfg)
        assert result.status == "ok"

        spec = small_spec(
            n_users=cfg.n_users, n_items=cfg.n_items,
            latent_dim=cfg.latent_dim,
            exposure_bias_strength=cfg.exposure_bias_strength,
            positive_threshold=cfg.positive_threshold,
            train_impressions=cfg.train_impressions,
            test_impressions=cfg.test_impressions, seed=cfg.data_seed,
        )
        train, val, _, _ = generate_synthetic(spec)
        pt = estimate_popularity_propensity(train, gamma=cfg.gamma,
                                            floor=cfg.floor)
        aux_seed = derive_seed(cfg.seed, "selfsample")
        a_tr = train_family(train, pt, cfg.epsilon_train, aux_seed, epoch=0)
        # A zero threshold keeps the full training set.
        assert np.array_equal(a_tr[0].items, train.items)
        a_val = val_family(val, pt, cfg.epsilon_val, aux_seed)
        train_cfg = TrainConfig(
            learning_rate=cfg.learning_rate, l2_lambda=cfg.l2_lambda,
            batch_size=cfg.batch_size, max_epochs=cfg.max_epochs,
            patience=cfg.patience, objective="sste",
            seed=derive_seed(cfg.seed, "train"),
        )
        _, state = fit(
            train, val, (a_tr, a_val), train_cfg,
            embedding_dim=cfg.embedding_dim,
            init_spec=InitSpec(scale=cfg.init_scale,
                               seed=derive_seed(cfg.seed, "init")),
        )
        assert state.best_score == pytest.approx(
            result.report["best_modified_score"], abs=1e-12
        )
        assert state.best_epoch == result.report["best_epoch"]


class TestRunGrid:
    def test_single_cell_matches_run_one(self, tmp_path):
        base = quick_cfg(tmp_path)
        grid = GridSpec(values={"learning_rate": (0.01,)})
        result = run_grid(grid, base)
        assert len(result.rows) == 1
        row = result.rows[0]
        assert row["status"] == "ok"
        assert result.best_run_id == row["run_id"]
        solo = run_one(
            quick_cfg(tmp_path, learning_rate=0.01,
                      seed=derive_seed(base.seed, "grid", 0))
        )
        assert solo.run_id == row["run_id"]

    def test_ranking_is_by_modified_score(self, tmp_path):
        base = quick_cfg(tmp_path, max_epochs=2, patience=2)
        grid = GridSpec(values={"learning_rate": (0.001, 0.01),
                                "embedding_dim": (4, 8)})
        result = run_grid(grid, base)
        scores = [row["modified_score"] for row in result.rows
                  if row["status"] == "ok"]
        assert scores == sorted(scores, reverse=True)
        assert result.best_run_id == result.rows[0]["run_id"]

    def test_failed_cells_are_recorded_not_fatal(self, tmp_path):
        base = quick_cfg(tmp_path, max_epochs=4)
        grid = GridSpec(values={"learning_rate": (0.01, 1e3)})
        result = run_grid(grid, base)
        statuses = {row["status"] for row in result.rows}
        assert statuses == {"ok", "failed"}
        failed = [row for row in result.rows if row["status"] == "failed"]
        assert failed[0]["overrides"]["learning_rate"] == 1e3
        assert "modified_score" not in failed[0]

    def test_every_cell_failing_is_an_error(self, tmp_path):
        base = quick_cfg(tmp_path, max_epochs=4)
        grid = GridSpec(values={"learning_rate": (1e3,)})
        with pytest.raises(SsteError):
            run_grid(grid, base)

    def test_leaderboard_file_lists_ranked_rows(self, tmp_path):
        base = quick_cfg(tmp_path, max_epochs=2, patience=2)
        grid = GridSpec(values={"embedding_dim": (4, 8)})
        result = run_grid(grid, base)
        lines = Path(result.leaderboard_path).read_text().splitlines()
        assert lines[0].split("\t") == [
            "rank", "run_id", "status", "modified_score", "val_score",
            "alpha", "overrides",
        ]
        assert len(lines) == 3
        assert lines[1].split("\t")[0] == "1"
        assert "embedding_dim=" in lines[1].split("\t")[6]

    def test_swept_seed_values_are_respected(self, tmp_path):
        base = quick_cfg(tmp_path, max_epochs=2, patience=2)
        grid = GridSpec(values={"seed": (3, 4)})
        result = run_grid(grid, base)
        seeds = sorted(row["overrides"]["seed"] for row in result.rows)
        assert seeds == [3, 4]

    def test_worker_pool_matches_sequential(self, tmp_path):
        base_seq = quick_cfg(tmp_path, max_epochs=2, patience=2,
                             out_dir=str(tmp_path / "seq"))
        base_par = quick_cfg(tmp_path, max_epochs=2, patience=2,
                             out_dir=str(tmp_path / "par"))
        grid = GridSpec(values={"embedding_dim": (4, 8)})
        seq = run_grid(grid, base_seq, workers=1)
        par = run_grid(grid, base_par, workers=2)
        assert [r["run_id"] for r in seq.rows] == [
            r["run_id"] for r in par.rows
        ]
        assert [r.get("modified_score") for r in seq.rows] == [
            r.get("modified_score") for r in par.rows
        ]


class TestMakeTable:
    def write_report(self, tmp_path, name, objective, metrics):
        run_dir = tmp_path / name
        run_dir.mkdir()
        report = {
            "run_id": name.ljust(16, "0"),
            "objective": objective,
            "test_metrics": metrics,
        }
        (run_dir / "report.json").write_text(json.dumps(report))
        return str(run_dir)

    def metric_row(self, base):
        return {
            "auc": base, "ndcg@50": base, "p@5": base, "p@10": base,
            "r@5": base, "r@10": base,
        }

    def test_best_and_second_markers(self, tmp_path):
        dirs = [
            self.write_report(tmp_path, "aaa", "naive", self.metric_row(0.5)),
            self.write_report(tmp_path, "bbb", "ips", self.metric_row(0.6)),
            self.write_report(tmp_path, "ccc", "sste", self.metric_row(0.7)),
        ]
        text, rows = make_table(dirs)
        lines = text.splitlines()
        assert "**0.7000**" in lines[3]
        assert "_0.6000_" in lines[2]
        assert "**" not in lines[1]
        assert rows[2]["objective"] == "sste"

    def test_single_run_takes_every_best_marker(self, tmp_path):
        d = self.write_report(tmp_path, "solo", "naive", self.metric_row(0.4))
        text, _ = make_table([d])
        assert text.count("**") == 2 * 6

    def test_labels_combine_objective_and_run_id(self, tmp_path):
        d = self.write_report(tmp_path, "abcdefgh", "snips",
                              self.metric_row(0.4))
        text, rows = make_table([d])
        assert rows[0]["label"] == "snips/abcdefgh"
        assert "snips/abcdefgh" in text

    def test_missing_metrics_are_rejected(self, tmp_path):
        run_dir = tmp_path / "broken"
        run_dir.mkdir()
        (run_dir / "report.json").write_text(json.dumps({
            "run_id": "x" * 16, "objective": "naive",
            "test_metrics": {"auc": 0.5},
        }))
        with pytest.raises(ValidationError):
            make_table([str(run_dir)])

    def test_missing_report_is_rejected(self, tmp_path):
        run_dir = tmp_path / "empty"
        run_dir.mkdir()
        with pytest.raises(ValidationError):
            make_table([str(run_dir)])

    def test_no_runs_is_rejected(self):
        with pytest.raises(ValidationError):
            make_table([])

    def test_real_runs_tabulate(self, tmp_path):
        naive = run_one(quick_cfg(tmp_path, objective="naive"))
        ips = run_one(quick_cfg(tmp_path, objective="ips"))
        text, rows = make_table([naive.run_dir, ips.run_dir])
        assert len(rows) == 2
        assert rows[0]["metrics"]["auc"] == pytest.approx(
            naive.report["test_metrics"]["auc"]
        )
