"""Run configs, grid search, run directories, and the comparison table."""

import hashlib
import importlib.util
import json
import multiprocessing
import os
import re
import sys
import time
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sste import experiment
from sste.cli import build_parser, main as cli_main
from sste.data import Dataset, Provenance, Schema, generate_synthetic, load_tsv, save_tsv
from sste.errors import ParseError, SsteError, ValidationError
from sste.experiment import (
    GridSpec,
    RunConfig,
    build_datasets,
    load_config,
    load_grid,
    load_model,
    make_table,
    run_grid,
    run_one,
    save_config,
    save_model,
)
from sste.model import init
from sste.propensity import estimate_popularity_propensity, train_family, val_family
from sste.seeding import derive_seed
from sste.train import fit

from compare_runs import differing_files
from run_synthetic_study import main as study_main, study_config
from reference import load_tsv_per_line
from test_data import (
    assert_split_matches_the_loop,
    forbid_the_line_loop,
    load_outcome,
    small_spec,
)

TESTS = Path(__file__).parent


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

    def test_a_one_pair_world_is_rejected_on_load(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("n_users = 1\nn_items = 1\nlatent_dim = 1\n")
        with pytest.raises(ValidationError, match="n_users \\* n_items must be at least 2"):
            load_config(path)

    @pytest.mark.parametrize("objective", ["naive", "ips", "snips", "sste"])
    def test_a_floor_whose_inverse_overflows_is_refused_on_load(self, tmp_path, objective):
        path = tmp_path / "run.cfg"
        extras = "epsilon_train = 0.5\n" if objective == "sste" else ""
        path.write_text(f"objective = {objective}\n{extras}gamma = 1000\nfloor = 1e-310\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match=r"^floor must lie in \(0,1\] with a "
                                                      r"finite inverse, got 1e-310$"):
                load_config(path)
            path.write_text(path.read_text().replace("1e-310", "1e-300"))
            assert load_config(path).floor == 1e-300

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


    def test_a_repeated_cutoff_is_rejected(self, tmp_path, capsys):
        with pytest.raises(ValidationError, match="precision_ks repeats 5"):
            quick_cfg(tmp_path, precision_ks=(5, 10, 5))
        path = tmp_path / "run.cfg"
        path.write_text(f"precision_ks=10,10\nout_dir={tmp_path / 'runs'}\n")
        with pytest.raises(ValidationError, match="precision_ks repeats 10"):
            load_config(path)
        assert cli_main(["exp", "run", "--config", str(path)]) == 1
        assert "precision_ks repeats 10" in capsys.readouterr().err
        assert not (tmp_path / "runs").exists()


class TestConfigFiles:
    def test_round_trip(self, tmp_path):
        cfg = quick_cfg(tmp_path, objective="sste", epsilon_train=(0.5, 0.7),
                        epsilon_val=(0.5,))
        path = tmp_path / "run.cfg"
        save_config(cfg, path)
        assert load_config(path) == cfg

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
        path.write_text("synthetic=false\ntrain_path=a.tsv\ntest_path=t.tsv\n")
        assert load_config(path).synthetic is False


def synth_spec(path):
    args = build_parser().parse_args(
        ["data", "synth", "--spec", str(path), "--out-dir", str(path.parent / "out")]
    )
    return args.func(args)


# Each file kind: its loader, a valid line, and a line with a bad value.
FILE_KINDS = {
    "config": (load_config, "learning_rate = 0.1", "batch_size = many"),
    "grid": (load_grid, "batch_size = 16,32", "learning_rate = 0.1,many"),
    "synthetic": (synth_spec, "n_users = 10", "n_items = many"),
}


class TestOneReader:
    @pytest.mark.parametrize("kind", FILE_KINDS)
    @pytest.mark.parametrize("bad_line, message", [
        ("just words", "expected key = value, got 'just words'"),
        ("what = 3", "unknown {kind} key 'what'"),
        (None, "bad value for "),
        ("good line again", "repeated {kind} key {key!r}"),
    ])
    def test_a_bad_line_is_named(self, tmp_path, kind, bad_line, message):
        load, good, bad_value = FILE_KINDS[kind]
        key = good.partition("=")[0].strip()
        bad_line = {None: bad_value, "good line again": good}.get(bad_line, bad_line)
        path = tmp_path / f"{kind}.txt"
        lines = ["# settings", "", good, "   ", "# the bad line", bad_line]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError) as info:
            load(path)
        assert info.value.line_number == 6
        assert str(info.value).startswith("line 6: " + message.format(kind=kind, key=key))

    @pytest.mark.parametrize("kind", FILE_KINDS)
    def test_a_line_that_is_not_utf8_is_named(self, tmp_path, kind):
        load, good, _ = FILE_KINDS[kind]
        path = tmp_path / f"{kind}.txt"
        path.write_bytes(good.encode() + b"\n\xff\xfe = 1\n")
        with pytest.raises(ParseError) as info:
            load(path)
        assert (info.value.line_number, str(info.value)) == (2, "line 2: invalid UTF-8")

    @pytest.mark.parametrize("kind, line", [
        ("config", "objective = bogus"),
        ("config", "schema = stars"),
        ("config", "split_mode = by_time"),
        ("grid", "objective = naive,bogus"),
        ("grid", "split_mode = per_user,by_time"),
    ])
    def test_an_unknown_enum_name_is_named(self, tmp_path, kind, line):
        load, good, _ = FILE_KINDS[kind]
        path = tmp_path / f"{kind}.txt"
        path.write_text(f"{good}\n{line}\n")
        key, _, text = line.partition(" = ")
        enum = {"objective": "Objective", "schema": "Schema", "split_mode": "SplitMode"}[key]
        bad = text.split(",")[-1]
        with pytest.raises(ParseError) as info:
            load(path)
        assert str(info.value) == (
            f"line 2: bad value for {key}: {bad!r} is not a valid {enum}"
        )

    def test_enum_names_load_as_text(self, tmp_path):
        config, grid = tmp_path / "run.cfg", tmp_path / "grid.txt"
        config.write_text("objective = ips\nschema = label\nsplit_mode = chronological\n")
        grid.write_text("objective = naive, snips\n")
        cfg = load_config(config)
        assert (cfg.objective, cfg.schema, cfg.split_mode) == ("ips", "label", "chronological")
        assert load_grid(grid).values == {"objective": ("naive", "snips")}

    def test_an_empty_grid_value_list_names_its_line(self, tmp_path):
        path = tmp_path / "grid.txt"
        path.write_text("learning_rate = 0.1\n\nbatch_size =\n")
        with pytest.raises(ParseError, match="line 3: bad value for batch_size"):
            load_grid(path)

    def test_an_empty_tuple_in_a_config_is_the_empty_tuple(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("epsilon_val =\nprecision_ks = 5\n")
        cfg = load_config(path)
        assert (cfg.epsilon_val, cfg.precision_ks) == ((), (5,))

    @pytest.mark.parametrize("word, value", [
        ("TRUE", True), ("1", True), ("Yes", True),
        ("false", False), ("0", False), ("NO", False),
    ])
    def test_boolean_words_in_any_case(self, tmp_path, word, value):
        path = tmp_path / "run.cfg"
        path.write_text(f"resample_each_epoch = {word}\nobjective = sste\n"
                        "epsilon_train = 0.5\n")
        assert load_config(path).resample_each_epoch is value


# Text that survives one `key = value` line: no line break, no outer blanks.
line_text = st.text(
    st.characters(blacklist_categories=("Cs",), blacklist_characters="\n\r"), max_size=12
).filter(lambda s: s == s.strip())
unit = st.floats(0.0, 1.0)


@st.composite
def run_configs(draw):
    objective = draw(st.sampled_from(["naive", "ips", "snips", "sste"]))
    sste = objective == "sste"
    synthetic = draw(st.booleans())
    n_users = draw(st.integers(1, 50))
    n_items = draw(st.integers(2 if n_users == 1 else 1, 50))  # a world has two pairs
    return RunConfig(
        synthetic=synthetic,
        n_users=n_users,
        n_items=n_items,
        latent_dim=draw(st.integers(1, min(n_users, n_items))),
        exposure_bias_strength=draw(st.floats(0.0, 5.0)),
        positive_threshold=draw(st.floats(0.01, 0.99)),
        data_seed=draw(st.integers(0, 2**31)),
        train_path=draw(line_text) if synthetic else draw(line_text.filter(bool)),
        val_path=draw(line_text),
        test_path=draw(line_text) if synthetic else draw(line_text.filter(bool)),
        schema=draw(st.sampled_from(["rating", "label"])),
        split_ratio=draw(st.floats(0.01, 0.99)),
        split_mode=draw(st.sampled_from(["per_user", "chronological"])),
        objective=objective,
        gamma=draw(st.floats(0.0, 3.0)),
        floor=draw(st.floats(1e-6, 1.0)),
        epsilon_train=tuple(draw(st.lists(unit, min_size=1, max_size=3))) if sste else (),
        epsilon_val=tuple(draw(st.lists(unit, max_size=3))),
        resample_each_epoch=sste and draw(st.booleans()),
        learning_rate=draw(st.floats(1e-6, 1.0)),
        l2_lambda=draw(st.floats(0.0, 1.0)),
        precision_ks=tuple(draw(st.lists(st.integers(1, 100), max_size=3, unique=True))),
        out_dir=draw(line_text),
    )


class TestConfigRoundTrip:
    @given(cfg=run_configs())
    def test_save_then_load_gives_the_same_config(self, tmp_path_factory, cfg):
        path = tmp_path_factory.mktemp("cfg") / "config.txt"
        save_config(cfg, path)
        assert load_config(path) == cfg

    def test_a_study_config_file_keeps_its_bytes(self, tmp_path):
        path = tmp_path / "config.txt"
        save_config(study_config(1, "sste", "runs/synthetic-study/seed1/sste"), path)
        golden = TESTS / "golden" / "study_seed1_sste_config.txt"
        assert path.read_bytes() == golden.read_bytes()


class TestStudyScript:
    @pytest.mark.parametrize("seeds, workers, out_name, message", [
        ("1", "0", "study", "workers must be >= 1, got 0"),
        ("1", "1", "file", "Not a directory"),  # --out is a regular file
        ("", "1", "study", "--seeds lists no seed"),
        ("x", "1", "study", "--seeds must list integers, got 'x'"),
        ("1,1", "1", "study", "--seeds repeats 1"),
    ])
    def test_an_error_is_exit_two(self, tmp_path, capsys, seeds, workers, out_name, message):
        # Exit 1 means SSTE lost the study.
        (tmp_path / "file").write_text("")
        args = ["--seeds", seeds, "--workers", workers, "--out", str(tmp_path / out_name)]
        assert study_main(args) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert not (tmp_path / "study").exists()


class TestReadmeExamples:
    @pytest.fixture(scope="class")
    def blocks(self):
        readme = (TESTS.parent / "README.md").read_text(encoding="utf-8")
        section = readme.split("## Config and grid files", 1)[1].split("\n## ", 1)[0]
        return re.findall(r"```\n(.*?)```", section, flags=re.DOTALL)

    def test_the_config_example_loads(self, tmp_path, blocks):
        path = tmp_path / "run.txt"
        path.write_text(blocks[0])
        cfg = load_config(path)
        assert (cfg.objective, cfg.epsilon_train, cfg.resample_each_epoch) == (
            "sste", (0.5,), True
        )

    def test_the_grid_example_loads(self, tmp_path, blocks):
        path = tmp_path / "grid.txt"
        path.write_text(blocks[1])
        grid = load_grid(path)
        assert grid.values == experiment.DEFAULT_GRID
        assert len(grid.combinations()) == 16


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

    @pytest.mark.parametrize("keys", [dict(samples=1, grid_seed=5), dict(samples=2),
                                      dict(grid_seed=5)])
    def test_full_mode_refuses_the_random_keys(self, tmp_path, keys):
        # Full mode runs every cell, so a sample count or seed would be ignored.
        message = "samples and grid_seed apply only to mode = random"
        with pytest.raises(ValidationError, match=message):
            GridSpec(values={"seed": (1, 2, 3)}, **keys)
        path = tmp_path / "grid.cfg"
        path.write_text("seed = 1,2,3\n" + "".join(f"{k} = {v}\n" for k, v in keys.items()))
        with pytest.raises(ValidationError, match=message):
            load_grid(path)

    def test_random_mode_rejects_a_negative_seed(self):
        # numpy's generators take only seeds >= 0.
        with pytest.raises(ValidationError, match="grid_seed >= 0"):
            GridSpec(values={"batch_size": (16, 32)}, mode="random",
                     samples=1, grid_seed=-1)

    def test_a_repeated_value_is_rejected(self):
        # Two equal cells would share one run directory and write it twice.
        with pytest.raises(ValidationError, match="value list for 'seed' repeats 3"):
            GridSpec(values={"seed": (3, 4, 3)})
        with pytest.raises(ValidationError, match="value list for 'learning_rate' repeats 0.1"):
            GridSpec(values={"batch_size": (16, 32), "learning_rate": (0.1, 0.1)})

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
    def test_an_overflowing_bias_strength_fails_at_stage_data(self, tmp_path):
        result = run_one(quick_cfg(tmp_path, exposure_bias_strength=1000.0))
        assert (result.status, result.stage) == ("failed", "data")
        assert result.error == ("ValidationError: exposure_bias_strength = 1000.0 "
                                "overflows the synthetic exposure weights")

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

    @pytest.mark.parametrize("mode, ratio, side", [
        # Every user has two rows and floor(0.1 * 2) = 0 of them go to train.
        ("per_user", 0.1, "train"),
        # ceil(0.9 * 4) = 4 rows go to train.
        ("chronological", 0.9, "validation"),
    ])
    def test_a_split_with_an_empty_side_fails_at_data(self, tmp_path, mode, ratio, side):
        data = tmp_path / "data.tsv"
        data.write_text("1\t1\t5\n1\t2\t1\n2\t1\t4\n2\t2\t2\n")
        result = run_one(quick_cfg(tmp_path, synthetic=False, train_path=str(data),
                                   test_path=str(data), split_ratio=ratio, split_mode=mode))
        assert (result.status, result.stage) == ("failed", "data")
        assert result.error == (
            f"ValidationError: split_ratio = {ratio} ({mode}) leaves the {side} split "
            f"of {data} empty"
        )

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

    def test_two_runs_of_one_config_differ_only_in_their_status(self, tmp_path):
        runs = [run_one(quick_cfg(tmp_path, out_dir=str(tmp_path / side))) for side in "ab"]
        assert differing_files(tmp_path / "a", tmp_path / "b") == []
        statuses = [read_status(r.run_dir) for r in runs]
        for status in statuses:
            # Wall seconds of every stage the run entered, which add up to
            # its elapsed seconds.
            assert sorted(status["stage_seconds"]) == sorted([
                "config", "data", "propensity", "selfsample", "train", "evaluate", "persist"])
            assert all(s >= 0 for s in status["stage_seconds"].values())
            assert sum(status["stage_seconds"].values()) == pytest.approx(
                status["elapsed_seconds"], rel=1e-9, abs=1e-9)
        assert statuses[0].keys() == statuses[1].keys()

    def test_a_failed_run_times_the_stages_up_to_the_failing_one(self, tmp_path):
        result = run_one(quick_cfg(tmp_path, exposure_bias_strength=1000.0))
        assert sorted(read_status(result.run_dir)["stage_seconds"]) == ["config", "data"]

    def test_resampled_joint_run_files_are_unchanged(self, tmp_path):
        # Digests of the files this config has always produced: two train
        # thresholds redrawn before every epoch, one validation threshold.
        cfg = quick_cfg(tmp_path, objective="sste", epsilon_train=(0.3, 0.7),
                        epsilon_val=(0.5,), resample_each_epoch=True,
                        max_epochs=4, patience=4)
        result = run_one(cfg)
        assert result.status == "ok"
        expected = {
            "epochs.jsonl": "e1b4b70d3581859e799c5142ca1fc867d783f7ef8d5d64344194fe68ff146835",
            "model.ckpt": "007eaf82cf35729b0126a95af1c2c1828c3c55b49b31126673c253af407acfda",
            "report.json": "dac0304243c0518ad75adcac39c37929216ce677075b4da3a3bb4acf6ccf07d1",
        }
        for name, digest in expected.items():
            data = (Path(result.run_dir) / name).read_bytes()
            assert hashlib.sha256(data).hexdigest() == digest, name

    @pytest.mark.parametrize("overrides, expected", [
        (dict(objective="naive"), {
            "epochs.jsonl": "eb99f3ea368bb01fb4bafbe248970816d411f4e743428ecc63583051828dcebf",
            "model.ckpt": "817bf776090cbf377576468b4fd4f45fcefbc3734837a4128d6da9e47d4ae444",
            "report.json": "8d228228e9e7fab897cfffae5bbd5e0a1a058597abe30928affaea4750641481",
        }),
        (dict(objective="ips", epsilon_val=(0.5,)), {
            "epochs.jsonl": "4d124c992deefac143dde06e4dddb2d31ba451f7de05dfc60ebdfdea5eecba8f",
            "model.ckpt": "ed89cfdc0cc9a894f2b2f49cf8c3729f6d61009dd91b45d8146c0c2092de35fd",
            "report.json": "a845f0d42f3d4be280e26b9ae9562578e81f328934794290a6c9b7bf08acedcf",
        }),
        (dict(objective="snips"), {
            "epochs.jsonl": "73731bf325ffb4f1c094dee7095c2f54adf633ff57b6d4e29d4712965e710fca",
            "model.ckpt": "753ea2b064f745ad6a68a76254abc16aa6be16db7c80a2cb4450efe3ce64b8fd",
            "report.json": "2565b77c869e3463bb9dc9230bd2c806b8beca149eece66438ccdce57add1ca9",
        }),
    ], ids=["naive", "ips", "snips"])
    def test_baseline_run_files_are_unchanged(self, tmp_path, overrides, expected):
        # Digests of the files these baselines have always produced: no
        # train thresholds, and for ips one validation threshold.
        result = run_one(quick_cfg(tmp_path, max_epochs=4, patience=4, **overrides))
        assert result.status == "ok"
        for name, digest in expected.items():
            data = (Path(result.run_dir) / name).read_bytes()
            assert hashlib.sha256(data).hexdigest() == digest, name

    @pytest.mark.parametrize("objective, overrides, expected", [
        ("sste", dict(embedding_dim=50, batch_size=4096, l2_lambda=1e-3), {
            "epochs.jsonl": "19b78b254191c2116c7cfdd53476f939e8f9d639af376eca3aae375c3e6850f7",
            "model.ckpt": "7b9446a8c01cb03481914aa0e4d0330befe0f8322846fe8d339f84da3339efb4",
            "report.json": "4778e6cfd11f0915ea39382067c3e7927ada5ade7bd5821c201a6583996b76d0",
        }),
        ("naive", dict(embedding_dim=10, batch_size=512, l2_lambda=1e-5), {
            "epochs.jsonl": "a00790154d7b8d2ff3b9020a0320107f6e8cfa8b7c9735d427ee3a6fff6f8508",
            "model.ckpt": "b94fc30e07115684d0ce4aebe1833f4100679d64fdb5be1380511ac19dc1d37e",
            "report.json": "0d756490e759fbe0144df9c2f8759c9d4410fb72ef634d1a0919f07480dc9c0f",
        }),
    ], ids=["sste-k50-b4096", "naive-k10-b512"])
    def test_study_world_cells_keep_their_files(self, tmp_path, objective, overrides, expected):
        # Digests of the files two cells of the seed-1 study grid have always
        # produced in 2 epochs: the study's world (500 users, 100 items) at
        # the grid's table widths and batch sizes.
        cfg = replace(study_config(1, objective, str(tmp_path)),
                      max_epochs=2, patience=2, **overrides)
        result = run_one(cfg)
        assert result.status == "ok"
        for name, digest in expected.items():
            data = (Path(result.run_dir) / name).read_bytes()
            assert hashlib.sha256(data).hexdigest() == digest, name

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

    def test_a_non_utf8_input_fails_at_the_data_stage(self, tmp_path):
        bad = tmp_path / "bad.tsv"
        bad.write_bytes(b"1\t2\t4\n\xff\t2\t4\n")
        result = run_one(quick_cfg(tmp_path, synthetic=False,
                                   train_path=str(bad), test_path=str(bad)))
        assert (result.status, result.stage) == ("failed", "data")
        assert result.error == "ParseError: line 2: invalid UTF-8"

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
        _, state = fit(train, val, (a_tr, a_val), cfg, pt)
        assert state.best_score == pytest.approx(
            result.report["best_modified_score"], abs=1e-12
        )
        assert state.best_epoch == result.report["best_epoch"]


# Tiny settings of the two kinds of run: a synthetic world, and a rating file
# split into train and validation (and scored on itself).
# A one-pair world is refused when its config loads (TestRunConfig).
tiny_world = st.fixed_dictionaries({
    "n_users": st.integers(1, 6), "n_items": st.integers(1, 6),
    "train_impressions": st.integers(1, 40), "test_impressions": st.integers(1, 20),
    "positive_threshold": st.floats(0.05, 0.95), "data_seed": st.integers(0, 50),
}).filter(lambda world: world["n_users"] * world["n_items"] >= 2)
tiny_file = st.lists(
    st.tuples(st.integers(1, 4), st.integers(1, 4), st.integers(1, 5)), min_size=1, max_size=12,
)
tiny_split = st.fixed_dictionaries({
    "split_ratio": st.floats(0.05, 0.95), "split_mode": st.sampled_from(["per_user", "chronological"]),
})
tiny_training = st.fixed_dictionaries({
    "objective": st.sampled_from(["naive", "ips", "snips", "sste"]),
    # Taken by sste only; a threshold of 1 keeps only the rarest item's rows
    # for sure, and the subset is still never empty.
    "epsilon_train": st.sampled_from([(0.0,), (0.5,), (1.0,), (0.3, 1.0)]),
    "epsilon_val": st.sampled_from([(), (0.5,), (1.0,)]),
    "batch_size": st.integers(1, 8), "embedding_dim": st.integers(1, 3),
})


class TestTrainableSplits:
    """A run whose data stage passes gets through propensity, self-sampling
    and training, whatever its world, split or objective."""

    # The stages a tiny run may fail at: config (writing its files), data
    # (an untrainable split), and evaluate, as test AUC and top-K metrics are
    # undefined on a test set without both classes or without positives.
    FAILABLE = ("config", "data", "evaluate")

    def run(self, out_dir, training, **data):
        if training["objective"] != "sste":
            training = {**training, "epsilon_train": ()}
        result = run_one(quick_cfg(out_dir, max_epochs=1, patience=1, **training, **data))
        assert result.status == "ok" or result.stage in self.FAILABLE, result.error

    @given(world=tiny_world, training=tiny_training, data=st.data())
    @settings(max_examples=40)
    def test_a_tiny_synthetic_world_trains_or_fails_at_data(
        self, tmp_path_factory, world, training, data
    ):
        world["latent_dim"] = data.draw(st.integers(1, min(world["n_users"], world["n_items"])))
        self.run(tmp_path_factory.mktemp("world"), training, **world)

    @given(rows=tiny_file, split=tiny_split, training=tiny_training)
    @settings(max_examples=40)
    def test_a_tiny_file_split_trains_or_fails_at_data(
        self, tmp_path_factory, rows, split, training
    ):
        out_dir = tmp_path_factory.mktemp("split")
        path = out_dir / "data.tsv"
        path.write_text("".join(f"{u}\t{i}\t{r}\n" for u, i, r in rows))
        self.run(out_dir, training, synthetic=False, train_path=str(path),
                 test_path=str(path), **split)

    def test_a_synthetic_world_without_validation_rows_fails_at_data(self, tmp_path):
        # Three impressions over 30 users: no user has the two rows that
        # put one on the validation side.
        result = run_one(quick_cfg(tmp_path, train_impressions=3))
        assert (result.status, result.stage) == ("failed", "data")
        assert result.error == (
            "ValidationError: train_impressions = 3 leaves the validation split "
            "of the synthetic world empty"
        )
        assert not (Path(result.run_dir) / "epochs.jsonl").exists()

    def test_a_single_class_validation_file_fails_at_data(self, tmp_path):
        train, val = tmp_path / "train.tsv", tmp_path / "val.tsv"
        train.write_text("1\t1\t5\n1\t2\t1\n2\t1\t4\n2\t2\t2\n")
        val.write_text("1\t2\t5\n2\t1\t4\n")
        result = run_one(quick_cfg(tmp_path, synthetic=False, train_path=str(train),
                                   val_path=str(val), test_path=str(train)))
        assert (result.status, result.stage) == ("failed", "data")
        assert result.error == (
            f"ValidationError: val_path leaves the validation split of {val} "
            "with one class; self-evaluation needs both"
        )
        assert not (Path(result.run_dir) / "epochs.jsonl").exists()


def yahoo_gen():
    """perfbench/yahoo_gen.py, loaded by path as perfbench loads the study script."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_yahoo_gen", TESTS.parent / "perfbench" / "yahoo_gen.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # where its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def yahoo_dir(tmp_path_factory):
    """train.tsv and test.tsv of a small Yahoo! R3-shaped world."""
    gen = yahoo_gen()
    out = tmp_path_factory.mktemp("yahoo")
    gen.build(out, 1, gen.Shape(n_users=300, n_items=100, train_rows=3300,
                                test_users=50, test_items_per_user=5))
    return out


class TestYahooShapedFiles:
    def test_the_files_take_the_vectorized_parse(self, yahoo_dir, monkeypatch):
        rating = Schema.USER_ITEM_RATING
        train_path, test_path = yahoo_dir / "train.tsv", yahoo_dir / "test.tsv"
        expected_train = load_outcome(load_tsv_per_line, train_path, rating)
        maps = {"user_map": np.array(expected_train["user_id_map"][1]),
                "item_map": np.array(expected_train["item_id_map"][1])}
        expected_test = load_outcome(load_tsv_per_line, test_path, rating, **maps)
        forbid_the_line_loop(monkeypatch)
        assert load_outcome(load_tsv, train_path, rating) == expected_train
        assert load_outcome(load_tsv, test_path, rating, **maps) == expected_test

    @pytest.mark.parametrize("ratio, seed", [(0.8, 1), (0.5, 7), (0.1, 23)])
    def test_the_per_user_split_matches_the_loop(self, yahoo_dir, ratio, seed):
        train = load_tsv(yahoo_dir / "train.tsv", Schema.USER_ITEM_RATING)
        assert_split_matches_the_loop(train, ratio, seed)

    def test_a_file_mode_run_repeats_byte_for_byte(self, yahoo_dir, tmp_path, monkeypatch):
        # Relative input paths keep report.json's config free of tmp_path.
        monkeypatch.chdir(yahoo_dir)

        def config(out_dir) -> RunConfig:
            return RunConfig(
                synthetic=False, schema="rating",
                train_path="train.tsv", test_path="test.tsv",
                split_ratio=0.8, split_mode="per_user", objective="sste",
                epsilon_train=(0.5,), epsilon_val=(0.3,), resample_each_epoch=True,
                embedding_dim=10, batch_size=512, max_epochs=2, patience=2,
                data_seed=1, seed=1, out_dir=str(out_dir),
            )

        first = run_one(config(tmp_path / "first"))
        second = run_one(config(tmp_path / "second"))
        assert (first.status, second.status) == ("ok", "ok")
        assert differing_files(tmp_path / "first", tmp_path / "second") == []
        # Digests of the files this config produces.
        expected = {
            "epochs.jsonl": "dc2946a7aec1d7edf819da08080d200399fb160c63b7c886d17f9afa57049ff5",
            "model.ckpt": "98e05eea7b19cb4f620b0207da1329849e206c1d9e15450938bf5d200c69eeca",
            "model.ckpt.vocab.json":
                "77d608375b7ff3df22a4ef38c60ae34cdb9c1f81c63db8156c543875b89b49fe",
            "report.json": "b5ad6692e230a1fde76967ba860a38cd06dea5cb53e4d183c10216121ef150a0",
        }
        for name, digest in expected.items():
            data = (Path(first.run_dir) / name).read_bytes()
            assert hashlib.sha256(data).hexdigest() == digest, name


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

    def test_a_bad_value_fails_before_any_cell_runs(self, tmp_path):
        base = quick_cfg(tmp_path)
        grid = GridSpec(values={"learning_rate": (0.01, 0)})
        with pytest.raises(ValidationError, match="learning_rate"):
            run_grid(grid, base)
        assert not (tmp_path / "runs").exists()

    def test_a_bad_floor_fails_before_any_cell_runs(self, tmp_path):
        base = quick_cfg(tmp_path)
        grid = GridSpec(values={"floor": (0.05, 0.0)})
        with pytest.raises(ValidationError, match="floor"):
            run_grid(grid, base)
        assert not list(tmp_path.glob("runs/run-*"))

    @pytest.mark.parametrize("workers", [0, -2])
    def test_fewer_than_one_worker_is_rejected(self, tmp_path, workers):
        grid = GridSpec(values={"learning_rate": (0.01,)})
        with pytest.raises(ValidationError, match=f"workers must be >= 1, got {workers}"):
            run_grid(grid, quick_cfg(tmp_path), workers=workers)
        assert not (tmp_path / "runs").exists()

    def test_every_cell_failing_is_an_error(self, tmp_path):
        base = quick_cfg(tmp_path, max_epochs=4)
        grid = GridSpec(values={"learning_rate": (1e3, 2e3)})
        leaderboard = tmp_path / "runs" / "leaderboard.tsv"
        with pytest.raises(SsteError, match=re.escape(f"every grid cell failed; see {leaderboard}")):
            run_grid(grid, base)
        # The leaderboard still lists every cell.
        rows = [line.split("\t") for line in leaderboard.read_text().splitlines()[1:]]
        assert [(row[0], row[2], row[-1]) for row in rows] == [
            ("1", "failed", "learning_rate=1000.0"),
            ("2", "failed", "learning_rate=2000.0"),
        ]
        assert all(row[3:6] == ["", "", ""] for row in rows)

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
        # Each run's status.json and the leaderboard were moved into place.
        assert not list(Path(base.out_dir).rglob("*.tmp"))

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


def fit_raising(monkeypatch, exc, in_cell=lambda cfg: True):
    """Make training raise ``exc`` in the runs whose config ``in_cell`` picks."""
    def fit_or_raise(train, val, aux, cfg, *args, **kwargs):
        if in_cell(cfg):
            raise exc
        return fit(train, val, aux, cfg, *args, **kwargs)

    monkeypatch.setattr(experiment, "fit", fit_or_raise)


def tear_checkpoints(monkeypatch, in_run=lambda run_dir: True):
    """Make the checkpoint writes in the run directories ``in_run`` picks
    stop halfway through the file with an OSError."""
    save = experiment.save_checkpoint

    def tearing_save(model, path):
        save(model, path)
        if in_run(Path(path).parent):
            data = Path(path).read_bytes()
            Path(path).write_bytes(data[:len(data) // 2])
            raise OSError("disk full")

    monkeypatch.setattr(experiment, "save_checkpoint", tearing_save)


def read_status(run_dir) -> dict:
    return json.loads((Path(run_dir) / "status.json").read_text())


class TestFaultContainment:
    """Any Exception stays inside its run; interrupts still stop everything."""

    @pytest.mark.parametrize("exc", [MemoryError("no room"), RuntimeError("boom")])
    def test_a_non_package_error_fails_only_its_cell(self, tmp_path, monkeypatch, exc):
        fit_raising(monkeypatch, exc, lambda cfg: cfg.embedding_dim == 8)
        base = quick_cfg(tmp_path, max_epochs=2, patience=2)
        result = run_grid(GridSpec(values={"embedding_dim": (4, 8)}), base)
        assert [row["status"] for row in result.rows] == ["ok", "failed"]
        failed = result.rows[1]
        assert failed["overrides"] == {"embedding_dim": 8}
        assert failed["error"] == f"{type(exc).__name__}: {exc}"
        lines = Path(result.leaderboard_path).read_text().splitlines()
        assert [line.split("\t")[2] for line in lines[1:]] == ["ok", "failed"]
        status = read_status(tmp_path / "runs" / f"run-{failed['run_id']}")
        assert (status["status"], status["stage"]) == ("failed", "train")
        assert status["error"] == f"{type(exc).__name__}: {exc}"
        assert "in fit_or_raise" in status["traceback"]

    @pytest.mark.parametrize("exc", [KeyboardInterrupt, SystemExit])
    def test_interrupts_propagate(self, tmp_path, monkeypatch, exc):
        fit_raising(monkeypatch, exc())
        with pytest.raises(exc):
            run_one(quick_cfg(tmp_path))

    def test_an_interrupted_rerun_leaves_no_old_ok_behind(self, tmp_path, monkeypatch):
        cfg = quick_cfg(tmp_path, max_epochs=2, patience=2)
        run_dir = run_one(cfg).run_dir
        assert read_status(run_dir)["status"] == "ok"
        fit_raising(monkeypatch, KeyboardInterrupt())
        with pytest.raises(KeyboardInterrupt):
            run_one(cfg)
        assert not (Path(run_dir) / "status.json").exists()

    def test_a_failed_rerun_reports_failed(self, tmp_path, monkeypatch):
        cfg = quick_cfg(tmp_path, max_epochs=2, patience=2)
        assert run_one(cfg).status == "ok"
        fit_raising(monkeypatch, MemoryError("no room"))
        result = run_one(cfg)
        assert (result.status, result.stage) == ("failed", "train")
        assert read_status(result.run_dir)["status"] == "failed"

    @pytest.mark.parametrize("mode, stage, left", [
        ("synthetic", "persist", {"epochs.jsonl", "model.ckpt"}),  # the new run's, torn
        ("file", "data", set()),
        ("file", "train", {"epochs.jsonl"}),  # the new run's, empty
    ], ids=["synthetic-persist", "file-data", "file-train"])
    def test_a_failed_rerun_leaves_no_old_report(
            self, tmp_path, monkeypatch, capsys, yahoo_dir, mode, stage, left):
        if mode == "file":
            cfg = TestFileWorldCache.config(yahoo_dir, tmp_path / "runs")
            test_path, schema = yahoo_dir / "test.tsv", "rating"
        else:
            cfg = quick_cfg(tmp_path, max_epochs=2, patience=2)
            test_path, schema = tmp_path / "test.tsv", "label"
            save_tsv(build_datasets(cfg)[2], test_path)
        run_dir = Path(run_one(cfg).run_dir)
        evaluate = ["evaluate", "--checkpoint", str(run_dir / "model.ckpt"),
                    "--test", str(test_path), "--schema", schema]
        assert (run_dir / "report.json").exists()
        assert cli_main(evaluate) == 0  # the old run's model scores the test file
        capsys.readouterr()

        def no_data(cfg):
            raise ValueError("unreadable input")

        error = {"persist": "OSError: disk full", "data": "ValueError: unreadable input",
                 "train": "MemoryError: no room"}[stage]
        if stage == "persist":
            tear_checkpoints(monkeypatch)
        elif stage == "data":
            monkeypatch.setattr(experiment, "build_datasets", no_data)
        else:
            fit_raising(monkeypatch, MemoryError("no room"))
        result = run_one(cfg)
        assert (result.status, result.stage, result.error) == ("failed", stage, error)
        assert read_status(run_dir)["status"] == "failed"
        assert {p.name for p in run_dir.iterdir()} == {
            "config.json", "config.txt", "status.json", *left}
        if stage == "train":
            assert (run_dir / "epochs.jsonl").read_text() == ""
        with pytest.raises(ValidationError, match="unreadable report.json"):
            make_table([run_dir])
        assert cli_main(evaluate) == 1
        assert capsys.readouterr().err.startswith("error: ")

    def test_a_rerun_leaves_no_leftover(self, tmp_path):
        base = quick_cfg(tmp_path, max_epochs=1)
        grid = GridSpec(values={"embedding_dim": (4, 8)})
        blocked, kept = (replace(base, embedding_dim=dim, seed=derive_seed(base.seed, "grid", i))
                         for i, dim in enumerate((4, 8)))
        blocked_dir, kept_dir = (tmp_path / "runs" / f"run-{c.run_id}" for c in (blocked, kept))
        assert [row["status"] for row in run_grid(grid, base).rows] == ["ok", "ok"]
        (kept_dir / "status.json.tmp").write_text("{")  # a status write killed halfway
        (kept_dir / "notes.txt").write_text("not the harness's")
        (blocked_dir / "plots").mkdir()
        result = run_grid(grid, base)
        assert [(row["status"], row["overrides"]) for row in result.rows] == [
            ("ok", {"embedding_dim": 8}), ("failed", {"embedding_dim": 4}),
        ]
        clean = run_one(replace(kept, out_dir=str(tmp_path / "clean")))
        assert differing_files(kept_dir, clean.run_dir) == []
        assert result.rows[1]["error"].startswith("IsADirectoryError: ")
        status = read_status(blocked_dir)
        assert (status["status"], status["stage"]) == ("failed", "config")
        # Every file of the old run went before the directory stopped the run.
        assert sorted(p.name for p in blocked_dir.iterdir()) == ["plots", "status.json"]
        lines = Path(result.leaderboard_path).read_text().splitlines()
        assert [line.split("\t")[1:3] for line in lines[1:]] == [
            [kept.run_id, "ok"], [blocked.run_id, "failed"],
        ]

    def test_a_torn_checkpoint_leaves_no_ok(self, tmp_path, monkeypatch):
        base = quick_cfg(tmp_path, max_epochs=1)
        doomed = replace(base, embedding_dim=4, seed=derive_seed(base.seed, "grid", 0))
        run_dir = tmp_path / "runs" / f"run-{doomed.run_id}"
        tear_checkpoints(monkeypatch, lambda path: path == run_dir)
        result = run_grid(GridSpec(values={"embedding_dim": (4, 8)}), base)
        assert [(row["status"], row["overrides"]) for row in result.rows] == [
            ("ok", {"embedding_dim": 8}), ("failed", {"embedding_dim": 4}),
        ]
        status = read_status(run_dir)
        assert (status["status"], status["stage"], status["error"]) == (
            "failed", "persist", "OSError: disk full")
        assert not (run_dir / "report.json").exists()
        lines = Path(result.leaderboard_path).read_text().splitlines()
        assert [line.split("\t")[1:3] for line in lines[1:]] == [
            [result.best_run_id, "ok"], [doomed.run_id, "failed"],
        ]
        monkeypatch.undo()
        assert run_one(doomed).status == "ok"
        clean = run_one(replace(doomed, out_dir=str(tmp_path / "clean")))
        assert differing_files(run_dir, clean.run_dir) == []

    @pytest.mark.parametrize("failures", [0, 1, 2], ids=["none", "the-ok", "both"])
    def test_a_failed_status_write_leaves_no_ok(self, tmp_path, monkeypatch, failures):
        # status.json goes through a temp file and os.replace; fail the first
        # ``failures`` of those moves, the first being the one that says ok.
        replace, calls = os.replace, []

        def failing_replace(src, dst):
            if Path(dst).name == "status.json":
                calls.append(dst)
                if len(calls) <= failures:
                    raise OSError("disk full")
            replace(src, dst)

        monkeypatch.setattr(os, "replace", failing_replace)
        cfg = quick_cfg(tmp_path, max_epochs=1)
        run_dir = Path(cfg.out_dir) / f"run-{cfg.run_id}"
        result = run_one(cfg)
        assert (result.status, result.stage, result.error) == [
            ("ok", "done", None),
            ("failed", "persist", "OSError: disk full"),
            ("failed", "persist", "OSError: disk full; status.json not written: OSError: disk full"),
        ][failures]
        if failures < 2:
            assert read_status(run_dir)["status"] == result.status
        else:
            assert not (run_dir / "status.json").exists()
        assert not list(run_dir.glob("*.tmp"))

    def test_a_cell_that_can_write_no_status_leaves_the_grid_running(self, tmp_path, monkeypatch):
        base = quick_cfg(tmp_path, max_epochs=1)
        doomed = replace(base, embedding_dim=4, seed=derive_seed(base.seed, "grid", 0)).run_id
        move = os.replace

        def failing_replace(src, dst):
            if Path(dst).name == "status.json" and Path(dst).parent.name == f"run-{doomed}":
                raise OSError("disk full")
            move(src, dst)

        monkeypatch.setattr(os, "replace", failing_replace)
        result = run_grid(GridSpec(values={"embedding_dim": (4, 8)}), base)
        assert [(row["status"], row["overrides"]) for row in result.rows] == [
            ("ok", {"embedding_dim": 8}), ("failed", {"embedding_dim": 4}),
        ]
        assert result.rows[1]["run_id"] == doomed
        assert result.rows[1]["error"].startswith("OSError: disk full; status.json not written")
        lines = Path(result.leaderboard_path).read_text().splitlines()
        assert [line.split("\t")[1:3] for line in lines[1:]] == [
            [result.best_run_id, "ok"], [doomed, "failed"],
        ]
        assert not (tmp_path / "runs" / f"run-{doomed}" / "status.json").exists()

    def test_a_run_directory_that_cannot_be_made_fails_only_its_cell(self, tmp_path):
        base = quick_cfg(tmp_path, max_epochs=1)
        blocked = replace(base, embedding_dim=4, seed=derive_seed(base.seed, "grid", 0)).run_id
        (tmp_path / "runs").mkdir()
        (tmp_path / "runs" / f"run-{blocked}").write_text("")  # a file where the directory goes
        result = run_grid(GridSpec(values={"embedding_dim": (4, 8)}), base)
        assert [(row["status"], row["overrides"]) for row in result.rows] == [
            ("ok", {"embedding_dim": 8}), ("failed", {"embedding_dim": 4}),
        ]
        failed = result.rows[1]
        assert failed["run_id"] == blocked
        assert failed["error"].startswith("FileExistsError: ")
        assert "; status.json not written: NotADirectoryError: " in failed["error"]
        lines = Path(result.leaderboard_path).read_text().splitlines()
        assert [line.split("\t")[1:3] for line in lines[1:]] == [
            [result.best_run_id, "ok"], [blocked, "failed"],
        ]

    @pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                        reason="the patched fit reaches the workers by fork")
    def test_a_dead_worker_fails_only_the_cells_in_flight(self, tmp_path, monkeypatch):
        # Cell 0 kills its worker; cell 1 is still in flight then, so the
        # broken pool takes it down too; cell 2 runs in a fresh pool.
        calls = tmp_path / "calls.txt"

        def dying_fit(train, val, aux, cfg, *args, **kwargs):
            with open(calls, "a") as out:
                out.write(f"{cfg.learning_rate}\n")
            if cfg.learning_rate == 0.01:
                deadline = time.monotonic() + 10
                while "0.02" not in calls.read_text() and time.monotonic() < deadline:
                    time.sleep(0.01)  # until cell 1 is surely running
                os._exit(3)
            if cfg.learning_rate == 0.02:
                time.sleep(30)  # the pool kills it long before this ends
            return fit(train, val, aux, cfg, *args, **kwargs)

        monkeypatch.setattr(experiment, "fit", dying_fit)
        base = quick_cfg(tmp_path, max_epochs=1)
        result = run_grid(GridSpec(values={"learning_rate": (0.01, 0.02, 0.03)}), base,
                          workers=2)
        assert sorted(calls.read_text().split()) == ["0.01", "0.02", "0.03"]  # each once
        assert [(row["status"], row["overrides"]["learning_rate"]) for row in result.rows] == [
            ("ok", 0.03), ("failed", 0.01), ("failed", 0.02),
        ]
        for row in result.rows[1:]:
            assert row["error"] == (
                "BrokenProcessPool: A process in the process pool was terminated abruptly "
                "while the future was running or pending. (worker exit code 3)")
            status = read_status(tmp_path / "runs" / f"run-{row['run_id']}")
            assert (status["status"], status["stage"], status["error"]) == (
                "failed", "worker", row["error"])
        lines = Path(result.leaderboard_path).read_text().splitlines()
        assert [line.split("\t")[1:3] for line in lines[1:]] == [
            [row["run_id"], row["status"]] for row in result.rows
        ]

    def test_a_submit_that_finds_the_pool_broken_waits_for_a_fresh_pool(
            self, tmp_path, monkeypatch):
        from concurrent.futures import ProcessPoolExecutor
        from concurrent.futures.process import BrokenProcessPool

        submit, calls = ProcessPoolExecutor.submit, []

        def refusing_submit(pool, fn, cfg):
            calls.append(cfg.learning_rate)
            if len(calls) == 2:
                raise BrokenProcessPool("refused")
            return submit(pool, fn, cfg)

        monkeypatch.setattr(ProcessPoolExecutor, "submit", refusing_submit)
        base = quick_cfg(tmp_path, max_epochs=1)
        result = run_grid(GridSpec(values={"learning_rate": (0.01, 0.02, 0.03)}), base,
                          workers=2)
        assert calls == [0.01, 0.02, 0.02, 0.03]  # the refused cell, once more
        assert [row["status"] for row in result.rows] == ["ok"] * 3
        for row in result.rows:
            assert read_status(tmp_path / "runs" / f"run-{row['run_id']}")["status"] == "ok"

    def test_an_unwritable_run_directory_fails_at_the_config_stage(self, tmp_path):
        cfg = quick_cfg(tmp_path)
        run_dir = Path(cfg.out_dir) / f"run-{cfg.run_id}"
        (run_dir / "config.txt").mkdir(parents=True)  # a directory where the file goes
        result = run_one(cfg)
        assert (result.status, result.stage) == ("failed", "config")
        assert result.error.startswith("IsADirectoryError: ")


class TestMakeTable:
    def write_report(self, tmp_path, name, objective, metrics, ndcg_k=50):
        run_dir = tmp_path / name
        run_dir.mkdir()
        report = {
            "run_id": name.ljust(16, "0"),
            "objective": objective,
            "config": {"ndcg_k": ndcg_k, "precision_ks": [5, 10]},
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
            "config": {"ndcg_k": 50, "precision_ks": [5, 10]},
            "test_metrics": {"auc": 0.5},
        }))
        with pytest.raises(ValidationError):
            make_table([str(run_dir)])

    def test_columns_follow_the_run_config(self, tmp_path):
        metrics = self.metric_row(0.4)
        metrics["ndcg@20"] = metrics.pop("ndcg@50")
        d = self.write_report(tmp_path, "cut20", "naive", metrics, ndcg_k=20)
        text, rows = make_table([d])
        assert text.split()[:7] == [
            "method", "AUC", "nDCG@20", "P@5", "P@10", "R@5", "R@10",
        ]
        assert list(rows[0]["metrics"]) == [
            "auc", "ndcg@20", "p@5", "p@10", "r@5", "r@10",
        ]

    def test_runs_with_different_columns_are_rejected(self, tmp_path):
        metrics = self.metric_row(0.4)
        metrics["ndcg@20"] = 0.4
        dirs = [
            self.write_report(tmp_path, "cut50", "naive", metrics),
            self.write_report(tmp_path, "cut20", "naive", metrics, ndcg_k=20),
        ]
        with pytest.raises(ValidationError, match="ndcg@20"):
            make_table(dirs)

    def test_missing_report_is_rejected(self, tmp_path):
        run_dir = tmp_path / "empty"
        run_dir.mkdir()
        with pytest.raises(ValidationError, match=re.escape(str(run_dir))):
            make_table([str(run_dir)])

    # The CLI tests cover a report that is not JSON or lacks its config.
    @pytest.mark.parametrize("data", [
        json.dumps({"run_id": "x" * 16, "objective": "naive", "config": None}).encode(),
        json.dumps({"config": {"ndcg_k": 50, "precision_ks": [5]}}).encode(),
        b'["a", "list"]',
        b'{"objective": "\xff"}',
        json.dumps({"run_id": "x" * 16, "objective": "naive",
                    "config": {"ndcg_k": 50, "precision_ks": [5]},
                    "test_metrics": {"auc": "high"}}).encode(),
        json.dumps({"run_id": "x" * 16, "objective": "naive",
                    "config": {"ndcg_k": 50, "precision_ks": [5]},
                    "test_metrics": ["auc"]}).encode(),
    ], ids=["null-config", "no-objective", "a-list", "not-utf8", "text-metric", "metric-list"])
    def test_a_malformed_report_names_its_run_dir(self, tmp_path, data):
        good = self.write_report(tmp_path, "good", "naive", self.metric_row(0.5))
        run_dir = tmp_path / "malformed"
        run_dir.mkdir()
        (run_dir / "report.json").write_bytes(data)
        with pytest.raises(ValidationError, match=re.escape(str(run_dir))):
            make_table([good, str(run_dir)])

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


class TestSyntheticWorldCache:
    @pytest.fixture(autouse=True)
    def builds(self, monkeypatch):
        """Specs passed to experiment.generate_synthetic, with an empty cache."""
        built = []
        real = experiment.generate_synthetic

        def counting(spec):
            built.append(spec)
            return real(spec)

        monkeypatch.setattr(experiment, "generate_synthetic", counting)
        experiment._WORLD.clear()
        yield built
        experiment._WORLD.clear()

    def test_configs_of_one_world_build_it_once(self, tmp_path, builds):
        first = build_datasets(quick_cfg(tmp_path, seed=1))
        second = build_datasets(quick_cfg(
            tmp_path, objective="sste", epsilon_train=(0.5,), seed=2, embedding_dim=8,
        ))
        assert len(builds) == 1
        assert all(a is b for a, b in zip(first, second))
        for d in first:
            assert not any(col.flags.writeable for col in (d.users, d.items, d.labels))

    def test_another_data_seed_rebuilds_the_world(self, tmp_path, builds):
        first = build_datasets(quick_cfg(tmp_path, data_seed=1))
        second = build_datasets(quick_cfg(tmp_path, data_seed=2))
        assert [spec.seed for spec in builds] == [1, 2]
        assert not np.array_equal(first[0].users, second[0].users)

    def test_grid_runs_match_runs_that_build_their_own_world(
        self, tmp_path, monkeypatch, builds
    ):
        base = quick_cfg(
            tmp_path, objective="sste", epsilon_train=(0.5,), epsilon_val=(0.3,),
            resample_each_epoch=True, max_epochs=2, patience=2,
            out_dir=str(tmp_path / "shared"),
        )
        grid = GridSpec(values={"embedding_dim": (4, 8), "learning_rate": (0.01, 0.05)})
        run_grid(grid, base)
        assert len(builds) == 1

        real_run_one = experiment.run_one

        def run_one_with_a_fresh_world(cfg):
            experiment._WORLD.clear()
            return real_run_one(cfg)

        monkeypatch.setattr(experiment, "run_one", run_one_with_a_fresh_world)
        run_grid(grid, replace(base, out_dir=str(tmp_path / "fresh")))
        assert len(builds) == 1 + 4
        assert differing_files(tmp_path / "shared", tmp_path / "fresh") == []


class TestFileWorldCache:
    @pytest.fixture(autouse=True)
    def calls(self, monkeypatch):
        """(name, first argument) of each experiment.load_tsv and split_ratio
        call, with an empty cache."""
        called = []
        for name in ("load_tsv", "split_ratio"):
            real = getattr(experiment, name)

            def counting(*args, _name=name, _real=real, **kwargs):
                called.append((_name, args[0] if _name == "load_tsv" else None))
                return _real(*args, **kwargs)

            monkeypatch.setattr(experiment, name, counting)
        experiment._WORLD.clear()
        yield called
        experiment._WORLD.clear()

    @pytest.fixture()
    def inputs(self, yahoo_dir, tmp_path):
        """A copy of the small Yahoo!-shaped train.tsv and test.tsv."""
        out = tmp_path / "inputs"
        out.mkdir()
        for name in ("train.tsv", "test.tsv"):
            (out / name).write_bytes((yahoo_dir / name).read_bytes())
        return out

    @staticmethod
    def config(inputs, out_dir, **overrides) -> RunConfig:
        return RunConfig(**{
            **dict(synthetic=False, schema="rating", train_path=str(inputs / "train.tsv"),
                   test_path=str(inputs / "test.tsv"), objective="sste",
                   epsilon_train=(0.5,), epsilon_val=(0.3,), resample_each_epoch=True,
                   embedding_dim=4, batch_size=512, max_epochs=2, patience=2,
                   data_seed=1, seed=1, out_dir=str(out_dir)),
            **overrides,
        })

    GRID = GridSpec(values={"embedding_dim": (4, 8), "learning_rate": (0.01, 0.05)})

    def test_a_grid_reads_each_file_once_and_splits_once(self, inputs, tmp_path, calls):
        result = run_grid(self.GRID, self.config(inputs, tmp_path / "grid"))
        assert [row["status"] for row in result.rows] == ["ok"] * 4
        assert calls == [("load_tsv", str(inputs / "train.tsv")), ("split_ratio", None),
                         ("load_tsv", str(inputs / "test.tsv"))]

    def test_grid_runs_match_runs_that_build_their_own_world(
        self, inputs, tmp_path, monkeypatch, calls
    ):
        run_grid(self.GRID, self.config(inputs, tmp_path / "shared"))
        assert len(calls) == 3

        real_run_one = experiment.run_one

        def run_one_with_a_fresh_world(cfg):
            experiment._WORLD.clear()
            return real_run_one(cfg)

        monkeypatch.setattr(experiment, "run_one", run_one_with_a_fresh_world)
        run_grid(self.GRID, self.config(inputs, tmp_path / "fresh"))
        assert len(calls) == 3 + 4 * 3
        assert differing_files(tmp_path / "shared", tmp_path / "fresh") == []

    def test_an_edited_input_is_read_again(self, inputs, tmp_path, calls):
        before = run_one(self.config(inputs, tmp_path / "before"))
        train = inputs / "train.tsv"
        lines = train.read_bytes().splitlines(keepends=True)
        # The same ids, one row more per repeated line: the same vocabulary.
        train.write_bytes(b"".join(lines + lines[:200]))
        after = run_one(self.config(inputs, tmp_path / "after"))
        assert [name for name, _ in calls] == ["load_tsv", "split_ratio", "load_tsv"] * 2
        experiment._WORLD.clear()
        fresh = run_one(self.config(inputs, tmp_path / "fresh"))
        assert (before.status, after.status, fresh.status) == ("ok", "ok", "ok")
        assert differing_files(tmp_path / "after", tmp_path / "fresh") == []
        assert differing_files(tmp_path / "before", tmp_path / "after") != []

    def test_cached_columns_are_not_writeable(self, inputs, tmp_path, calls):
        first = build_datasets(self.config(inputs, tmp_path))
        second = build_datasets(self.config(inputs, tmp_path, seed=2, embedding_dim=8))
        assert len(calls) == 3
        assert all(a is b for a, b in zip(first, second))
        for d in first:
            columns = (d.users, d.items, d.labels, d.user_id_map, d.item_id_map)
            assert not any(col.flags.writeable for col in columns)

    def test_split_settings_key_the_world_only_without_a_val_file(self, inputs, tmp_path, calls):
        splits = [dict(data_seed=1), dict(data_seed=2), dict(split_ratio=0.5),
                  dict(split_mode="chronological")]
        with_val = [build_datasets(self.config(inputs, tmp_path, val_path=str(inputs / "test.tsv"),
                                               **split)) for split in splits]
        assert [name for name, _ in calls] == ["load_tsv"] * 3
        assert all(world[0] is with_val[0][0] for world in with_val)
        for split in splits:
            build_datasets(self.config(inputs, tmp_path, **split))
        assert [name for name, _ in calls[3:]] == ["load_tsv", "split_ratio", "load_tsv"] * 4

    def test_every_input_is_read_before_any_is_parsed(self, inputs, tmp_path, calls):
        (inputs / "train.tsv").write_text("1\tx\t5\n")
        missing = inputs / "missing.tsv"
        with pytest.raises(FileNotFoundError, match=re.escape(str(missing))):
            build_datasets(self.config(inputs, tmp_path, test_path=str(missing)))
        assert calls == []
        with pytest.raises(ParseError):
            build_datasets(self.config(inputs, tmp_path))

    def test_a_cached_world_is_checked_on_every_call(self, inputs, tmp_path, calls):
        cfg = self.config(inputs, tmp_path, split_ratio=0.01)
        message = (f"^split_ratio = 0.01 \\(per_user\\) leaves the train split of "
                   f"{re.escape(cfg.train_path)} empty$")
        for _ in range(2):
            with pytest.raises(ValidationError, match=message):
                build_datasets(cfg)
        assert len(calls) == 3


CHUNK = experiment._SIDECAR_CHUNK


def spread_ids(n: int, seed: int) -> np.ndarray:
    """``n`` strictly increasing int64 ids: both ends of int64, -1, 0 and 1,
    and the rest beyond int32."""
    fixed = [-2**63, -2**63 + 1, -1, 0, 1, 2**63 - 2, 2**63 - 1]
    rng = np.random.default_rng(seed)
    rest = rng.integers(2**31, 2**62, n - len(fixed)) * rng.choice([-1, 1], n - len(fixed))
    ids = np.sort(np.concatenate([np.array(fixed, dtype=np.int64), rest]))
    assert np.all(ids[1:] > ids[:-1])
    return ids


def id_mapped(users: np.ndarray, items: np.ndarray) -> Dataset:
    """A dataset with no rows whose id maps are ``users`` and ``items``."""
    return Dataset([], [], [], len(users), len(items), Provenance.BIASED_TRAIN, users, items)


class TestModelFiles:
    @pytest.fixture()
    def saved(self, tmp_path):
        """A checkpoint saved for the dataset of users 3, 10 and items 20, 30."""
        src = tmp_path / "a.tsv"
        src.write_text("10\t30\t4\n3\t20\t2\n")
        train = load_tsv(src, Schema.USER_ITEM_RATING)
        ckpt = tmp_path / "model.ckpt"
        save_model(init(2, 2, k=3, scale=0.1, seed=1), train, ckpt)
        return ckpt

    def test_the_sidecar_bytes_are_fixed(self, saved):
        assert Path(str(saved) + ".vocab.json").read_bytes() == (
            b'{"items": [20, 30], "users": [3, 10]}'
        )

    def test_load_model_reads_back_the_ids_of_each_row(self, saved):
        model, user_ids, item_ids = load_model(saved)
        assert model.n_users == 2
        assert user_ids.tolist() == [3, 10]
        assert item_ids.tolist() == [20, 30]

    def test_load_model_returns_the_training_maps(self, tmp_path):
        src = tmp_path / "a.tsv"
        src.write_text(f"900\t7\t4\n{2**40}\t31\t2\n12\t7\t5\n")
        train = load_tsv(src, Schema.USER_ITEM_RATING)
        ckpt = tmp_path / "model.ckpt"
        save_model(init(3, 2, k=2, scale=0.1, seed=1), train, ckpt)
        _, user_ids, item_ids = load_model(ckpt)
        assert np.array_equal(user_ids, train.user_id_map)
        assert np.array_equal(item_ids, train.item_id_map)

    @pytest.mark.parametrize("n_users, n_items", [
        (CHUNK - 1, CHUNK + 1), (CHUNK, 2 * CHUNK + 1), (CHUNK + 1, CHUNK), (2 * CHUNK + 1, 8),
    ])
    def test_the_streamed_sidecar_is_the_json_of_both_maps(self, tmp_path, n_users, n_items):
        users, items = spread_ids(n_users, seed=1), spread_ids(n_items, seed=2)
        ckpt = tmp_path / "model.ckpt"
        save_model(init(n_users, n_items, k=1, scale=0.1, seed=1),
                   id_mapped(users, items), ckpt)
        expected = json.dumps({"items": items.tolist(), "users": users.tolist()}, sort_keys=True)
        assert Path(str(ckpt) + ".vocab.json").read_bytes() == expected.encode()
        _, user_ids, item_ids = load_model(ckpt)
        assert np.array_equal(user_ids, users) and np.array_equal(item_ids, items)

    def test_saving_200k_ids_takes_a_few_bytes_per_id(self, tmp_path, traced_peak):
        # The sidecar holds the ints and strings of one chunk of ids at a
        # time, and the checkpoint writes each table from its own buffer:
        # 2.5 bytes per id measured, against 83 when the whole id map and
        # document were built, with each table copied by tobytes.
        n = 200_000
        users = np.cumsum(np.random.default_rng(0).integers(1, 2**44, n))  # up to 19 digits
        model = init(n, 1000, k=2, scale=0.1, seed=1)
        _, peak = traced_peak(save_model, model, id_mapped(users, 7 * np.arange(1000)),
                              tmp_path / "model.ckpt")
        assert peak < 4 * n

    def test_without_a_sidecar_the_ids_are_the_rows(self, saved):
        Path(str(saved) + ".vocab.json").unlink()
        _, user_ids, item_ids = load_model(saved)
        assert user_ids.tolist() == [0, 1]
        assert item_ids.tolist() == [0, 1]

    @pytest.mark.parametrize("text, reason", [
        ('{"users": [10, 3], "items": [20, 30]}', "users must be a nonempty, strictly increasing"),
        ('{"users": [3, 10], "items": [20, 20]}', "items must be a nonempty, strictly increasing"),
        ('{"users": [], "items": [20, 30]}', "users must be a nonempty, strictly increasing"),
        # numpy reads the JSON [0, true] as [0, 1].
        ('{"users": [0, true], "items": [20, 30]}', "users must be a list of JSON integers"),
        ('{"users": [3, 10.0], "items": [20, 30]}', "users must be a list of JSON integers"),
        ('{"users": [3, "10"], "items": [20, 30]}', "users must be a list of JSON integers"),
        (f'{{"users": [3, {2**63}], "items": [20, 30]}}', "users must be a nonempty, strictly increasing int64"),
        ('{"users": [3], "items": [20, 30]}', "users holds 1 ids, expected 2"),
        ('{"users": [3, 10, 11], "items": [20, 30]}', "users holds 3 ids, expected 2"),
        ('{"users": [3, 10], "items": [20]}', "items holds 1 ids, expected 2"),
        ('{"users": [3, 10], "items": [20, 30, 40]}', "items holds 3 ids, expected 2"),
        ('{"users": [3, 10]}', "items must be a list of JSON integers"),
        ('{"items": {"20": 0, "30": 1}, "users": {"10": 1, "3": 0}}',  # the old dict form
         "users must be a list of JSON integers"),
        ("{not json", "Expecting property name"),
    ], ids=["unsorted", "repeated", "empty", "true", "float", "string", "beyond-int64",
            "few-users", "many-users", "few-items", "many-items", "missing-key", "dict-form",
            "not-json"])
    def test_a_malformed_sidecar_is_refused(self, saved, text, reason):
        sidecar = Path(str(saved) + ".vocab.json")
        sidecar.write_text(text)
        prefix = re.escape(f"malformed vocab sidecar {sidecar}: {reason}")
        with pytest.raises(ParseError, match=f"^{prefix}"):
            load_model(saved)
