"""End-to-end command line flows on small synthetic data."""

import json
from pathlib import Path

import numpy as np
import pytest

from sste.cli import main
from sste.data import Schema, load_tsv
from sste.model import Branch, load_checkpoint

SPEC_TEXT = (
    "n_users=30\nn_items=20\nlatent_dim=4\nexposure_bias_strength=1.5\n"
    "positive_threshold=0.3\ntrain_impressions=1500\ntest_impressions=600\n"
    "seed=5\n"
)


@pytest.fixture()
def synth_dir(tmp_path):
    spec = tmp_path / "spec.cfg"
    spec.write_text(SPEC_TEXT)
    out = tmp_path / "data"
    assert main(["data", "synth", "--spec", str(spec),
                 "--out-dir", str(out)]) == 0
    return out


def read_json_lines(capsys):
    """Every JSON document in the captured stdout, in print order."""
    text = capsys.readouterr().out
    decoder = json.JSONDecoder()
    docs = []
    pos = 0
    while True:
        while pos < len(text) and text[pos] not in "{[":
            pos += 1
        if pos >= len(text):
            return docs
        doc, end = decoder.raw_decode(text, pos)
        docs.append(doc)
        pos = end


class TestDataCommands:
    def test_synth_writes_the_triple(self, synth_dir):
        for name in ("train.tsv", "val.tsv", "test.tsv", "relevance.npy"):
            assert (synth_dir / name).exists()
        relevance = np.load(synth_dir / "relevance.npy")
        assert relevance.shape == (30, 20)

    def test_stats_prints_counts(self, synth_dir, capsys):
        assert main(["data", "stats", "--input", str(synth_dir / "train.tsv"),
                     "--schema", "label"]) == 0
        out = read_json_lines(capsys)[-1]
        train = load_tsv(synth_dir / "train.tsv", Schema.USER_ITEM_LABEL)
        assert out["n_feedback"] == len(train)
        assert out["pn_ratio_percent"] == pytest.approx(
            100.0 * train.positive_count / train.negative_count
        )

    def test_stats_on_a_missing_file_exits_nonzero(self, tmp_path, capsys):
        assert main(["data", "stats", "--input",
                     str(tmp_path / "nope.tsv")]) == 1
        assert "error:" in capsys.readouterr().err

    def test_bad_spec_key_exits_nonzero(self, tmp_path, capsys):
        spec = tmp_path / "spec.cfg"
        spec.write_text("n_users=10\nwhat=3\n")
        assert main(["data", "synth", "--spec", str(spec),
                     "--out-dir", str(tmp_path)]) == 1
        assert "line 2" in capsys.readouterr().err

    def test_non_numeric_spec_value_reports_its_line(self, tmp_path, capsys):
        spec = tmp_path / "spec.cfg"
        spec.write_text("n_users=abc\n")
        assert main(["data", "synth", "--spec", str(spec),
                     "--out-dir", str(tmp_path)]) == 1
        assert "error: line 1: bad value for n_users" in capsys.readouterr().err


class TestPropensityCommands:
    def test_propensity_writes_one_line_per_item(self, synth_dir, capsys):
        out = synth_dir / "prop.tsv"
        assert main(["propensity", "--input", str(synth_dir / "train.tsv"),
                     "--schema", "label", "--gamma", "1.0",
                     "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 20
        values = [float(line.split("\t")[1]) for line in lines]
        assert max(values) == 1.0
        assert min(values) >= 0.01

    def test_propensity_lines_carry_the_file_item_ids(self, tmp_path, capsys):
        data = tmp_path / "sparse.tsv"
        data.write_text("7\t205\t1\n7\t100\t0\n8\t100\t1\n")
        out = tmp_path / "prop.tsv"
        assert main(["propensity", "--input", str(data), "--schema", "label",
                     "--gamma", "1.0", "--out", str(out)]) == 0
        lines = [line.split("\t") for line in out.read_text().splitlines()]
        assert [(item, float(value)) for item, value in lines] == [
            ("100", 1.0), ("205", 0.5)
        ]

    def test_selfsample_draws_a_subset(self, synth_dir, capsys):
        out = synth_dir / "aux.tsv"
        assert main(["selfsample", "--input", str(synth_dir / "train.tsv"),
                     "--schema", "label", "--gamma", "1.0",
                     "--epsilon", "0.5", "--seed", "3",
                     "--out", str(out)]) == 0
        info = read_json_lines(capsys)[-1]
        subset = load_tsv(out, Schema.USER_ITEM_LABEL)
        assert info["subset_size"] == len(subset)
        assert len(subset) < info["source_size"]

    def test_selfsample_is_deterministic(self, synth_dir, capsys):
        args = ["selfsample", "--input", str(synth_dir / "train.tsv"),
                "--schema", "label", "--epsilon", "0.5", "--seed", "3"]
        a = synth_dir / "a.tsv"
        b = synth_dir / "b.tsv"
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()


@pytest.fixture()
def trained(synth_dir, tmp_path, capsys):
    ckpt = tmp_path / "model.ckpt"
    log = tmp_path / "epochs.jsonl"
    code = main([
        "train", "--objective", "sste",
        "--train", str(synth_dir / "train.tsv"),
        "--val", str(synth_dir / "val.tsv"),
        "--schema", "label", "--gamma", "1.0",
        "--epsilon-train", "0.5", "--epsilon-val", "0.5",
        "--lr", "0.01", "--batch", "256", "--max-epochs", "3",
        "--patience", "3", "--seed", "1", "--embedding-dim", "4",
        "--init-scale", "0.1", "--checkpoint-out", str(ckpt),
        "--log", str(log),
    ])
    assert code == 0
    return ckpt, log, read_json_lines(capsys)[-1]


class TestTrainAndEvaluate:
    def test_train_writes_checkpoint_log_and_sidecar(self, trained):
        ckpt, log, summary = trained
        assert ckpt.exists()
        assert Path(str(ckpt) + ".vocab.json").exists()
        lines = [json.loads(l) for l in log.read_text().splitlines()]
        assert len(lines) == summary["epochs_run"]
        assert lines[0]["epoch"] == 1
        assert len(lines[0]["aux_scores"]) == 1
        model = load_checkpoint(ckpt)
        assert model.n_users == 30
        assert model.n_items == 20

    def test_evaluate_reports_requested_metrics(self, trained, synth_dir,
                                                capsys):
        ckpt, _, _ = trained
        code = main([
            "evaluate", "--checkpoint", str(ckpt),
            "--test", str(synth_dir / "test.tsv"), "--schema", "label",
            "--metrics", "auc,p@5,r@10,ndcg@50",
            "--exclude-train", str(synth_dir / "train.tsv"),
        ])
        assert code == 0
        out = read_json_lines(capsys)[-1]
        assert set(out) == {"auc", "p@5", "r@10", "ndcg@50"}
        for value in out.values():
            assert 0.0 <= value <= 1.0

    def test_evaluate_matches_direct_prediction(self, trained, synth_dir,
                                                capsys):
        ckpt, _, _ = trained
        assert main(["evaluate", "--checkpoint", str(ckpt),
                     "--test", str(synth_dir / "test.tsv"),
                     "--schema", "label", "--metrics", "auc"]) == 0
        out = read_json_lines(capsys)[-1]
        model = load_checkpoint(ckpt)
        test = load_tsv(synth_dir / "test.tsv", Schema.USER_ITEM_LABEL)
        from sste.evaluate import auc_scores

        expected = auc_scores(
            model.predict(Branch.HAT, test.users, test.items), test.labels
        )
        assert out["auc"] == pytest.approx(expected)

    def test_evaluate_scores_alpha_against_aux_files(self, trained, synth_dir,
                                                     tmp_path, capsys):
        ckpt, _, _ = trained
        aux = tmp_path / "auxval.tsv"
        assert main(["selfsample", "--input", str(synth_dir / "val.tsv"),
                     "--schema", "label", "--gamma", "1.0",
                     "--epsilon", "0.5", "--seed", "9",
                     "--out", str(aux)]) == 0
        code = main([
            "evaluate", "--checkpoint", str(ckpt),
            "--test", str(synth_dir / "test.tsv"), "--schema", "label",
            "--metrics", "auc", "--val", str(synth_dir / "val.tsv"),
            "--aux-val", str(aux),
        ])
        assert code == 0
        out = read_json_lines(capsys)[-1]
        assert out["alpha"] == pytest.approx(
            abs(out["val_auc"] - out["aux_auc"][0])
        )
        assert out["modified_score"] == pytest.approx(
            out["val_auc"] - out["alpha"]
        )

    def test_evaluate_skips_a_single_class_aux_file(self, trained, synth_dir,
                                                    tmp_path, capsys):
        ckpt, _, _ = trained
        val_lines = (synth_dir / "val.tsv").read_text().splitlines()
        positives = tmp_path / "positives.tsv"
        positives.write_text("".join(
            line + "\n" for line in val_lines if line.endswith("\t1")
        ))
        assert positives.read_text()
        code = main([
            "evaluate", "--checkpoint", str(ckpt),
            "--test", str(synth_dir / "test.tsv"), "--schema", "label",
            "--metrics", "auc", "--val", str(synth_dir / "val.tsv"),
            "--aux-val", str(positives), str(synth_dir / "val.tsv"),
        ])
        assert code == 0
        out = read_json_lines(capsys)[-1]
        assert out["aux_auc"] == [out["val_auc"]]
        assert out["alpha"] == 0.0

    @pytest.mark.parametrize("metrics", ["p@x", "p@0", "foo", "ndcg@10,ndcg@5"])
    def test_evaluate_rejects_bad_metric_names(self, trained, synth_dir,
                                               capsys, metrics):
        ckpt, _, _ = trained
        assert main(["evaluate", "--checkpoint", str(ckpt),
                     "--test", str(synth_dir / "test.tsv"),
                     "--schema", "label", "--metrics", metrics]) == 1
        captured = capsys.readouterr()
        assert "error:" in captured.err
        assert captured.out == ""


def train_and_run(synth_dir, tmp_path, capsys, settings):
    """``sste train`` and ``exp run`` on the same settings.

    Returns the train checkpoint, its epoch log and the run directory.
    """
    flags = {"learning_rate": "lr", "l2_lambda": "l2", "batch_size": "batch"}
    ckpt = tmp_path / "model.ckpt"
    log = tmp_path / "epochs.jsonl"
    argv = ["train", "--train", str(synth_dir / "train.tsv"),
            "--val", str(synth_dir / "val.tsv"),
            "--checkpoint-out", str(ckpt), "--log", str(log)]
    for key, value in settings.items():
        argv += ["--" + flags.get(key, key).replace("_", "-"), value]
    assert main(argv) == 0

    config = tmp_path / "run.cfg"
    config.write_text("".join(f"{k}={v}\n" for k, v in {
        **settings, "synthetic": "false",
        "train_path": synth_dir / "train.tsv",
        "val_path": synth_dir / "val.tsv",
        "test_path": synth_dir / "test.tsv",
        "out_dir": tmp_path / "runs",
    }.items()))
    assert main(["exp", "run", "--config", str(config)]) == 0
    return ckpt, log, Path(read_json_lines(capsys)[-1]["run_dir"])


PIPELINE_SETTINGS = {
    "schema": "label", "gamma": "1.0", "learning_rate": "0.01",
    "l2_lambda": "0.001", "batch_size": "256", "max_epochs": "3",
    "patience": "3", "seed": "1", "embedding_dim": "4", "init_scale": "0.1",
}


class TestOnePipeline:
    @pytest.mark.parametrize("objective, epsilons", [
        ("naive", {}), ("sste", {"epsilon_train": "0.5", "epsilon_val": "0.5"}),
    ])
    def test_train_matches_exp_run_byte_for_byte(self, synth_dir, tmp_path,
                                                 capsys, objective, epsilons):
        ckpt, log, run_dir = train_and_run(
            synth_dir, tmp_path, capsys,
            {**PIPELINE_SETTINGS, "objective": objective, **epsilons},
        )
        assert (run_dir / "model.ckpt").read_bytes() == ckpt.read_bytes()
        assert (run_dir / "epochs.jsonl").read_bytes() == log.read_bytes()

    def test_evaluate_matches_exp_run_report(self, synth_dir, tmp_path, capsys):
        ckpt, _, run_dir = train_and_run(
            synth_dir, tmp_path, capsys,
            {**PIPELINE_SETTINGS, "objective": "sste", "epsilon_train": "0.5",
             "epsilon_val": "0.5"},
        )
        assert main(["evaluate", "--checkpoint", str(ckpt),
                     "--test", str(synth_dir / "test.tsv"), "--schema", "label",
                     "--exclude-train", str(synth_dir / "train.tsv"),
                     "--metrics", "auc,p@5,p@10,r@5,r@10,ndcg@50"]) == 0
        report = json.loads((run_dir / "report.json").read_text())
        assert read_json_lines(capsys)[-1] == report["test_metrics"]

    def test_train_rejects_thresholds_outside_sste(self, synth_dir, tmp_path,
                                                   capsys):
        assert main(["train", "--objective", "ips",
                     "--train", str(synth_dir / "train.tsv"),
                     "--val", str(synth_dir / "val.tsv"), "--schema", "label",
                     "--epsilon-train", "0.5",
                     "--checkpoint-out", str(tmp_path / "m.ckpt")]) == 1
        assert "error:" in capsys.readouterr().err


class TestBadCheckpoints:
    def evaluate(self, ckpt, synth_dir):
        return main(["evaluate", "--checkpoint", str(ckpt),
                     "--test", str(synth_dir / "test.tsv"),
                     "--schema", "label", "--metrics", "auc"])

    def test_malformed_header_exits_nonzero(self, trained, synth_dir, capsys):
        ckpt, _, _ = trained
        magic, _, payload = ckpt.read_bytes().split(b"\n", 2)
        # 116 floats is the payload size these dims imply.
        header = b'{"k": 4, "n_items": 20, "n_users": -1}'
        ckpt.write_bytes(magic + b"\n" + header + b"\n" + payload[:8 * 116])
        assert self.evaluate(ckpt, synth_dir) == 1
        assert "error:" in capsys.readouterr().err

    def test_sidecar_outside_the_checkpoint_exits_nonzero(self, trained,
                                                          synth_dir, capsys):
        ckpt, _, _ = trained
        sidecar = Path(str(ckpt) + ".vocab.json")
        vocab = json.loads(sidecar.read_text())
        vocab["items"][next(iter(vocab["items"]))] = 20
        sidecar.write_text(json.dumps(vocab))
        assert self.evaluate(ckpt, synth_dir) == 1
        assert "outside the checkpoint" in capsys.readouterr().err


class TestExperimentCommands:
    def write_config(self, tmp_path, **overrides):
        lines = {
            "synthetic": "true", "n_users": "30", "n_items": "20",
            "latent_dim": "4", "train_impressions": "1500",
            "test_impressions": "600", "data_seed": "1",
            "objective": "naive", "gamma": "1.0",
            "embedding_dim": "4", "init_scale": "0.1",
            "learning_rate": "0.01", "batch_size": "256",
            "max_epochs": "2", "patience": "2",
            "out_dir": str(tmp_path / "runs"),
        }
        lines.update({k: str(v) for k, v in overrides.items()})
        path = tmp_path / "run.cfg"
        path.write_text("".join(f"{k}={v}\n" for k, v in lines.items()))
        return path

    def test_exp_run_reports_the_run_dir(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path)
        assert main(["exp", "run", "--config", str(cfg)]) == 0
        out = read_json_lines(capsys)[-1]
        assert out["status"] == "ok"
        assert Path(out["run_dir"], "report.json").exists()

    def test_exp_run_exits_nonzero_on_failure(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path, learning_rate="1000.0",
                                max_epochs="5")
        assert main(["exp", "run", "--config", str(cfg)]) == 1
        out = read_json_lines(capsys)[-1]
        assert out["status"] == "failed"

    def test_exp_grid_and_table_flow(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path)
        grid = tmp_path / "grid.cfg"
        grid.write_text("embedding_dim=4,8\n")
        assert main(["exp", "grid", "--config", str(cfg),
                     "--grid", str(grid)]) == 0
        out = read_json_lines(capsys)[-1]
        assert out["n_rows"] == 2
        leaderboard = Path(out["leaderboard"])
        assert leaderboard.exists()
        run_ids = [line.split("\t")[1]
                   for line in leaderboard.read_text().splitlines()[1:]]
        run_dirs = [str(tmp_path / "runs" / f"run-{rid}") for rid in run_ids]
        table_out = tmp_path / "table.tsv"
        assert main(["exp", "table", "--runs", *run_dirs,
                     "--out", str(table_out)]) == 0
        text = capsys.readouterr().out
        assert "AUC" in text and "nDCG@50" in text
        assert table_out.read_text().splitlines()[0].startswith("label\t")
