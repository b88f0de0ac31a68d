"""End-to-end command line flows on small synthetic data."""

import hashlib
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import sste
from sste.cli import main
from sste.data import Schema, load_tsv
from sste.model import Branch, load_checkpoint
from sste.propensity import estimate_popularity_propensity, sampling_probabilities

from reference import truncate

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
            100.0 * train.positive_count / (len(train) - train.positive_count)
        )

    def test_stats_on_a_missing_file_exits_nonzero(self, tmp_path, capsys):
        assert main(["data", "stats", "--input",
                     str(tmp_path / "nope.tsv")]) == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("content, message", [
        (b"99999999999999999999\t1\t4\n",
         "error: line 1: user id 99999999999999999999 outside int64"),
        (b"1\t2\t4\n\xff\t2\t4\n", "error: line 2: invalid UTF-8"),
    ])
    def test_stats_on_a_malformed_file_names_its_line(self, tmp_path, capsys,
                                                      content, message):
        path = tmp_path / "bad.tsv"
        path.write_bytes(content)
        assert main(["data", "stats", "--input", str(path)]) == 1
        assert capsys.readouterr().err.strip() == message

    def test_stats_of_a_set_without_negatives_is_refused(self, tmp_path, capsys):
        path = tmp_path / "positives.tsv"
        path.write_text("1\t2\t1\n3\t4\t1\n")
        assert main(["data", "stats", "--input", str(path), "--schema", "label"]) == 1
        assert capsys.readouterr().err == "error: P/N ratio undefined without negatives\n"

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

    def test_a_spec_line_that_is_not_utf8_reports_its_line(self, tmp_path, capsys):
        spec = tmp_path / "spec.cfg"
        spec.write_bytes(b"n_users=10\n\xff\xfe = 1\n")
        assert main(["data", "synth", "--spec", str(spec),
                     "--out-dir", str(tmp_path)]) == 1
        assert capsys.readouterr().err == "error: line 2: invalid UTF-8\n"

    def test_a_one_pair_spec_is_refused(self, tmp_path, capsys):
        spec = tmp_path / "spec.cfg"
        spec.write_text("n_users=1\nn_items=1\nlatent_dim=1\n" + SPEC_TEXT.split("\n", 3)[3])
        out = tmp_path / "data"
        assert main(["data", "synth", "--spec", str(spec), "--out-dir", str(out)]) == 1
        assert capsys.readouterr().err == "error: n_users * n_items must be at least 2\n"
        assert not out.exists()

    @pytest.mark.parametrize("strength", ["1000", "inf"])
    def test_an_overflowing_bias_strength_is_refused(self, tmp_path, capsys, strength):
        spec = tmp_path / "spec.cfg"
        rest = SPEC_TEXT.split("\n", 2)[2].replace("strength=1.5", f"strength={strength}")
        spec.write_text("n_users=20\nn_items=10\n" + rest)
        out = tmp_path / "data"
        assert main(["data", "synth", "--spec", str(spec), "--out-dir", str(out)]) == 1
        assert capsys.readouterr().err == (
            f"error: exposure_bias_strength = {float(strength)} "
            "overflows the synthetic exposure weights\n"
        )
        assert not out.exists()

    def test_spec_missing_keys_names_them(self, tmp_path, capsys):
        spec = tmp_path / "spec.cfg"
        spec.write_text("n_users=10\n")
        assert main(["data", "synth", "--spec", str(spec),
                     "--out-dir", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: missing synthetic keys: n_items, latent_dim,")
        assert "seed" in err
        assert not (tmp_path / "train.tsv").exists()

    def test_synth_refuses_a_triple_train_cannot_load(self, tmp_path, capsys):
        # This world's train split shows 44 of its 80 items; its val split
        # holds 4 more, which sste train would reject as unknown ids.
        spec = tmp_path / "spec.cfg"
        spec.write_text(
            "n_users=300\nn_items=80\nlatent_dim=6\nexposure_bias_strength=1.5\n"
            "train_impressions=30000\ntest_impressions=5000\npositive_threshold=0.25\n"
            "seed=3\n"
        )
        out = tmp_path / "data"
        assert main(["data", "synth", "--spec", str(spec), "--out-dir", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: val.tsv would hold 4 item ids that train.tsv never shows")
        assert "(first: 6)" in err
        assert not out.exists()

    def test_synth_files_of_a_loadable_spec_are_unchanged(self, synth_dir):
        # Digests of the files this spec has always produced.
        expected = {
            "train.tsv": "632facccd413d9cb3134785c2d77c85ef66f8199c052b42cfe02b5f9dc3c2617",
            "val.tsv": "a493cc907eb4a7dad38ed17e066ebe16c19e5f4f0e6b543d3ab1ce4cff44604d",
            "test.tsv": "6b29f5326b8e386b4bb61dec68f1bdc7850fea379fb34e2284e46c83b09ade2e",
            "relevance.npy": "7ee6e3d0a0a4094788f56daf53783653e76db509a3a043e371caa1c5046f7ad7",
        }
        for name, digest in expected.items():
            assert hashlib.sha256((synth_dir / name).read_bytes()).hexdigest() == digest


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

    # The flags are checked before the input is read, so a missing one
    # still reports the flag.
    @pytest.mark.parametrize("source", ["train.tsv", "missing.tsv"])
    def test_selfsample_rejects_a_negative_seed(self, synth_dir, capsys, source):
        out = synth_dir / "aux.tsv"
        assert main(["selfsample", "--input", str(synth_dir / source),
                     "--schema", "label", "--epsilon", "0.5", "--seed", "-1",
                     "--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: seed must be >= 0, got -1\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", [["propensity"],
                                         ["selfsample", "--epsilon", "0.5", "--seed", "3"]])
    def test_a_floor_whose_inverse_overflows_is_refused(self, synth_dir, capsys, command):
        out = synth_dir / "out.tsv"
        args = [*command, "--input", str(synth_dir / "train.tsv"), "--schema", "label",
                "--gamma", "1000", "--out", str(out)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main([*args, "--floor", "1e-310"]) == 1
            assert capsys.readouterr().err == (
                "error: floor must lie in (0,1] with a finite inverse, got 1e-310\n"
            )
            assert not out.exists()
            assert main([*args, "--floor", "1e-300"]) == 0
        assert out.exists()

    @pytest.mark.parametrize("source", ["train.tsv", "missing.tsv"])
    @pytest.mark.parametrize("epsilon", ["1.5", "-0.1", "nan"])
    def test_selfsample_rejects_an_epsilon_outside_zero_one(self, synth_dir, capsys, epsilon,
                                                            source):
        out = synth_dir / "aux.tsv"
        assert main(["selfsample", "--input", str(synth_dir / source),
                     "--schema", "label", "--epsilon", epsilon, "--seed", "3",
                     "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            f"error: epsilon must lie in [0,1], got {float(epsilon)}\n"
        )
        assert not out.exists()

    def test_selfsample_expected_size_sums_the_truncated_probabilities(self, synth_dir, capsys):
        train = synth_dir / "train.tsv"
        assert main(["selfsample", "--input", str(train), "--schema", "label",
                     "--epsilon", "0.4", "--seed", "3", "--out", str(synth_dir / "aux.tsv")]) == 0
        info = read_json_lines(capsys)[-1]
        d = load_tsv(train, Schema.USER_ITEM_LABEL)
        probs = sampling_probabilities(d, estimate_popularity_propensity(d))
        assert info["expected_size"] == float(truncate(probs, 0.4).sum())


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

    def test_evaluate_refuses_aux_files_without_val(self, trained, synth_dir, capsys):
        ckpt, _, _ = trained
        assert main(["evaluate", "--checkpoint", str(ckpt),
                     "--test", str(synth_dir / "test.tsv"), "--schema", "label",
                     "--metrics", "auc", "--aux-val", str(synth_dir / "val.tsv")]) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: --aux-val needs --val\n"
        assert captured.out == ""

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

    def test_evaluate_names_the_line_of_an_unknown_id(self, trained, synth_dir,
                                                      tmp_path, capsys):
        ckpt, _, _ = trained
        lines = (synth_dir / "test.tsv").read_text().splitlines()
        test = tmp_path / "unknown.tsv"
        test.write_text("\n".join(lines[:3] + ["999\t0\t1"] + lines[3:]) + "\n")
        assert main(["evaluate", "--checkpoint", str(ckpt), "--test", str(test),
                     "--schema", "label", "--metrics", "auc"]) == 1
        captured = capsys.readouterr()
        assert "error: line 4: unknown user id 999" in captured.err
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
    return ckpt, log, exp_run(synth_dir, tmp_path, capsys, settings)


def exp_run(data_dir, tmp_path, capsys, settings):
    """``exp run`` on the train/val/test files of ``data_dir``; its run dir."""
    config = tmp_path / "run.cfg"
    config.write_text("".join(f"{k}={v}\n" for k, v in {
        **settings, "synthetic": "false",
        "train_path": data_dir / "train.tsv",
        "val_path": data_dir / "val.tsv",
        "test_path": data_dir / "test.tsv",
        "out_dir": tmp_path / "runs",
    }.items()))
    assert main(["exp", "run", "--config", str(config)]) == 0
    return Path(read_json_lines(capsys)[-1]["run_dir"])


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

    def test_train_defaults_match_exp_run_defaults(self, synth_dir, tmp_path,
                                                   capsys):
        ckpt, _, run_dir = train_and_run(
            synth_dir, tmp_path, capsys, {"objective": "naive", "schema": "label"}
        )
        assert (run_dir / "model.ckpt").read_bytes() == ckpt.read_bytes()

    def test_evaluate_scores_an_exp_run_checkpoint_of_shifted_ids(
        self, synth_dir, tmp_path, capsys
    ):
        # With 1-based ids in the files, only the run's vocab sidecar maps
        # them onto the checkpoint's rows.
        shifted = tmp_path / "shifted"
        shifted.mkdir()
        for name in ("train.tsv", "val.tsv", "test.tsv"):
            rows = [line.split("\t") for line in
                    (synth_dir / name).read_text().splitlines()]
            (shifted / name).write_text("".join(
                f"{int(u) + 1}\t{int(i) + 1}\t{y}\n" for u, i, y in rows
            ))
        run_dir = exp_run(shifted, tmp_path, capsys,
                          {**PIPELINE_SETTINGS, "objective": "naive"})
        assert main(["evaluate", "--checkpoint", str(run_dir / "model.ckpt"),
                     "--test", str(shifted / "test.tsv"), "--schema", "label",
                     "--exclude-train", str(shifted / "train.tsv"),
                     "--metrics", "auc,p@5,p@10,r@5,r@10,ndcg@50"]) == 0
        report = json.loads((run_dir / "report.json").read_text())
        assert read_json_lines(capsys)[-1] == report["test_metrics"]

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

    @pytest.mark.parametrize("where, message", [
        ("header", "malformed checkpoint header"), ("sidecar", "malformed vocab sidecar"),
    ])
    def test_deeply_nested_json_exits_nonzero(self, trained, synth_dir, capsys, where, message):
        ckpt, _, _ = trained
        deep = b"[" * 100_000
        if where == "header":
            magic, _, payload = ckpt.read_bytes().split(b"\n", 2)
            ckpt.write_bytes(magic + b"\n" + deep + b"\n" + payload)
        else:
            Path(str(ckpt) + ".vocab.json").write_bytes(deep)
        assert self.evaluate(ckpt, synth_dir) == 1
        assert capsys.readouterr().err.startswith(f"error: {message}")

    def test_sidecar_outside_the_checkpoint_exits_nonzero(self, trained,
                                                          synth_dir, capsys):
        ckpt, _, _ = trained
        sidecar = Path(str(ckpt) + ".vocab.json")
        vocab = json.loads(sidecar.read_text())
        # One item id more than the checkpoint has item rows.
        vocab["items"].append(vocab["items"][-1] + 1)
        sidecar.write_text(json.dumps(vocab))
        assert self.evaluate(ckpt, synth_dir) == 1
        assert capsys.readouterr().err == (
            f"error: malformed vocab sidecar {sidecar}: items holds 21 ids, expected 20\n"
        )


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

    def test_exp_run_refuses_file_mode_without_train_path(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path, synthetic="false", test_path="test.tsv")
        assert main(["exp", "run", "--config", str(cfg)]) == 1
        assert capsys.readouterr().err == "error: file mode needs train_path\n"
        assert not (tmp_path / "runs").exists()

    def test_exp_run_names_the_line_of_an_unknown_objective(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path, objective="bogus")
        assert main(["exp", "run", "--config", str(cfg)]) == 1
        assert capsys.readouterr().err == (
            "error: line 8: bad value for objective: 'bogus' is not a valid Objective\n"
        )
        assert not (tmp_path / "runs").exists()

    def test_exp_grid_names_the_line_of_an_unknown_objective(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path)
        grid = tmp_path / "grid.cfg"
        grid.write_text("seed=1,2\nobjective=naive,bogus\n")
        assert main(["exp", "grid", "--config", str(cfg), "--grid", str(grid)]) == 1
        assert capsys.readouterr().err == (
            "error: line 2: bad value for objective: 'bogus' is not a valid Objective\n"
        )
        assert not (tmp_path / "runs").exists()

    def test_exp_grid_rejects_a_negative_random_seed(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path)
        grid = tmp_path / "grid.cfg"
        grid.write_text("embedding_dim=4,8\nmode=random\nsamples=1\ngrid_seed=-1\n")
        assert main(["exp", "grid", "--config", str(cfg), "--grid", str(grid)]) == 1
        err = capsys.readouterr().err
        assert err == "error: random mode needs samples >= 1 and grid_seed >= 0\n"
        assert not (tmp_path / "runs").exists()

    @pytest.mark.parametrize("line", ["samples=2", "grid_seed=5"])
    def test_exp_grid_refuses_random_keys_in_full_mode(self, tmp_path, capsys, line):
        cfg = self.write_config(tmp_path)
        grid = tmp_path / "grid.cfg"
        grid.write_text(f"embedding_dim=4,8\n{line}\n")
        assert main(["exp", "grid", "--config", str(cfg), "--grid", str(grid)]) == 1
        err = capsys.readouterr().err
        assert err == "error: samples and grid_seed apply only to mode = random\n"
        assert not (tmp_path / "runs").exists()

    def test_exp_run_refuses_an_infinite_setting(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path, gamma="inf")
        assert main(["exp", "run", "--config", str(cfg)]) == 1
        assert capsys.readouterr().err == "error: gamma must be finite, got inf\n"
        assert not (tmp_path / "runs").exists()

    def test_exp_grid_rejects_a_repeated_value(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path)
        grid = tmp_path / "grid.cfg"
        grid.write_text("seed=3,3\n")
        assert main(["exp", "grid", "--config", str(cfg), "--grid", str(grid)]) == 1
        assert capsys.readouterr().err == "error: value list for 'seed' repeats 3\n"
        assert not (tmp_path / "runs").exists()

    @pytest.mark.parametrize("data, reason", [
        (b"{not json", "JSONDecodeError"),
        (b'{"run_id": "0123456789abcdef", "objective": "naive"}', "KeyError('config')"),
        (b"[" * 100_000, "RecursionError"),
    ], ids=["not-json", "no-config", "deeply-nested"])
    def test_exp_table_names_a_malformed_report(self, tmp_path, capsys, data, reason):
        run_dir = tmp_path / "runs" / "run-broken"
        run_dir.mkdir(parents=True)
        (run_dir / "report.json").write_bytes(data)
        assert main(["exp", "table", "--runs", str(run_dir)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: unreadable report.json under {run_dir}: {reason}")

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


def test_importing_the_cli_leaves_the_process_pool_unloaded():
    """Only ``run_grid`` with workers > 1 imports the process-pool modules."""
    env = dict(os.environ, PYTHONPATH=str(Path(sste.__file__).resolve().parents[1]))
    done = subprocess.run(
        [sys.executable, "-c",
         "import sys, sste.cli; print('concurrent.futures.process' in sys.modules)"],
        env=env, capture_output=True, text=True, timeout=60, check=True,
    )
    assert done.stdout.split() == ["False"]
