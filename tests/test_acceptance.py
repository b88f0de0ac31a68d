"""End-to-end acceptance checks, one test per shipped guarantee.

Each test wraps its body in the `criterion` fixture from conftest, so the
terminal summary prints one PASS/FAIL/SKIP line per guarantee. The rating
study files are looked up under SSTE_YAHOO_R3_DIR (default data/yahoo-r3);
when they are absent that check is skipped and the synthetic study is the
binding one.
"""

import json
import os
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from sste.data import (
    Provenance,
    Schema,
    SplitMode,
    SyntheticSpec,
    generate_synthetic,
    load_tsv,
    save_tsv,
    split_ratio,
    stats,
)
from sste.evaluate import alpha, auc_scores, build_ranked_lists, topk_metrics
from sste.experiment import DEFAULT_GRID, GridSpec, RunConfig, run_grid, run_one
from sste.model import Branch, init
from sste.propensity import draw_auxiliary
from sste.train import (
    _apply_batch,
    batch_gradients,
    regularization_terms,
)

from reference import (
    alpha_range,
    batch_coefficients,
    auc_pair_matrix,
    central_difference,
    dcg_binary,
    draw_truncated,
    lazy_l2_batch_objective,
    make_dataset,
)
from compare_runs import differing_files
from run_synthetic_study import selected_test_auc, study_config

YAHOO_DIR = Path(os.environ.get("SSTE_YAHOO_R3_DIR", "data/yahoo-r3"))
YAHOO_BIASED = "ydata-ymusic-rating-study-v1_0-train.txt"
YAHOO_UNIFORM = "ydata-ymusic-rating-study-v1_0-test.txt"

STUDY_SEEDS = (1, 2, 3, 4, 5)


class RecordingOptimizer:
    """Stands in for SparseAdam: keeps each update's rows and gradient."""

    def __init__(self):
        self.updates = {}

    def update(self, name, rows, grad):
        self.updates[name] = (rows, np.array(grad, dtype=np.float64))


class TestDataFidelity:
    def test_rating_study_totals(self, criterion):
        with criterion(1, "rating-study data fidelity"):
            biased_path = YAHOO_DIR / YAHOO_BIASED
            uniform_path = YAHOO_DIR / YAHOO_UNIFORM
            if not (biased_path.is_file() and uniform_path.is_file()):
                pytest.skip(f"rating-study files not found under {YAHOO_DIR}")
            started = time.perf_counter()
            biased = load_tsv(biased_path, Schema.USER_ITEM_RATING)
            for seed in (0, 1, 173):
                train, val = split_ratio(
                    biased, 0.8, SplitMode.PER_USER_RANDOM, seed=seed
                )
                assert len(train) + len(val) == 311704
                assert stats(train).pn_ratio_percent == pytest.approx(67.0, abs=0.5)
                assert stats(val).pn_ratio_percent == pytest.approx(67.0, abs=0.5)
            uniform = load_tsv(
                uniform_path, Schema.USER_ITEM_RATING, Provenance.UNIFORM_TEST
            )
            assert len(uniform) == 54000
            assert round(stats(uniform).pn_ratio_percent, 2) == 9.64
            assert time.perf_counter() - started < 10.0


class TestDebiasingStudy:
    def test_sste_beats_naive_on_the_uniform_pool(self, tmp_path, criterion):
        with criterion(2, "synthetic debiasing study"):
            selected = {}
            for seed in STUDY_SEEDS:
                for objective in ("naive", "sste"):
                    out = tmp_path / f"seed{seed}-{objective}"
                    result = run_grid(
                        GridSpec(values=DEFAULT_GRID),
                        study_config(seed, objective, str(out)),
                        workers=2,
                    )
                    selected[(seed, objective)] = selected_test_auc(
                        out, result.best_run_id
                    )
            naive = [selected[(s, "naive")] for s in STUDY_SEEDS]
            sste = [selected[(s, "sste")] for s in STUDY_SEEDS]
            wins = sum(s > n for s, n in zip(sste, naive))
            assert sum(sste) / len(sste) > sum(naive) / len(naive)
            assert wins >= 4


class TestMetricOracles:
    def test_metrics_match_independent_oracles(self, criterion):
        with criterion(3, "ranking-metric oracles"):
            rng = np.random.default_rng(20260818)
            for _ in range(1000):
                n = int(rng.integers(2, 201))
                labels = rng.integers(0, 2, size=n)
                if labels.min() == labels.max():
                    labels[int(rng.integers(0, n))] ^= 1
                scores = rng.normal(size=n)
                if rng.random() < 0.5:
                    scores = np.round(scores, 1)
                assert auc_scores(scores, labels) == pytest.approx(
                    auc_pair_matrix(scores, labels), abs=1e-12
                )

            def ndcg_at_50(relevant):
                # Every item of 60 is a candidate, ranked in ascending id order.
                test = make_dataset([0] * len(relevant), relevant, [1] * len(relevant), 1, 60)
                ranked = build_ranked_lists(
                    lambda block: np.tile(-np.arange(60.0), (len(block), 1)), test, depth=50
                )
                return topk_metrics(ranked, (), 50)["ndcg@50"]

            assert ndcg_at_50([0]) == pytest.approx(1.0, abs=1e-9)
            assert ndcg_at_50([59]) == pytest.approx(0.0, abs=1e-9)
            hand = dcg_binary([1, 0, 1]) / dcg_binary([1, 1])
            assert hand == pytest.approx(0.9197207891481876, abs=1e-12)
            assert ndcg_at_50([0, 2]) == pytest.approx(hand, abs=1e-9)

            for _ in range(1000):
                score_val = float(rng.random())
                scores_aux = rng.random(int(rng.integers(0, 9))).tolist()
                assert alpha(score_val, scores_aux) == pytest.approx(
                    alpha_range(score_val, scores_aux), abs=1e-12
                )


class TestGradientMachinery:
    def test_analytic_gradients_and_branch_symmetry(self, criterion):
        with criterion(4, "joint-objective gradients"):
            # The step training takes: batch_gradients, then the L2 folding
            # in _apply_batch, observed as the gradients handed to the
            # optimizer. Each must be the derivative of the batch loss plus
            # 0.5*l2*||.||^2 over the rows the batch touches.
            rng = np.random.default_rng(7)
            l2 = 0.3
            for trial in range(20):
                m = init(6, 5, 3, 0.3, trial)
                for head in (m.branch_tilde, m.branch_hat):
                    head.user_bias[:] = rng.normal(0.0, 0.3, 6)
                    head.item_bias[:] = rng.normal(0.0, 0.3, 5)
                    head.global_bias[...] = rng.normal(0.0, 0.3)
                users = rng.integers(0, 6, 10)
                items = rng.integers(0, 5, 10)
                labels = rng.integers(0, 2, 10).astype(np.float64)
                coeffs = rng.uniform(0.2, 2.0, 10) / 10
                assert len(np.unique(users)) < 10 and len(np.unique(items)) < 10
                for branch in Branch:
                    recorder = RecordingOptimizer()
                    bg = batch_gradients(m, branch, users, items, labels, coeffs)
                    _apply_batch(m, recorder, branch, bg, l2)
                    # The factor table's user rows, then its item rows after
                    # the 6 users; the bias table's same rows and its last,
                    # the global bias.
                    touched = np.concatenate([np.unique(users), 6 + np.unique(items)])
                    expected_rows = {"factors": touched,
                                     f"{branch.value}_bias": np.append(touched, 11)}
                    assert sorted(recorder.updates) == sorted(expected_rows)
                    for name, (rows, grad) in recorder.updates.items():
                        assert np.array_equal(rows, expected_rows[name])
                        assert len(grad) == len(rows)

                        for pos in np.ndindex(grad.shape):
                            index = (rows[pos[0]], *pos[1:])

                            def objective(delta: float) -> float:
                                probe = m.copy()
                                probe.parameters()[name][index] += delta
                                return lazy_l2_batch_objective(
                                    probe.parameters(), 6, branch.value,
                                    users, items, labels, coeffs, l2,
                                )

                            # Relative check per the contract; the absolute
                            # floor only matters where the true derivative is
                            # itself ~0 and a relative error is undefined.
                            assert central_difference(objective, 0.0) == pytest.approx(
                                grad[pos], rel=1e-4, abs=1e-9
                            )

            spec = SyntheticSpec(
                n_users=30, n_items=20, latent_dim=4, exposure_bias_strength=1.5,
                positive_threshold=0.3, train_impressions=2000,
                test_impressions=500, seed=11,
            )
            train, _, _, _ = generate_synthetic(spec)
            m = init(30, 20, 8, 0.05, 2)
            m.branch_hat.user_bias[:] = m.branch_tilde.user_bias
            m.branch_hat.item_bias[:] = m.branch_tilde.item_bias
            m.branch_hat.global_bias[...] = m.branch_tilde.global_bias
            # With equal heads, a full batch through either branch gives the
            # same loss and gradients, and the two L2 terms agree.
            labels = train.labels.astype(np.float64)
            coeffs = np.full(len(train), 1.0 / len(train))
            tilde, hat = (
                batch_gradients(m, branch, train.users, train.items, labels, coeffs)
                for branch in (Branch.TILDE, Branch.HAT)
            )
            assert tilde.loss == pytest.approx(hat.loss, abs=1e-10)
            assert np.array_equal(tilde.rows, hat.rows)
            for name in ("factors", "bias"):
                assert np.allclose(getattr(tilde, name), getattr(hat, name),
                                   rtol=0, atol=1e-10)
            reg_tilde, reg_hat = regularization_terms(m, 1e-4)
            assert reg_tilde == pytest.approx(reg_hat, abs=1e-10)


class TestSamplingContracts:
    def test_truncation_identity_and_concentration(self, criterion):
        with criterion(5, "sampling contracts"):
            # The draw keeps exactly the rows of a draw under the truncated
            # probabilities, and always the rows at or above the threshold.
            probs = np.round(np.arange(0.01, 1.005, 0.01), 2)
            n = len(probs)
            grid = make_dataset(np.arange(n), np.arange(n) % 7, np.arange(n) % 2, n, 7)
            for seed, eps in enumerate(np.round(np.arange(0.0, 1.005, 0.01), 2)):
                out = draw_auxiliary(grid, probs, float(eps), seed)
                oracle = draw_truncated(grid, probs, float(eps), seed)
                assert np.array_equal(out.users, oracle.users)
                assert set(np.flatnonzero(probs >= eps)) <= set(out.users.tolist())

            ds = make_dataset([0, 1, 2], [2, 0, 1], [1, 0, 1], 3, 3)
            kept = draw_auxiliary(ds, np.ones(3), 0.5, seed=9)
            assert np.array_equal(kept.users, ds.users)
            assert np.array_equal(kept.items, ds.items)
            assert np.array_equal(kept.labels, ds.labels)

            n = 10000
            rng = np.random.default_rng(0)
            big = make_dataset(
                rng.integers(0, 50, n), rng.integers(0, 40, n),
                rng.integers(0, 2, n), 50, 40,
            )
            half = np.full(n, 0.5)
            sigma = (n * 0.25) ** 0.5
            inside = sum(
                abs(len(draw_auxiliary(big, half, 0.9, seed=s)) - n / 2) <= 3 * sigma
                for s in range(100)
            )
            assert inside >= 99


class TestBaselineEquivalences:
    def test_constant_propensities_collapse_the_estimators(self, criterion):
        with criterion(6, "fixed-propensity equivalences"):
            rng = np.random.default_rng(3)
            m = init(12, 9, 4, 0.2, 5)
            for c in (0.25, 0.4):
                for _ in range(5):
                    batch = 32
                    users = rng.integers(0, 12, batch)
                    items = rng.integers(0, 9, batch)
                    labels = rng.integers(0, 2, batch).astype(np.float64)
                    weights = np.full(batch, 1.0 / c)
                    by_objective = {
                        name: batch_gradients(
                            m, Branch.HAT, users, items, labels,
                            batch_coefficients(name, w, batch),
                        )
                        for name, w in (
                            ("naive", None), ("ips", weights), ("snips", weights),
                        )
                    }
                    naive, ips, snips = (
                        by_objective[k] for k in ("naive", "ips", "snips")
                    )
                    # Every factor row and every bias, the global one last.
                    for field in ("factors", "bias"):
                        np.testing.assert_allclose(
                            getattr(ips, field), getattr(naive, field) / c,
                            rtol=0, atol=1e-10,
                        )
                        np.testing.assert_allclose(
                            getattr(snips, field), getattr(naive, field),
                            rtol=0, atol=1e-10,
                        )


class TestRepeatRuns:
    def test_rerunning_a_config_reproduces_every_artifact(self, tmp_path, criterion):
        with criterion(7, "repeat-run determinism"):
            def config(out_dir) -> RunConfig:
                return RunConfig(
                    synthetic=True, n_users=40, n_items=25, latent_dim=4,
                    exposure_bias_strength=1.5, positive_threshold=0.3,
                    train_impressions=3000, test_impressions=800, data_seed=6,
                    objective="sste", gamma=0.5, floor=0.05,
                    epsilon_train=(0.5,), epsilon_val=(0.3,),
                    resample_each_epoch=True, init_scale=0.1,
                    max_epochs=6, patience=5, seed=6, out_dir=str(out_dir),
                )

            first = run_one(config(tmp_path / "first"))
            second = run_one(config(tmp_path / "second"))
            assert first.status == "ok" and second.status == "ok"
            assert first.run_id == second.run_id
            dir_a = Path(first.run_dir)
            dir_b = Path(second.run_dir)
            assert (dir_a / "epochs.jsonl").read_bytes() == (
                dir_b / "epochs.jsonl"
            ).read_bytes()
            assert (dir_a / "model.ckpt").read_bytes() == (
                dir_b / "model.ckpt"
            ).read_bytes()
            report_a = json.loads((dir_a / "report.json").read_text())
            report_b = json.loads((dir_b / "report.json").read_text())
            assert report_a["best_epoch"] == report_b["best_epoch"]
            assert report_a["test_metrics"] == report_b["test_metrics"]
            assert differing_files(tmp_path / "first", tmp_path / "second") == []

            # File mode, on ids that are neither contiguous nor from 0, also
            # writes the vocab sidecar. A milder bias lets train show every
            # item, as file mode requires.
            data_dir = tmp_path / "files"
            spec = replace(config(data_dir), exposure_bias_strength=0.5).synthetic_spec()
            world = generate_synthetic(spec)[:3]
            for name, d in zip(("train", "val", "test"), world):
                save_tsv(replace(d, user_id_map=5 * np.arange(d.n_users) - 40,
                                 item_id_map=7 * np.arange(d.n_items) + 2**40),
                         data_dir / f"{name}.tsv")

            def file_config(out_dir) -> RunConfig:
                return replace(
                    config(out_dir), synthetic=False, schema="label", max_epochs=2,
                    **{f"{name}_path": str(data_dir / f"{name}.tsv")
                       for name in ("train", "val", "test")},
                )

            first = run_one(file_config(tmp_path / "first-files"))
            second = run_one(file_config(tmp_path / "second-files"))
            assert first.status == "ok" and second.status == "ok"
            assert (Path(first.run_dir) / "model.ckpt.vocab.json").exists()
            assert differing_files(tmp_path / "first-files", tmp_path / "second-files") == []
