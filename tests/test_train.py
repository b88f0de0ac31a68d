"""Training loops: loss coefficients, joint objective, selection, stopping."""

import math

import numpy as np
import pytest

from sste.data import generate_synthetic
from sste.errors import (
    MetricUndefinedError,
    TrainingDivergedError,
    ValidationError,
)
from sste.model import Branch, InitSpec, bce_from_logits, init, sigmoid
from sste.optim import SparseAdam
from sste.propensity import PropensityTable, estimate_popularity_propensity
from sste.selfsample import train_family, val_family
from sste.train import (
    LossBreakdown,
    Objective,
    TrainConfig,
    baseline_epoch,
    batch_coefficients,
    batch_gradients,
    fit,
    regularization_terms,
    self_evaluate,
    sste_epoch,
)

from reference import make_dataset, separable_4x4
from test_data import small_spec


def batch_model(seed=2, scale=0.3, n_users=4, n_items=4, k=2):
    return init(n_users, n_items, k, InitSpec(scale=scale, seed=seed))


class TestBatchCoefficients:
    def test_naive_is_uniform_over_the_batch(self):
        assert batch_coefficients(Objective.NAIVE, None, 4).tolist() == [0.25] * 4

    def test_joint_objective_uses_the_naive_form(self):
        assert np.array_equal(
            batch_coefficients(Objective.SSTE, None, 8),
            batch_coefficients(Objective.NAIVE, None, 8),
        )

    def test_inverse_weighting_divides_by_batch_size(self):
        coeffs = batch_coefficients(Objective.IPS, np.array([2.0, 1.0]), 2)
        assert coeffs.tolist() == [1.0, 0.5]

    def test_self_normalized_weighting_divides_by_weight_sum(self):
        coeffs = batch_coefficients(Objective.SNIPS, np.array([2.0, 1.0]), 2)
        assert coeffs == pytest.approx([2 / 3, 1 / 3])

    def test_weighted_objectives_require_weights(self):
        with pytest.raises(ValidationError):
            batch_coefficients(Objective.IPS, None, 2)

    def test_weights_must_align_with_the_batch(self):
        with pytest.raises(ValidationError):
            batch_coefficients(Objective.SNIPS, np.array([1.0]), 2)


class TestBatchGradients:
    def test_loss_is_the_coefficient_weighted_sum(self):
        m = batch_model()
        users = np.array([0, 1])
        items = np.array([2, 3])
        labels = np.array([1.0, 0.0])
        l1, l2 = bce_from_logits(m.logits(Branch.HAT, users, items), labels)
        weights = np.array([2.0, 1.0])
        ips = batch_gradients(m, Branch.HAT, users, items, labels,
                              batch_coefficients(Objective.IPS, weights, 2))
        assert ips.loss == pytest.approx((2 * l1 + l2) / 2, abs=1e-12)
        snips = batch_gradients(m, Branch.HAT, users, items, labels,
                                batch_coefficients(Objective.SNIPS, weights, 2))
        assert snips.loss == pytest.approx((2 * l1 + l2) / 3, abs=1e-12)

    def test_matches_summed_instance_gradients(self):
        m = batch_model(scale=0.5)
        users = np.array([0, 1, 0])
        items = np.array([1, 2, 3])
        labels = np.array([1.0, 0.0, 1.0])
        coeffs = np.array([0.5, 0.25, 0.25])
        bg = batch_gradients(m, Branch.TILDE, users, items, labels, coeffs)
        expected_user0 = np.zeros(m.k)
        for u, i, y, c in zip(users, items, labels, coeffs):
            z = m.logits(Branch.TILDE, u, i)[0]
            if u == 0:
                expected_user0 += c * (sigmoid(z) - y) * m.item_factors[i]
        row = bg.users.tolist().index(0)
        assert bg.user_factors[row] == pytest.approx(expected_user0)

    def test_all_gradients_use_pre_update_parameters(self):
        m = batch_model(scale=0.5)
        users = np.array([0, 0])
        items = np.array([1, 1])
        labels = np.array([1.0, 1.0])
        coeffs = np.array([0.5, 0.5])
        bg = batch_gradients(m, Branch.HAT, users, items, labels, coeffs)
        single = batch_gradients(m, Branch.HAT, users[:1], items[:1],
                                 labels[:1], np.array([1.0]))
        # Two copies of the same instance at half weight must equal one
        # full-weight gradient; a sequential update would break this.
        row = bg.users.tolist().index(0)
        assert bg.user_factors[row] == pytest.approx(single.user_factors[0])

    def test_constant_weights_scale_naive_gradients(self):
        m = batch_model(scale=0.4)
        users = np.array([0, 1, 2, 3])
        items = np.array([3, 2, 1, 0])
        labels = np.array([1.0, 0.0, 0.0, 1.0])
        c = 0.5
        weights = np.full(4, 1.0 / c)
        naive = batch_gradients(m, Branch.HAT, users, items, labels,
                                batch_coefficients(Objective.NAIVE, None, 4))
        ips = batch_gradients(m, Branch.HAT, users, items, labels,
                              batch_coefficients(Objective.IPS, weights, 4))
        snips = batch_gradients(m, Branch.HAT, users, items, labels,
                                batch_coefficients(Objective.SNIPS, weights, 4))
        assert ips.user_factors == pytest.approx(naive.user_factors / c,
                                                 abs=1e-10)
        assert ips.global_bias == pytest.approx(naive.global_bias / c,
                                                abs=1e-10)
        assert snips.user_factors == pytest.approx(naive.user_factors,
                                                   abs=1e-10)
        assert snips.item_bias == pytest.approx(naive.item_bias, abs=1e-10)


class TestRegularization:
    def test_shared_factors_appear_in_both_terms(self):
        m = batch_model(scale=0.2)
        m.branch_tilde.user_bias[...] = 1.0
        shared = float((m.user_factors ** 2).sum() + (m.item_factors ** 2).sum())
        reg_tilde, reg_hat = regularization_terms(m, l2=0.1)
        assert reg_tilde == pytest.approx(0.05 * (shared + 4.0))
        assert reg_hat == pytest.approx(0.05 * shared)

    def test_zero_lambda_means_zero_terms(self):
        assert regularization_terms(batch_model(), 0.0) == (0.0, 0.0)


class TestLossBreakdown:
    def test_total_sums_all_present_terms(self):
        b = LossBreakdown(tilde_bce=0.5, hat_bce=0.25, reg_tilde=0.125,
                          reg_hat=0.0625)
        assert b.total == pytest.approx(0.9375, abs=1e-12)

    def test_baseline_breakdown_skips_missing_terms(self):
        b = LossBreakdown(tilde_bce=None, hat_bce=0.5, reg_tilde=None,
                          reg_hat=0.25)
        assert b.total == pytest.approx(0.75)
        assert b.to_dict()["tilde_bce"] is None


class TestEpochs:
    def test_identical_aux_and_heads_give_equal_terms(self):
        train = separable_4x4()
        m = init(4, 4, 3, InitSpec(scale=0.2, seed=5))
        labels = train.labels.astype(np.float64)
        coeffs = np.full(len(train), 1.0 / len(train))
        tilde = batch_gradients(m, Branch.TILDE, train.users, train.items,
                                labels, coeffs)
        hat = batch_gradients(m, Branch.HAT, train.users, train.items,
                              labels, coeffs)
        reg_tilde, reg_hat = regularization_terms(m, 0.01)
        assert tilde.loss == pytest.approx(hat.loss, abs=1e-10)
        assert reg_tilde == pytest.approx(reg_hat, abs=1e-10)

    def test_objective_terms_do_not_touch_parameters(self):
        train = separable_4x4()
        m = batch_model()
        before = {k: v.copy() for k, v in m.parameters().items()}
        for branch in Branch:
            batch_gradients(m, branch, train.users, train.items,
                            train.labels.astype(np.float64),
                            np.full(len(train), 1.0 / len(train)))
        regularization_terms(m, 0.5)
        for name, value in m.parameters().items():
            assert np.array_equal(value, before[name])

    def test_objective_terms_pool_auxiliary_instances(self):
        # sste_epoch's hat term is the mean over every auxiliary instance, so
        # splitting one subset unevenly leaves it unchanged; a step size of
        # 1e-12 keeps each batch's loss where it was.
        train = separable_4x4()
        cfg = TrainConfig(learning_rate=1e-12, batch_size=5, objective="sste")

        def hat_bce(a_tr):
            m = batch_model(scale=0.4)
            opt = SparseAdam(m.parameters(), cfg.learning_rate)
            return sste_epoch(m, opt, train, a_tr, cfg).hat_bce

        split = [train.take(np.arange(6)), train.take(np.arange(6, 16))]
        assert hat_bce(split) == pytest.approx(hat_bce([train]), abs=1e-9)

    def test_sste_epoch_requires_auxiliary_data(self):
        train = separable_4x4()
        m = batch_model()
        opt = SparseAdam(m.parameters(), 0.01)
        with pytest.raises(ValidationError):
            sste_epoch(m, opt, train, [], TrainConfig(objective="sste"))

    def test_baseline_epoch_rejects_the_joint_objective(self):
        train = separable_4x4()
        m = batch_model()
        opt = SparseAdam(m.parameters(), 0.01)
        with pytest.raises(ValidationError):
            baseline_epoch(m, opt, train, None,
                           TrainConfig(objective="sste"))

    def test_weighted_baseline_needs_a_propensity_table(self):
        train = separable_4x4()
        m = batch_model()
        opt = SparseAdam(m.parameters(), 0.01)
        with pytest.raises(ValidationError):
            baseline_epoch(m, opt, train, None, TrainConfig(objective="ips"))

    def test_all_one_propensities_make_ips_equal_naive(self):
        train = separable_4x4()
        table = PropensityTable(np.ones(4), gamma=0.0, floor=0.5)
        runs = {}
        for objective in ("naive", "ips"):
            m = init(4, 4, 2, InitSpec(scale=0.2, seed=7))
            opt = SparseAdam(m.parameters(), 0.05)
            cfg = TrainConfig(objective=objective, batch_size=4, seed=3)
            for epoch in range(1, 4):
                baseline_epoch(m, opt, train, table, cfg, epoch=epoch)
            runs[objective] = m
        for name, value in runs["naive"].parameters().items():
            assert np.array_equal(value, runs["ips"].parameters()[name]), name

    def test_naive_learns_a_separable_toy_problem(self):
        train = separable_4x4()
        m = init(4, 4, 4, InitSpec(scale=0.1, seed=1))
        opt = SparseAdam(m.parameters(), 0.05)
        cfg = TrainConfig(objective="naive", batch_size=16, seed=0)
        for epoch in range(1, 201):
            baseline_epoch(m, opt, train, None, cfg, epoch=epoch)
        preds = m.predict(Branch.HAT, train.users, train.items)
        from sste.evaluate import auc_scores

        assert auc_scores(preds, train.labels) == 1.0

    def test_joint_objective_loss_decreases(self):
        spec = small_spec(n_users=30, n_items=20, train_impressions=2000)
        train, _, _, _ = generate_synthetic(spec)
        pt = estimate_popularity_propensity(train, gamma=1.0, floor=0.01)
        cfg = TrainConfig(objective="sste", batch_size=256, seed=4,
                          learning_rate=0.05)
        a_tr = train_family(train, pt, (0.5,), master_seed=8)
        m = init(30, 20, 4, InitSpec(scale=0.1, seed=2))
        opt = SparseAdam(m.parameters(), cfg.learning_rate)
        losses = [sste_epoch(m, opt, train, a_tr, cfg, epoch=e).total
                  for e in range(1, 9)]
        assert losses[-1] < losses[0]

    def test_single_positive_prediction_rises_monotonically(self):
        one = make_dataset([0], [0], [1], 1, 1)
        m = init(1, 1, 2, InitSpec(scale=0.01, seed=0))
        opt = SparseAdam(m.parameters(), 0.05)
        cfg = TrainConfig(objective="sste", batch_size=1, seed=0,
                          learning_rate=0.05)
        preds = []
        for epoch in range(1, 101):
            sste_epoch(m, opt, one, [one], cfg, epoch=epoch)
            preds.append(m.predict(Branch.TILDE, 0, 0))
        settled = preds[5:]
        assert all(b >= a for a, b in zip(settled, settled[1:]))
        assert preds[-1] > 0.95

    def test_strong_shrinkage_pulls_losses_to_the_coin_flip_level(self):
        train = separable_4x4()
        m = init(4, 4, 2, InitSpec(scale=0.3, seed=6))
        opt = SparseAdam(m.parameters(), 0.05)
        cfg = TrainConfig(objective="sste", batch_size=16, seed=1,
                          learning_rate=0.05, l2_lambda=10.0)
        for epoch in range(1, 60):
            breakdown = sste_epoch(m, opt, train, [train], cfg, epoch=epoch)
        assert np.abs(m.user_factors).max() < 0.05
        preds = m.predict(Branch.HAT, train.users, train.items)
        assert preds == pytest.approx(0.5, abs=0.05)
        assert breakdown.hat_bce == pytest.approx(math.log(2.0), abs=0.05)


class TestSelfEvaluate:
    def test_degenerate_validation_is_undefined(self):
        m = batch_model()
        val = make_dataset([0, 1], [0, 1], [1, 1], 4, 4)
        with pytest.raises(MetricUndefinedError):
            self_evaluate(m, val, [])

    def test_degenerate_auxiliary_subsets_are_skipped(self):
        m = batch_model()
        val = make_dataset([0, 1], [0, 1], [1, 0], 4, 4)
        degenerate = make_dataset([0], [0], [1], 4, 4)
        report = self_evaluate(m, val, [degenerate])
        assert report.scores_on_aux == ()
        assert report.alpha == 0.0

    def test_reports_hat_branch_scores(self):
        m = batch_model(scale=0.5)
        val = make_dataset([0, 1, 2], [0, 1, 2], [1, 0, 1], 4, 4)
        aux = make_dataset([0, 1], [1, 2], [0, 1], 4, 4)
        report = self_evaluate(m, val, [aux])
        preds = m.predict(Branch.HAT, val.users, val.items)
        from sste.evaluate import auc_scores

        assert report.score_on_val == pytest.approx(auc_scores(preds, val.labels))
        assert len(report.scores_on_aux) == 1


class TestConfigs:
    def test_objective_strings_are_coerced(self):
        assert TrainConfig(objective="snips").objective is Objective.SNIPS

    def test_unknown_objective_is_rejected(self):
        with pytest.raises(ValueError):
            TrainConfig(objective="dr")

    def test_bad_numbers_are_rejected(self):
        with pytest.raises(ValidationError):
            TrainConfig(learning_rate=0.0)
        with pytest.raises(ValidationError):
            TrainConfig(batch_size=0)
        with pytest.raises(ValidationError):
            TrainConfig(patience=0)
        with pytest.raises(ValidationError):
            TrainConfig(max_epochs=0)


def fit_world(seed=3):
    spec = small_spec(n_users=40, n_items=25, train_impressions=3000,
                      test_impressions=500, seed=seed)
    train, val, test, _ = generate_synthetic(spec)
    pt = estimate_popularity_propensity(train, gamma=1.0, floor=0.01)
    aux = (train_family(train, pt, (0.5,), master_seed=13),
           val_family(val, pt, (0.5,), master_seed=13))
    return train, val, test, pt, aux


class TestFit:
    def test_returns_the_best_epoch_snapshot(self):
        train, val, _, _, aux = fit_world()
        cfg = TrainConfig(objective="sste", batch_size=512, seed=5,
                          learning_rate=0.01, max_epochs=12, patience=4)
        model, state = fit(train, val, aux, cfg, embedding_dim=6,
                           init_spec=InitSpec(scale=0.1, seed=1))
        scores = [r.modified_score for r in state.history]
        assert state.best_score == max(scores)
        assert state.best_epoch == scores.index(max(scores)) + 1
        report = self_evaluate(model, val, aux[1])
        assert report.modified_score == pytest.approx(state.best_score)

    def test_two_runs_are_bitwise_identical(self):
        train, val, _, _, aux = fit_world()
        cfg = TrainConfig(objective="sste", batch_size=256, seed=9,
                          learning_rate=0.01, max_epochs=6, patience=6)
        spec = InitSpec(scale=0.1, seed=2)
        m1, s1 = fit(train, val, aux, cfg, embedding_dim=5, init_spec=spec)
        m2, s2 = fit(train, val, aux, cfg, embedding_dim=5, init_spec=spec)
        assert s1.best_epoch == s2.best_epoch
        assert [r.modified_score for r in s1.history] == [
            r.modified_score for r in s2.history
        ]
        for name, value in m1.parameters().items():
            assert np.array_equal(value, m2.parameters()[name]), name

    def test_frozen_validation_scores_stop_after_patience(self):
        # Validation rows touch ids the training data never updates, so the
        # selection score is constant from the first epoch onward.
        train = make_dataset([0, 0, 1, 1], [0, 1, 0, 1], [1, 0, 0, 1], 4, 4)
        val = make_dataset([2, 3], [2, 3], [1, 0], 4, 4)
        cfg = TrainConfig(objective="naive", batch_size=4, seed=0,
                          learning_rate=0.01, max_epochs=50, patience=5)
        _, state = fit(train, val, None, cfg, embedding_dim=2,
                       init_spec=InitSpec(scale=0.1, seed=4))
        assert state.best_epoch == 1
        assert state.epoch == 1 + cfg.patience
        assert len(state.history) == cfg.patience + 1
        scores = {r.score_on_val for r in state.history}
        assert len(scores) == 1

    def test_baseline_without_aux_uses_plain_validation_score(self):
        train, val, _, _, _ = fit_world()
        cfg = TrainConfig(objective="naive", batch_size=512, seed=2,
                          learning_rate=0.01, max_epochs=4, patience=4)
        _, state = fit(train, val, None, cfg, embedding_dim=4)
        for report in state.history:
            assert report.alpha == 0.0
            assert report.modified_score == report.score_on_val

    def test_huge_learning_rate_raises_divergence(self):
        train, val, _, _, _ = fit_world()
        cfg = TrainConfig(objective="naive", batch_size=512, seed=2,
                          learning_rate=1e3, max_epochs=10, patience=10)
        with pytest.raises(TrainingDivergedError):
            fit(train, val, None, cfg, embedding_dim=4)

    def test_joint_objective_requires_auxiliary_subsets(self):
        train, val, _, _, _ = fit_world()
        cfg = TrainConfig(objective="sste")
        with pytest.raises(ValidationError):
            fit(train, val, ([], []), cfg)

    def test_vocabulary_mismatch_is_rejected(self):
        train, val, _, _, _ = fit_world()
        other_val = make_dataset([0], [0], [1], 99, 99)
        with pytest.raises(ValidationError):
            fit(train, other_val, None, TrainConfig(objective="naive"))

    def test_resampling_changes_the_training_stream(self):
        train, val, _, pt, aux = fit_world()
        cfg = TrainConfig(objective="sste", batch_size=256, seed=7,
                          learning_rate=0.05, max_epochs=6, patience=6)
        spec = InitSpec(scale=0.1, seed=3)
        _, frozen_state = fit(train, val, aux, cfg, embedding_dim=5,
                              init_spec=spec)
        _, resampled_state = fit(train, val, aux, cfg, embedding_dim=5,
                                 init_spec=spec, propensity=pt,
                                 resample_seed=13)
        assert [r.score_on_val for r in frozen_state.history] != [
            r.score_on_val for r in resampled_state.history
        ]

    def test_epoch_callback_sees_every_epoch(self):
        train, val, _, _, _ = fit_world()
        cfg = TrainConfig(objective="naive", batch_size=512, seed=2,
                          learning_rate=0.01, max_epochs=3, patience=3)
        seen = []
        fit(train, val, None, cfg, embedding_dim=4,
            on_epoch=lambda epoch, breakdown, report: seen.append(epoch))
        assert seen == [1, 2, 3]
