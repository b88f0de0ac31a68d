"""Training loops: batch gradients, joint objective, selection, stopping."""

import inspect
import math
from dataclasses import asdict, replace

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from sste.data import generate_synthetic
from sste.errors import (
    MetricUndefinedError,
    TrainingDivergedError,
    ValidationError,
)
from sste.experiment import RunConfig, load_config
from sste.model import Branch, bce_from_logits, init, save_checkpoint, sigmoid
from sste.optim import SparseAdam
from sste.propensity import (PropensityTable, estimate_popularity_propensity, train_family,
                             val_family)
from sste.seeding import derive_seed
from sste import train as train_mod
from sste.train import (
    LossBreakdown,
    Objective,
    _apply_batch,
    _group,
    baseline_epoch,
    batch_gradients,
    fit,
    regularization_terms,
    self_evaluate,
    sste_epoch,
)

from reference import (
    batch_coefficients,
    batch_gradients_add_at,
    epoch_batches,
    make_dataset,
    separable_4x4,
)
from test_data import small_spec


def batch_model(seed=2, scale=0.3, n_users=4, n_items=4, k=2):
    return init(n_users, n_items, k, scale, seed)


def run_cfg(**settings):
    """A RunConfig for direct epoch and fit calls: no L2 unless set, and one
    auxiliary threshold for the joint objective, which requires it."""
    settings.setdefault("l2_lambda", 0.0)
    if settings.get("objective") == "sste":
        settings.setdefault("epsilon_train", (0.5,))
    return RunConfig(**settings)


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
        row = bg.rows.tolist().index(0)
        assert bg.factors[row] == pytest.approx(expected_user0)

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
        assert bg.rows.tolist() == single.rows.tolist() == [0, m.n_users + 1]
        assert bg.factors == pytest.approx(single.factors)
        assert bg.bias == pytest.approx(single.bias)

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
        assert ips.factors == pytest.approx(naive.factors / c, abs=1e-10)
        assert ips.bias == pytest.approx(naive.bias / c, abs=1e-10)
        assert snips.factors == pytest.approx(naive.factors, abs=1e-10)
        assert snips.bias == pytest.approx(naive.bias, abs=1e-10)

    @pytest.mark.parametrize("branch", list(Branch))
    @pytest.mark.parametrize("bad_user, bad_item, which", [
        (-1, 0, "user"), (4, 0, "user"), (0, -1, "item"), (0, 4, "item"),
    ])
    def test_out_of_range_ids_are_rejected(self, branch, bad_user, bad_item, which):
        # A raw gather would wrap -1 to the last row instead of failing.
        m = batch_model()
        users, items = np.array([0, bad_user]), np.array([1, bad_item])
        with pytest.raises(ValidationError, match=f"{which} id out of range"):
            batch_gradients(m, branch, users, items, np.array([1.0, 0.0]),
                            np.full(2, 0.5))


def oracle_case(k, n_users, n_items, size, seed):
    """A model with nonzero biases on both branches and one batch over it;
    small vocabularies make ids repeat within the batch."""
    rng = np.random.default_rng(seed)
    m = init(n_users, n_items, k, 0.5, seed)
    for head in (m.branch_tilde, m.branch_hat):
        head.user_bias[:] = rng.normal(size=n_users)
        head.item_bias[:] = rng.normal(size=n_items)
        head.global_bias[...] = rng.normal()
    users = rng.integers(0, n_users, size)
    items = rng.integers(0, n_items, size)
    labels = rng.integers(0, 2, size).astype(np.float64)
    coeffs = rng.uniform(0.01, 2.0, size)
    return m, users, items, labels, coeffs


class TestExactAgainstOracle:
    """batch_gradients equals the double-gather, np.add.at oracle to the bit."""

    @given(
        k=st.sampled_from([1, 10, 50]),
        n_users=st.integers(1, 12),
        n_items=st.integers(1, 12),
        size=st.integers(1, 300),
        seed=st.integers(0, 2**32 - 1),
        branch=st.sampled_from(list(Branch)),
    )
    @example(k=50, n_users=1, n_items=1, size=1, seed=0, branch=Branch.HAT)
    @example(k=10, n_users=1, n_items=3, size=64, seed=1, branch=Branch.TILDE)
    def test_every_field_matches_byte_for_byte(
        self, k, n_users, n_items, size, seed, branch
    ):
        m, users, items, labels, coeffs = oracle_case(k, n_users, n_items, size, seed)
        before = {name: p.copy() for name, p in m.parameters().items()}
        got = batch_gradients(m, branch, users, items, labels, coeffs)
        want = batch_gradients_add_at(m, branch, users, items, labels, coeffs)
        for name, value in want.items():
            got_value = np.asarray(getattr(got, name))
            value = np.asarray(value)
            assert (got_value.dtype, got_value.shape) == (value.dtype, value.shape), name
            assert got_value.tobytes() == value.tobytes(), name
        # The gathered rows are scaled in place; the model's tables are not.
        for name, p in m.parameters().items():
            assert p.tobytes() == before[name].tobytes(), name

    @given(
        k=st.sampled_from([1, 10, 50]),
        n_users=st.integers(1, 12),
        n_items=st.integers(1, 12),
        size=st.integers(1, 300),
        seed=st.integers(0, 2**32 - 1),
        branch=st.sampled_from(list(Branch)),
    )
    def test_int8_labels_and_a_scalar_weight_change_no_byte(
        self, k, n_users, n_items, size, seed, branch
    ):
        # What the epoch loop passes for an unweighted batch, against float64
        # labels and one 1/B weight per row.
        m, users, items, labels, _ = oracle_case(k, n_users, n_items, size, seed)
        got = batch_gradients(m, branch, users, items, labels.astype(np.int8), 1.0 / size)
        want = batch_gradients(m, branch, users, items, labels, np.full(size, 1.0 / size))
        for name in ("rows", "factors", "bias", "loss"):
            got_value, value = np.asarray(getattr(got, name)), np.asarray(getattr(want, name))
            assert (got_value.dtype, got_value.shape) == (value.dtype, value.shape), name
            assert got_value.tobytes() == value.tobytes(), name


class TestGroup:
    """_group equals np.unique(ids, return_inverse=True) on both sides of its
    rule, which marks ids in a table only when n <= 64 * len(ids)."""

    @staticmethod
    def assert_unique_equal(ids, n):
        got = _group(ids, n)
        want = np.unique(ids, return_inverse=True)
        for g, w in zip(got, want):
            assert (g.dtype, g.shape) == (w.dtype, w.shape)
            assert g.tobytes() == w.tobytes()

    @given(
        present=st.lists(st.integers(0, 199), min_size=1, max_size=40, unique=True),
        size=st.integers(1, 120),
        spare=st.integers(0, 16_000),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(present=[0], size=1, spare=0, seed=0)  # a single id
    @example(present=[3], size=1, spare=0, seed=0)
    @example(present=[3], size=1, spare=100, seed=0)  # a single id, sorted
    @example(present=[7], size=90, spare=0, seed=0)  # all ids equal
    @example(present=[7], size=90, spare=9_000, seed=0)  # all equal, sorted
    def test_values_and_dtypes_match_np_unique(self, present, size, spare, seed):
        # Ids drawn from a set with gaps; n from just above the largest id
        # to well past 64 * size, so both sides of the rule are drawn.
        ids = np.random.default_rng(seed).choice(present, size)
        self.assert_unique_equal(ids, max(present) + 1 + spare)

    @pytest.mark.parametrize("size", [1, 2, 7, 512])
    def test_both_sides_of_the_boundary(self, size, monkeypatch):
        ids = np.random.default_rng(size).integers(0, 64 * size, size)
        ids[0] = 64 * size - 1
        self.assert_unique_equal(ids, 64 * size + 1)  # np.unique
        want = np.unique(ids, return_inverse=True)
        monkeypatch.setattr(np, "unique", None)  # the table side sorts nothing
        got = _group(ids, 64 * size)
        for g, w in zip(got, want):
            assert (g.dtype, g.tobytes()) == (w.dtype, w.tobytes())


class TestCounterArguments:
    """perfbench/spans.py reads each counter's input from one argument of a
    traced function, by position or by name: ``optim.rows_updated`` from
    ``rows`` of ``SparseAdam.update``, ``train.batch_rows`` from ``users`` of
    ``batch_gradients``, ``selfsample.offered`` from ``train`` and
    ``epsilons`` of ``train_family``, the synthetic repeat count from
    ``spec`` of ``generate_synthetic`` and ``model.ckpt_bytes`` from ``path``
    of ``save_checkpoint``. A moved or renamed parameter would zero those
    counters without failing a run."""

    @pytest.mark.parametrize("fn, index, name", [
        (SparseAdam.update, 2, "rows"),
        (batch_gradients, 2, "users"),
        (train_family, 0, "train"),
        (train_family, 2, "epsilons"),
        (generate_synthetic, 0, "spec"),
        (save_checkpoint, 1, "path"),
    ])
    def test_counted_argument_keeps_its_position_and_name(self, fn, index, name):
        parameters = list(inspect.signature(fn).parameters.values())
        assert parameters[index].name == name
        assert parameters[index].kind is inspect.Parameter.POSITIONAL_OR_KEYWORD


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
        assert asdict(b)["tilde_bce"] is None


class TestEpochs:
    def test_identical_aux_and_heads_give_equal_terms(self):
        train = separable_4x4()
        m = init(4, 4, 3, 0.2, 5)
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
        cfg = run_cfg(learning_rate=1e-12, batch_size=5, objective="sste")

        def hat_bce(a_tr):
            m = batch_model(scale=0.4)
            opt = SparseAdam(m.parameters(), cfg.learning_rate)
            return sste_epoch(m, opt, train, a_tr, cfg, epoch=1).hat_bce

        split = [train.take(np.arange(6)), train.take(np.arange(6, 16))]
        assert hat_bce(split) == pytest.approx(hat_bce([train]), abs=1e-9)

    def test_all_one_propensities_make_ips_equal_naive(self):
        train = separable_4x4()
        table = PropensityTable(np.ones(4))
        runs = {}
        for objective, weights in (
            ("naive", None), ("ips", 1.0 / table.per_item_propensity[train.items]),
        ):
            m = init(4, 4, 2, 0.2, 7)
            opt = SparseAdam(m.parameters(), 0.05)
            cfg = run_cfg(objective=objective, batch_size=4, seed=3)
            for epoch in range(1, 4):
                baseline_epoch(m, opt, train, weights, cfg, epoch=epoch)
            runs[objective] = m
        for name, value in runs["naive"].parameters().items():
            assert np.array_equal(value, runs["ips"].parameters()[name]), name

    def test_naive_learns_a_separable_toy_problem(self):
        train = separable_4x4()
        m = init(4, 4, 4, 0.1, 1)
        opt = SparseAdam(m.parameters(), 0.05)
        cfg = run_cfg(objective="naive", batch_size=16, seed=0)
        for epoch in range(1, 201):
            baseline_epoch(m, opt, train, None, cfg, epoch=epoch)
        preds = m.predict(Branch.HAT, train.users, train.items)
        from sste.evaluate import auc_scores

        assert auc_scores(preds, train.labels) == 1.0

    def test_joint_objective_loss_decreases(self):
        spec = small_spec(n_users=30, n_items=20, train_impressions=2000)
        train, _, _, _ = generate_synthetic(spec)
        pt = estimate_popularity_propensity(train, gamma=1.0, floor=0.01)
        cfg = run_cfg(objective="sste", batch_size=256, seed=4,
                      learning_rate=0.05)
        a_tr = train_family(train, pt, (0.5,), master_seed=8)
        m = init(30, 20, 4, 0.1, 2)
        opt = SparseAdam(m.parameters(), cfg.learning_rate)
        losses = [sste_epoch(m, opt, train, a_tr, cfg, epoch=e).total
                  for e in range(1, 9)]
        assert losses[-1] < losses[0]

    def test_single_positive_prediction_rises_monotonically(self):
        one = make_dataset([0], [0], [1], 1, 1)
        m = init(1, 1, 2, 0.01, 0)
        opt = SparseAdam(m.parameters(), 0.05)
        cfg = run_cfg(objective="sste", batch_size=1, seed=0,
                      learning_rate=0.05)
        preds = []
        for epoch in range(1, 101):
            sste_epoch(m, opt, one, [one], cfg, epoch=epoch)
            preds.append(m.predict(Branch.TILDE, [0], [0])[0])
        settled = preds[5:]
        assert all(b >= a for a, b in zip(settled, settled[1:]))
        assert preds[-1] > 0.95

    def test_strong_shrinkage_pulls_losses_to_the_coin_flip_level(self):
        train = separable_4x4()
        m = init(4, 4, 2, 0.3, 6)
        opt = SparseAdam(m.parameters(), 0.05)
        cfg = run_cfg(objective="sste", batch_size=16, seed=1,
                      learning_rate=0.05, l2_lambda=10.0)
        for epoch in range(1, 60):
            breakdown = sste_epoch(m, opt, train, [train], cfg, epoch=epoch)
        assert np.abs(m.user_factors).max() < 0.05
        preds = m.predict(Branch.HAT, train.users, train.items)
        assert preds == pytest.approx(0.5, abs=0.05)
        assert breakdown.hat_bce == pytest.approx(math.log(2.0), abs=0.05)


class TestEpochOrder:
    # The epoch functions must apply exactly the batches of
    # reference.epoch_batches, in its order: replaying those batches one by
    # one through the same gradient and optimizer step gives equal parameters.
    EPOCHS = 3

    @staticmethod
    def world():
        train, _, _, _ = generate_synthetic(
            small_spec(n_users=30, n_items=20, train_impressions=700))
        pt = estimate_popularity_propensity(train, gamma=1.0, floor=0.01)
        return train, pt

    def trained(self, cfg, step):
        """Parameters after EPOCHS calls of ``step(model, opt, epoch)``."""
        m = init(30, 20, 3, 0.1, 4)
        opt = SparseAdam(m.parameters(), cfg.learning_rate)
        for epoch in range(1, self.EPOCHS + 1):
            step(m, opt, epoch)
        return m.parameters()

    def assert_replays(self, cfg, step, sources):
        def replay(m, opt, epoch):
            for branch, d, weights, idx in epoch_batches(
                sources, cfg.batch_size, derive_seed(cfg.seed, "train"), epoch
            ):
                w = None if weights is None else weights[idx]
                bg = batch_gradients(
                    m, branch, d.users[idx], d.items[idx],
                    d.labels[idx].astype(np.float64),
                    batch_coefficients(cfg.objective, w, len(idx)),
                )
                _apply_batch(m, opt, branch, bg, cfg.l2_lambda)

        got, expected = self.trained(cfg, step), self.trained(cfg, replay)
        for name, value in got.items():
            assert np.array_equal(value, expected[name]), name

    @pytest.mark.parametrize("objective", ["naive", "ips", "snips"])
    def test_baseline_epoch_runs_batches_in_permutation_order(self, objective):
        train, pt = self.world()
        cfg = run_cfg(objective=objective, batch_size=64, seed=9,
                      learning_rate=0.05, l2_lambda=0.01)
        weights = None
        if objective != "naive":
            weights = 1.0 / pt.per_item_propensity[train.items]
        self.assert_replays(
            cfg,
            lambda m, opt, epoch: baseline_epoch(m, opt, train, weights, cfg, epoch=epoch),
            [(Branch.HAT, train, weights)],
        )

    def test_sste_epoch_interleaves_by_a_shuffled_schedule(self):
        train, pt = self.world()
        a_tr = train_family(train, pt, (0.3, 0.7), master_seed=2)
        assert len(a_tr[0]) != len(a_tr[1])
        cfg = run_cfg(objective="sste", batch_size=64, seed=9,
                      learning_rate=0.05, l2_lambda=0.01)
        self.assert_replays(
            cfg,
            lambda m, opt, epoch: sste_epoch(m, opt, train, a_tr, cfg, epoch=epoch),
            [(Branch.TILDE, train, None)] + [(Branch.HAT, a, None) for a in a_tr],
        )


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
    # Training reads its settings from RunConfig, which checks them.
    def test_objective_strings_are_coerced(self):
        assert Objective(RunConfig(objective="snips").objective) is Objective.SNIPS

    def test_unknown_objective_is_rejected(self):
        with pytest.raises(ValueError):
            RunConfig(objective="dr")

    def test_bad_numbers_are_rejected(self):
        for name, value in [
            ("learning_rate", 0.0), ("learning_rate", -1.0), ("learning_rate", math.nan),
            ("l2_lambda", -1e-5), ("l2_lambda", math.nan), ("exposure_bias_strength", math.nan),
            ("batch_size", 0), ("max_epochs", 0), ("patience", 0),
            ("embedding_dim", 0), ("init_scale", 0.0), ("init_scale", -1.0),
            ("init_scale", math.inf), ("init_scale", math.nan),
            ("n_users", 0), ("latent_dim", 1000), ("positive_threshold", 1.0),
            ("gamma", -1.0), ("gamma", math.nan), ("floor", 0.0), ("floor", 1.5),
            ("epsilon_val", (-0.5,)), ("epsilon_val", (0.3, math.nan)),
            ("split_ratio", 1.5), ("split_ratio", 0.0),
            ("gamma", math.inf), ("learning_rate", math.inf), ("l2_lambda", math.inf),
            ("exposure_bias_strength", math.inf),
        ]:
            with pytest.raises(ValidationError, match=name):
                RunConfig(**{name: value})
        with pytest.raises(ValidationError, match="epsilon_train"):
            RunConfig(objective="sste", epsilon_train=(0.5, 2.0))

    # The one check of each of these rules: SparseAdam, model.init and
    # split_ratio take their values from a loaded config unchecked.
    @pytest.mark.parametrize("name, text", [
        ("learning_rate", "0"), ("learning_rate", "-0.1"),
        ("learning_rate", "nan"), ("init_scale", "0"), ("init_scale", "-1"),
        ("init_scale", "inf"), ("init_scale", "nan"), ("embedding_dim", "0"),
        ("split_ratio", "0"), ("split_ratio", "1"), ("split_ratio", "-0.1"),
        ("split_ratio", "1.5"), ("split_ratio", "nan"),
        ("gamma", "inf"), ("learning_rate", "inf"), ("l2_lambda", "inf"),
        ("exposure_bias_strength", "inf"),
    ])
    def test_load_config_rejects_a_bad_setting(self, tmp_path, name, text):
        path = tmp_path / "run.cfg"
        path.write_text(f"{name} = {text}\n")
        with pytest.raises(ValidationError, match=name):
            load_config(path)


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
        train, val, _, pt, aux = fit_world()
        cfg = run_cfg(objective="sste", batch_size=512, seed=5,
                      learning_rate=0.01, max_epochs=12, patience=4,
                      embedding_dim=6, init_scale=0.1)
        model, state = fit(train, val, aux, cfg, pt)
        scores = [r.modified_score for r in state.history]
        assert state.best_score == max(scores)
        assert state.best_epoch == scores.index(max(scores)) + 1
        report = self_evaluate(model, val, aux[1])
        assert report.modified_score == pytest.approx(state.best_score)

    def test_two_runs_are_bitwise_identical(self):
        train, val, _, pt, aux = fit_world()
        cfg = run_cfg(objective="sste", batch_size=256, seed=9,
                      learning_rate=0.01, max_epochs=6, patience=6,
                      embedding_dim=5, init_scale=0.1)
        m1, s1 = fit(train, val, aux, cfg, pt)
        m2, s2 = fit(train, val, aux, cfg, pt)
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
        cfg = run_cfg(objective="naive", batch_size=4, seed=0,
                      learning_rate=0.01, max_epochs=50, patience=5,
                      embedding_dim=2, init_scale=0.1)
        _, state = fit(train, val, ([], []), cfg, PropensityTable(np.ones(4)))
        assert state.best_epoch == 1
        assert state.epoch == 1 + cfg.patience
        assert len(state.history) == cfg.patience + 1
        scores = {r.score_on_val for r in state.history}
        assert len(scores) == 1

    def test_baseline_without_aux_uses_plain_validation_score(self):
        train, val, _, pt, _ = fit_world()
        cfg = run_cfg(objective="naive", batch_size=512, seed=2,
                      learning_rate=0.01, max_epochs=4, patience=4,
                      embedding_dim=4)
        _, state = fit(train, val, ([], []), cfg, pt)
        for report in state.history:
            assert report.alpha == 0.0
            assert report.modified_score == report.score_on_val

    @pytest.mark.parametrize("l2_lambda", [0.0, 1e-5])
    @pytest.mark.parametrize("objective", [o.value for o in Objective])
    def test_huge_learning_rate_raises_divergence(self, objective, l2_lambda):
        # A step past float64 leaves non-finite parameters. Every trained table
        # enters the epoch loss as a sum of squares in its L2 term, which is
        # nan then even at l2 = 0, so the loss check sees the blow-up.
        train, val, _, pt, aux = fit_world()
        cfg = run_cfg(objective=objective, batch_size=512, seed=2,
                      learning_rate=1e300, max_epochs=10, patience=10,
                      embedding_dim=4, l2_lambda=l2_lambda)
        with np.errstate(over="ignore", invalid="ignore"):  # the overflow is the point
            with pytest.raises(TrainingDivergedError, match="^epoch 1 loss nan out of bounds$"):
                fit(train, val, aux if objective == "sste" else ([], []), cfg, pt)

    def test_vocabulary_mismatch_is_rejected(self):
        train, val, _, pt, _ = fit_world()
        other_val = make_dataset([0, 98], [0, 98], [1, 0], 99, 99)
        with pytest.raises(ValidationError, match="id out of range"):
            fit(train, other_val, ([], []), run_cfg(objective="naive", max_epochs=1), pt)

    def test_resampling_changes_the_training_stream(self):
        train, val, _, pt, aux = fit_world()
        cfg = run_cfg(objective="sste", batch_size=256, seed=7,
                      learning_rate=0.05, max_epochs=6, patience=6,
                      embedding_dim=5, init_scale=0.1)
        _, frozen_state = fit(train, val, aux, cfg, pt)
        _, resampled_state = fit(train, val, aux, replace(cfg, resample_each_epoch=True), pt)
        assert [r.score_on_val for r in frozen_state.history] != [
            r.score_on_val for r in resampled_state.history
        ]

    def test_redraws_use_the_selfsample_seed_of_the_config(self, monkeypatch):
        # Epochs 2.. redraw at cfg.epsilon_train with the master seed that
        # train_model drew epoch 0 with; nothing else reaches train_family.
        train, val, _, pt, aux = fit_world()
        cfg = run_cfg(objective="sste", batch_size=256, seed=7, max_epochs=4,
                      patience=4, embedding_dim=5, epsilon_train=(0.3, 0.7),
                      resample_each_epoch=True)
        calls = []

        def recording(*args, **kwargs):
            calls.append((args[2:], kwargs))
            return train_family(*args, **kwargs)

        monkeypatch.setattr(train_mod, "train_family", recording)
        fit(train, val, aux, cfg, pt)
        seed = derive_seed(cfg.seed, "selfsample")
        assert calls == [(((0.3, 0.7), seed), {"epoch": e}) for e in (2, 3, 4)]

    def test_epoch_callback_sees_every_epoch(self):
        train, val, _, pt, _ = fit_world()
        cfg = run_cfg(objective="naive", batch_size=512, seed=2,
                      learning_rate=0.01, max_epochs=3, patience=3,
                      embedding_dim=4)
        seen = []
        fit(train, val, ([], []), cfg, pt,
            on_epoch=lambda epoch, breakdown, report: seen.append(epoch))
        assert seen == [1, 2, 3]


class TestEpochDispatch:
    """fit looks each epoch function up on the train module, once per epoch:
    the benchmark's ``train.epoch`` span wraps ``train.sste_epoch`` and
    ``train.baseline_epoch`` there and counts ``train.epochs`` by them."""

    @pytest.mark.parametrize("objective", ["naive", "ips", "snips", "sste"])
    def test_each_objective_runs_its_epoch_function_once_per_epoch(
        self, objective, monkeypatch
    ):
        train, val, _, pt, aux = fit_world()
        cfg = run_cfg(objective=objective, batch_size=512, seed=2, max_epochs=3,
                      patience=3, embedding_dim=4)
        counts = {"sste_epoch": 0, "baseline_epoch": 0}
        for name in counts:
            def counting(*args, _name=name, _inner=getattr(train_mod, name), **kwargs):
                counts[_name] += 1
                return _inner(*args, **kwargs)

            monkeypatch.setattr(train_mod, name, counting)
        _, state = fit(train, val, aux, cfg, pt)
        assert state.epoch == 3
        ran = "sste_epoch" if objective == "sste" else "baseline_epoch"
        assert counts == {name: 3 if name == ran else 0 for name in counts}
