"""Two-branch factorization model: predictions, gradients, checkpoints."""

import json
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from sste.errors import ParseError, ValidationError
from sste.model import (
    Branch,
    InitSpec,
    MfModel,
    bce_from_logits,
    init,
    load_checkpoint,
    save_checkpoint,
    sigmoid,
)
from sste.train import batch_gradients

from reference import central_difference


def tiny_model(seed=0, scale=0.1, n_users=3, n_items=4, k=2):
    return init(n_users, n_items, k, InitSpec(scale=scale, seed=seed))


class TestActivations:
    def test_sigmoid_at_zero(self):
        assert sigmoid(0.0) == 0.5

    def test_sigmoid_is_stable_at_extremes(self):
        assert sigmoid(-1000.0) == 0.0
        assert sigmoid(1000.0) == 1.0

    def test_bce_is_finite_at_extreme_logits(self):
        assert np.isfinite(bce_from_logits(1000.0, 0.0))
        assert np.isfinite(bce_from_logits(-1000.0, 1.0))

    def test_bce_matches_direct_formula_in_the_safe_range(self):
        z, y = 0.7, 1.0
        p = 1.0 / (1.0 + math.exp(-z))
        direct = -y * math.log(p) - (1 - y) * math.log(1 - p)
        assert bce_from_logits(z, y) == pytest.approx(direct, abs=1e-12)

    @given(st.floats(min_value=-30, max_value=30),
           st.floats(min_value=-30, max_value=30))
    def test_sigmoid_is_monotone(self, a, b):
        if a < b:
            assert sigmoid(a) <= sigmoid(b)


class TestPrediction:
    def test_zero_parameters_predict_half_on_both_branches(self):
        m = MfModel(
            user_factors=np.zeros((2, 3)),
            item_factors=np.zeros((2, 3)),
            branch_tilde=tiny_model().branch_tilde,
            branch_hat=tiny_model().branch_hat,
        )
        assert m.predict(Branch.TILDE, 0, 1) == 0.5
        assert m.predict(Branch.HAT, 1, 0) == 0.5

    def test_branch_heads_apply_to_their_own_branch_only(self):
        m = tiny_model()
        m.user_factors[...] = 0.0
        m.item_factors[...] = 0.0
        m.branch_hat.global_bias[...] = math.log(3.0)
        assert m.predict(Branch.HAT, 0, 0) == pytest.approx(0.75)
        assert m.predict(Branch.TILDE, 0, 0) == 0.5

    def test_branches_share_the_factor_tables(self):
        m = tiny_model(scale=0.5)
        m.branch_tilde.user_bias[...] = 0.0
        m.branch_tilde.item_bias[...] = 0.0
        m.branch_tilde.global_bias[...] = 0.0
        m.branch_hat.user_bias[...] = 0.0
        m.branch_hat.item_bias[...] = 0.0
        m.branch_hat.global_bias[...] = 0.0
        users = np.array([0, 1, 2])
        items = np.array([3, 0, 1])
        assert np.array_equal(m.logits(Branch.TILDE, users, items),
                              m.logits(Branch.HAT, users, items))

    def test_prediction_stays_inside_open_interval(self):
        m = tiny_model()
        m.branch_hat.global_bias[...] = 500.0
        p = m.predict(Branch.HAT, 0, 0)
        assert 0.0 < p < 1.0

    def test_out_of_range_ids_are_rejected(self):
        m = tiny_model()
        with pytest.raises(ValidationError):
            m.predict(Branch.HAT, 99, 0)
        with pytest.raises(ValidationError):
            m.predict(Branch.HAT, 0, 99)

    def test_vector_prediction_matches_scalar(self):
        m = tiny_model(scale=0.3)
        batch = m.predict(Branch.TILDE, np.array([0, 2]), np.array([1, 3]))
        assert batch[0] == pytest.approx(m.predict(Branch.TILDE, 0, 1))
        assert batch[1] == pytest.approx(m.predict(Branch.TILDE, 2, 3))


class TestInit:
    def test_same_spec_is_bitwise_identical(self):
        a = tiny_model(seed=4)
        b = tiny_model(seed=4)
        assert np.array_equal(a.user_factors, b.user_factors)
        assert np.array_equal(a.item_factors, b.item_factors)

    def test_different_seeds_differ(self):
        assert not np.array_equal(tiny_model(seed=1).user_factors,
                                  tiny_model(seed=2).user_factors)

    def test_factors_respect_the_scale(self):
        m = tiny_model(scale=0.05)
        assert np.abs(m.user_factors).max() <= 0.05
        assert np.abs(m.item_factors).max() <= 0.05

    def test_biases_start_at_zero(self):
        m = tiny_model()
        for head in (m.branch_tilde, m.branch_hat):
            assert not head.user_bias.any()
            assert not head.item_bias.any()
            assert float(head.global_bias) == 0.0

    def test_bad_scale_is_rejected(self):
        with pytest.raises(ValidationError):
            InitSpec(scale=0.0)
        with pytest.raises(ValidationError):
            InitSpec(scale=-1.0)

    def test_bad_dimensions_are_rejected(self):
        with pytest.raises(ValidationError):
            init(0, 3, 2)
        with pytest.raises(ValidationError):
            init(3, 3, 0)

    def test_parameter_shapes(self):
        m = init(5, 7, 3, InitSpec(scale=0.1, seed=0))
        p = m.parameters()
        assert p["user_factors"].shape == (5, 3)
        assert p["item_factors"].shape == (7, 3)
        assert p["hat_user_bias"].shape == (5,)
        assert p["tilde_item_bias"].shape == (7,)
        assert p["hat_global_bias"].shape == ()


def one_row(m, branch, user, item, label, weight):
    """Gradient of weight * BCE for one instance, as training computes it."""
    return batch_gradients(m, branch, np.array([user]), np.array([item]),
                           np.array([float(label)]), np.array([weight]))


class TestGradients:
    def test_zero_weight_gives_zero_gradient(self):
        m = tiny_model(scale=0.4)
        g = one_row(m, Branch.HAT, 1, 2, 1, weight=0.0)
        assert not g.user_factors.any()
        assert g.global_bias == 0.0

    def test_residual_sign_follows_the_label(self):
        m = tiny_model(scale=0.01)
        up = one_row(m, Branch.HAT, 0, 0, 0, weight=1.0)
        down = one_row(m, Branch.HAT, 0, 0, 1, weight=1.0)
        assert up.global_bias > 0.0
        assert down.global_bias < 0.0

    def test_factor_gradient_uses_the_partner_row(self):
        m = tiny_model(scale=0.3)
        g = one_row(m, Branch.TILDE, 2, 1, 1, weight=2.0)
        z = m.logits(Branch.TILDE, 2, 1)[0]
        residual = 2.0 * (float(sigmoid(z)) - 1.0)
        assert g.user_factors[0] == pytest.approx(residual * m.item_factors[1])
        assert g.item_factors[0] == pytest.approx(residual * m.user_factors[2])
        assert g.user_bias[0] == g.item_bias[0] == g.global_bias == residual

    @pytest.mark.parametrize("branch", [Branch.TILDE, Branch.HAT])
    @pytest.mark.parametrize("label", [0, 1])
    def test_bias_gradient_matches_finite_differences(self, branch, label):
        m = tiny_model(scale=0.4, seed=8)
        g = one_row(m, branch, 1, 3, label, weight=1.7)

        def loss_with_global(delta):
            probe = m.copy()
            probe.head(branch).global_bias[...] += delta
            return one_row(probe, branch, 1, 3, label, 1.7).loss

        numeric = central_difference(loss_with_global, 0.0)
        assert g.global_bias == pytest.approx(numeric, rel=1e-6)

    def test_factor_gradient_matches_finite_differences(self):
        m = tiny_model(scale=0.4, seed=8)
        g = one_row(m, Branch.HAT, 0, 2, 1, weight=1.0)

        def loss_with_coord(delta):
            probe = m.copy()
            probe.user_factors[0, 1] += delta
            return one_row(probe, Branch.HAT, 0, 2, 1, 1.0).loss

        numeric = central_difference(loss_with_coord, 0.0)
        assert g.user_factors[0, 1] == pytest.approx(numeric, rel=1e-6)


class TestStateManagement:
    def test_copy_is_deep(self):
        m = tiny_model()
        c = m.copy()
        c.user_factors[0, 0] = 99.0
        c.branch_hat.global_bias[...] = 5.0
        assert m.user_factors[0, 0] != 99.0
        assert float(m.branch_hat.global_bias) == 0.0

    def test_all_finite_detects_nan(self):
        m = tiny_model()
        assert m.all_finite()
        m.item_factors[1, 0] = np.nan
        assert not m.all_finite()


class TestCheckpoint:
    def test_round_trip_is_bitwise(self, tmp_path):
        m = tiny_model(seed=3, scale=0.7, n_users=5, n_items=6, k=3)
        m.branch_hat.user_bias[...] = np.linspace(-1, 1, 5)
        m.branch_tilde.global_bias[...] = 0.125
        path = tmp_path / "model.ckpt"
        save_checkpoint(m, str(path))
        back = load_checkpoint(str(path))
        for name, value in m.parameters().items():
            assert np.array_equal(back.parameters()[name], value), name

    def test_garbage_magic_is_rejected(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"not a checkpoint\n")
        with pytest.raises(ParseError):
            load_checkpoint(str(path))

    @pytest.mark.parametrize("dims", [
        {"n_users": -1, "n_items": 4, "k": 2},
        {"n_users": 3, "n_items": 0, "k": 2},
        {"n_users": 3, "n_items": 4, "k": "2"},
        {"n_users": 3, "n_items": 4, "k": 2.0},
        {"n_users": True, "n_items": 4, "k": 2},
        [3, 4, 2],
    ])
    def test_malformed_header_dims_are_rejected(self, tmp_path, dims):
        path = tmp_path / "model.ckpt"
        save_checkpoint(tiny_model(), str(path))
        magic = path.read_bytes().split(b"\n", 1)[0]
        # 14 floats is the payload size the first two headers imply, so
        # only the dims check can reject them.
        header = json.dumps(dims).encode()
        path.write_bytes(magic + b"\n" + header + b"\n" + bytes(8 * 14))
        with pytest.raises(ParseError):
            load_checkpoint(str(path))

    def test_truncated_payload_is_rejected(self, tmp_path):
        m = tiny_model()
        path = tmp_path / "model.ckpt"
        save_checkpoint(m, str(path))
        raw = path.read_bytes()
        path.write_bytes(raw[:-16])
        with pytest.raises(ParseError):
            load_checkpoint(str(path))
