"""Two-branch factorization model: predictions, gradients, checkpoints."""

import json
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from sste.errors import ParseError, ValidationError
from sste import model as model_mod
from sste.model import (
    Branch,
    MfModel,
    _logits_with_rows,
    _probability,
    bce_from_logits,
    init,
    load_checkpoint,
    save_checkpoint,
    sigmoid,
)
from sste.optim import SparseAdam
from sste.seeding import rng_for
from sste.train import _apply_batch, batch_gradients

from reference import central_difference, sigmoid_masked


def tiny_model(seed=0, scale=0.1, n_users=3, n_items=4, k=2):
    return init(n_users, n_items, k, scale, seed)


def views(m):
    """Every named parameter array of ``m``: the tables and their views."""
    heads = (m.branch_tilde, m.branch_hat)
    return [m.factors, m.user_factors, m.item_factors,
            *(a for h in heads for a in (h.bias, h.user_bias, h.item_bias, h.global_bias))]


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

    EDGE_LOGITS = (0.0, -0.0, 700.0, -700.0, 800.0, -800.0, np.inf, -np.inf,
                   1e-300, -1e-300, 36.75, -36.75)

    def test_sigmoid_matches_the_masked_form_at_the_edges(self):
        z = np.array([*self.EDGE_LOGITS, np.nan, -np.nan])
        got, want = sigmoid(z), sigmoid_masked(z)
        number = ~np.isnan(z)
        assert got[number].tobytes() == want[number].tobytes()
        # A NaN stays NaN; its sign bit may differ.
        assert np.isnan(got[~number]).all()

    @pytest.mark.parametrize("z", EDGE_LOGITS)
    def test_sigmoid_of_a_0d_input_matches_the_masked_form(self, z):
        got = sigmoid(np.float64(z))
        assert got.shape == ()
        assert got.tobytes() == sigmoid_masked(np.float64(z)).tobytes()

    def test_sigmoid_of_a_0d_nan_is_nan(self):
        assert np.isnan(sigmoid(np.nan))

    @given(st.lists(st.floats(allow_nan=False), min_size=1, max_size=50))
    def test_sigmoid_matches_the_masked_form_to_the_bit(self, values):
        z = np.array(values)
        assert sigmoid(z).tobytes() == sigmoid_masked(z).tobytes()


class TestPrediction:
    def test_zero_parameters_predict_half_on_both_branches(self):
        m = MfModel(2, np.zeros((4, 3)), np.zeros(5), np.zeros(5))
        assert m.predict(Branch.TILDE, [0], [1]).tolist() == [0.5]
        assert m.predict(Branch.HAT, [1], [0]).tolist() == [0.5]

    def test_branch_heads_apply_to_their_own_branch_only(self):
        m = tiny_model()
        m.user_factors[...] = 0.0
        m.item_factors[...] = 0.0
        m.branch_hat.global_bias[...] = math.log(3.0)
        assert m.predict(Branch.HAT, [0], [0]) == pytest.approx([0.75])
        assert m.predict(Branch.TILDE, [0], [0]).tolist() == [0.5]

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
        p = m.predict(Branch.HAT, [0], [0])
        assert 0.0 < p[0] < 1.0

    def test_out_of_range_ids_are_rejected(self):
        m = tiny_model()
        with pytest.raises(ValidationError):
            m.predict(Branch.HAT, 99, 0)
        with pytest.raises(ValidationError):
            m.predict(Branch.HAT, 0, 99)

    def test_vector_prediction_matches_scalar(self):
        m = tiny_model(scale=0.3)
        batch = m.predict(Branch.TILDE, np.array([0, 2]), np.array([1, 3]))
        single = m.predict(Branch.TILDE, 2, 3)
        assert isinstance(single, np.ndarray) and single.shape == (1,)
        assert m.predict(Branch.TILDE, 0, 1)[0] == batch[0]
        assert single[0] == batch[1]


class TestPredictRows:
    """Scoring a block of users against every item equals ``predict`` of
    each (user, item) pair, compared on the raw bits."""

    @given(st.data())
    def test_equals_predict_of_every_pair_bit_for_bit(self, data):
        k = data.draw(st.integers(min_value=1, max_value=64))
        n_users = data.draw(st.integers(min_value=1, max_value=30))
        n_items = data.draw(st.integers(min_value=1, max_value=301))
        scale = data.draw(st.sampled_from([0.01, 0.5, 4.0]))
        m = init(n_users, n_items, k, scale, seed=data.draw(st.integers(0, 2**16)))
        rng = np.random.default_rng(k)
        for head in (m.branch_tilde, m.branch_hat):
            head.user_bias[...] = rng.normal(size=n_users)
            head.item_bias[...] = rng.normal(size=n_items)
            head.global_bias[...] = rng.normal()
        block = np.array(data.draw(st.lists(st.integers(0, n_users - 1), min_size=1, max_size=20)))
        branch = data.draw(st.sampled_from(list(Branch)))
        rows = m.predict_rows(branch, block)
        items = np.tile(np.arange(n_items), len(block))
        pairs = m.predict(branch, np.repeat(block, n_items), items)
        assert rows.shape == (len(block), n_items)
        assert np.array_equal(rows.view(np.uint64), pairs.reshape(rows.shape).view(np.uint64))

    def test_out_of_range_users_are_rejected(self):
        m = tiny_model()
        for block in ([-1], [0, 3]):
            with pytest.raises(ValidationError):
                m.predict_rows(Branch.HAT, block)


def scored_model(k: int, n_users: int = 300, n_items: int = 200):
    """A model with random factors and nonzero biases on both branches."""
    m = init(n_users, n_items, k, 0.5, seed=k)
    rng = np.random.default_rng(k)
    for head in (m.branch_tilde, m.branch_hat):
        head.bias[...] = rng.normal(size=head.bias.shape)
    return m


class TestBlockedScoring:
    """``predict`` scores blocks of ``_SCORE_BLOCK`` pairs; its probabilities
    equal those of all pairs scored at once, and those of each pair scored
    alone by ``_logits_with_rows`` then ``_probability``, bit for bit."""

    BLOCK = model_mod._SCORE_BLOCK

    @pytest.mark.parametrize("k", [10, 50])
    @pytest.mark.parametrize("n_pairs", [BLOCK - 1, BLOCK, 3 * BLOCK + 17],
                             ids=["a block less one", "one block", "three blocks and 17"])
    def test_equals_the_pairs_scored_at_once_and_alone(self, k, n_pairs):
        m = scored_model(k)
        rng = np.random.default_rng(n_pairs)
        users, items = rng.integers(0, m.n_users, n_pairs), rng.integers(0, m.n_items, n_pairs)
        # Pairs alone: both sides of every block edge, and a random draw.
        edges = np.arange(0, n_pairs + 1, self.BLOCK)[:, None] + np.arange(-2, 3)
        sample = np.union1d(edges.ravel(), rng.integers(0, n_pairs, 300))
        sample = sample[(sample >= 0) & (sample < n_pairs)]
        for branch in Branch:
            got = m.predict(branch, users, items)
            at_once = _probability(_logits_with_rows(m, branch, users, items)[0])
            alone = np.concatenate([
                _probability(_logits_with_rows(m, branch, [users[j]], [items[j]])[0])
                for j in sample.tolist()
            ])
            assert got.shape == (n_pairs,)
            assert np.array_equal(got.view(np.uint64), at_once.view(np.uint64))
            assert np.array_equal(got[sample].view(np.uint64), alone.view(np.uint64))

    def test_one_user_is_paired_with_every_item(self):
        m = scored_model(10)
        items = np.arange(m.n_items).repeat(30)
        assert np.array_equal(m.predict(Branch.HAT, 7, items),
                              m.predict(Branch.HAT, np.full(len(items), 7), items))

    def test_unequal_pair_lengths_are_an_error(self):
        with pytest.raises(ValueError):
            scored_model(10).predict(Branch.HAT, [0, 1], [0, 1, 2])

    def test_peak_memory_grows_only_by_the_output(self, traced_peak):
        m = init(15400, 1000, 10, 0.1, seed=0)
        rng = np.random.default_rng(0)
        peaks = {}
        for n in (50_000, 200_000):
            users, items = rng.integers(0, 15400, n), rng.integers(0, 1000, n)
            _, peaks[n] = traced_peak(m.predict, Branch.HAT, users, items)
        # Measured: the output plus 3.15 MB at both sizes (before: 8.8 and
        # 35.2 MB beyond the output at k=10). Bound: the output plus 4 MiB,
        # 33% above, and the two sizes differ by their outputs within 64 KiB.
        assert peaks[200_000] <= 8 * 200_000 + 4 * 2**20
        assert abs((peaks[200_000] - peaks[50_000]) - 8 * 150_000) <= 2**16


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

    def test_parameter_shapes(self):
        m = init(5, 7, 3, 0.1, 0)
        p = m.parameters()
        assert list(p) == ["factors", "tilde_bias", "hat_bias"]
        assert p["factors"].shape == (12, 3)
        assert p["tilde_bias"].shape == p["hat_bias"].shape == (13,)
        assert m.user_factors.shape == (5, 3)
        assert m.item_factors.shape == (7, 3)
        assert m.branch_hat.user_bias.shape == (5,)
        assert m.branch_tilde.item_bias.shape == (7,)
        assert m.branch_hat.global_bias.shape == ()

    def test_factors_are_drawn_as_the_user_then_the_item_table(self):
        # One draw of every row gives the values of a user draw followed by
        # an item draw from the same generator.
        for k in (3, 10, 50):
            m = init(9, 4, k, 0.2, 6)
            rng = rng_for(6, "mf-init")
            users = rng.uniform(-0.2, 0.2, size=(9, k))
            items = rng.uniform(-0.2, 0.2, size=(4, k))
            assert m.user_factors.tobytes() == users.tobytes()
            assert m.item_factors.tobytes() == items.tobytes()


def one_row(m, branch, user, item, label, weight):
    """Gradient of weight * BCE for one instance, as training computes it."""
    return batch_gradients(m, branch, np.array([user]), np.array([item]),
                           np.array([float(label)]), np.array([weight]))


class TestGradients:
    def test_zero_weight_gives_zero_gradient(self):
        m = tiny_model(scale=0.4)
        g = one_row(m, Branch.HAT, 1, 2, 1, weight=0.0)
        assert not g.factors.any()
        assert g.bias[-1] == 0.0

    def test_residual_sign_follows_the_label(self):
        m = tiny_model(scale=0.01)
        up = one_row(m, Branch.HAT, 0, 0, 0, weight=1.0)
        down = one_row(m, Branch.HAT, 0, 0, 1, weight=1.0)
        assert up.bias[-1] > 0.0
        assert down.bias[-1] < 0.0

    def test_factor_gradient_uses_the_partner_row(self):
        m = tiny_model(scale=0.3)
        g = one_row(m, Branch.TILDE, 2, 1, 1, weight=2.0)
        z = m.logits(Branch.TILDE, 2, 1)[0]
        residual = 2.0 * (float(sigmoid(z)) - 1.0)
        # One user row, then one item row offset by n_users.
        assert g.rows.tolist() == [2, m.n_users + 1]
        assert g.factors[0] == pytest.approx(residual * m.item_factors[1])
        assert g.factors[1] == pytest.approx(residual * m.user_factors[2])
        assert g.bias.tolist() == [residual] * 3

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
        assert g.bias[-1] == pytest.approx(numeric, rel=1e-6)

    def test_factor_gradient_matches_finite_differences(self):
        m = tiny_model(scale=0.4, seed=8)
        g = one_row(m, Branch.HAT, 0, 2, 1, weight=1.0)

        def loss_with_coord(delta):
            probe = m.copy()
            probe.user_factors[0, 1] += delta
            return one_row(probe, Branch.HAT, 0, 2, 1, 1.0).loss

        numeric = central_difference(loss_with_coord, 0.0)
        assert g.factors[0, 1] == pytest.approx(numeric, rel=1e-6)


class TestStateManagement:
    def test_copy_is_deep(self):
        m = tiny_model()
        c = m.copy()
        c.user_factors[0, 0] = 99.0
        c.branch_hat.global_bias[...] = 5.0
        assert m.user_factors[0, 0] != 99.0
        assert float(m.branch_hat.global_bias) == 0.0

    def test_copy_shares_no_memory(self):
        m = tiny_model()
        c = m.copy()
        for a, b in zip(views(m), views(c)):
            assert not np.shares_memory(a, b)

    def test_the_named_arrays_are_views_of_the_tables(self):
        m = tiny_model()
        tables = list(m.parameters().values())
        for view in views(m):
            assert sum(np.shares_memory(view, table) for table in tables) == 1

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

    def test_a_loaded_checkpoint_saves_to_the_same_bytes(self, tmp_path):
        m = tiny_model(seed=3, scale=0.7, n_users=5, n_items=6, k=3)
        m.branch_hat.bias[...] = np.linspace(-1, 1, 12)
        m.branch_tilde.global_bias[...] = 0.125
        first, second = tmp_path / "first.ckpt", tmp_path / "second.ckpt"
        save_checkpoint(m, first)
        save_checkpoint(load_checkpoint(first), second)
        assert second.read_bytes() == first.read_bytes()

    def test_a_step_on_a_loaded_model_moves_its_predictions(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(tiny_model(seed=5, scale=0.4), path)
        m = load_checkpoint(path)
        users, items = np.array([0, 1, 2, 0]), np.array([3, 1, 0, 2])
        labels = np.array([1.0, 0.0, 1.0, 1.0])
        before = m.predict(Branch.HAT, users, items)
        opt = SparseAdam(m.parameters(), learning_rate=0.1)
        _apply_batch(m, opt, Branch.HAT,
                     batch_gradients(m, Branch.HAT, users, items, labels, np.full(4, 0.25)), 0.0)
        after = m.predict(Branch.HAT, users, items)
        # Every pair's factor rows and biases took a step of about the
        # learning rate each, towards its label.
        assert np.all(np.sign(after - before) == np.where(labels == 1.0, 1.0, -1.0))

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
