"""Lazy per-row Adam behavior."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from sste.optim import ADAM_BETA1, ADAM_BETA2, SparseAdam

from reference import adam_update_double_gather, adam_update_scalar


def make_params():
    return {
        "table": np.zeros((4, 3)),
        "bias": np.zeros(4),
    }


class TestSparseAdam:
    def test_untouched_rows_never_move(self):
        params = make_params()
        opt = SparseAdam(params, learning_rate=0.1)
        for _ in range(20):
            opt.update("table", np.array([0, 2]), np.ones((2, 3)))
        assert not params["table"][1].any()
        assert not params["table"][3].any()
        assert params["table"][0].any()

    def test_first_step_size_is_learning_rate_regardless_of_scale(self):
        # The eps in the denominator perturbs the step by eps/|grad|,
        # so the smallest scale here is still within 1e-3 relative.
        for scale in (1e-4, 1.0, 1e4):
            params = make_params()
            opt = SparseAdam(params, learning_rate=0.05)
            opt.update("bias", np.array([1]), np.array([scale]))
            assert params["bias"][1] == pytest.approx(-0.05, rel=1e-3)

    def test_lazy_rows_keep_their_own_bias_correction(self):
        # A row first touched late must take the same first step as a row
        # touched at the start.
        params = make_params()
        opt = SparseAdam(params, learning_rate=0.1)
        for _ in range(10):
            opt.update("bias", np.array([0]), np.array([1.0]))
        opt.update("bias", np.array([3]), np.array([1.0]))
        fresh = make_params()
        fresh_opt = SparseAdam(fresh, learning_rate=0.1)
        fresh_opt.update("bias", np.array([3]), np.array([1.0]))
        assert params["bias"][3] == fresh["bias"][3]

    def test_updates_are_in_place_on_live_arrays(self):
        params = make_params()
        view = params["table"]
        opt = SparseAdam(params, learning_rate=0.1)
        opt.update("table", np.array([1]), np.ones((1, 3)))
        assert view[1].any()

    def test_descends_a_simple_quadratic(self):
        # Minimize 0.5*(x - 3)^2 elementwise.
        params = {"x": np.zeros(2)}
        opt = SparseAdam(params, learning_rate=0.2)
        for _ in range(300):
            grad = params["x"] - 3.0
            opt.update("x", np.array([0, 1]), grad)
        assert params["x"] == pytest.approx([3.0, 3.0], abs=1e-2)

    def test_opposite_gradients_give_mirrored_trajectories(self):
        params = make_params()
        opt = SparseAdam(params, learning_rate=0.1)
        for sign, row in ((1.0, 0), (-1.0, 1)):
            for _ in range(5):
                opt.update("bias", np.array([row]), np.array([sign]))
        assert params["bias"][0] == pytest.approx(-params["bias"][1])


class TestExactAgainstOracle:
    """update equals the oracle that reads each row's state twice, to the bit."""

    @staticmethod
    def run_against_oracle(k, n_rows, n_steps, seed):
        rng = np.random.default_rng(seed)
        params = {
            "table": rng.normal(size=(n_rows, k)),
            "bias": rng.normal(size=n_rows),
        }
        lr = 0.05
        opt = SparseAdam(params, learning_rate=lr)
        state = {
            name: (p.copy(), np.zeros_like(p), np.zeros_like(p),
                   np.zeros(len(p), dtype=np.int64))
            for name, p in params.items()
        }
        for _ in range(n_steps):
            for name in ("table", "bias"):
                # Unique rows in any order, some untouched this step.
                rows = rng.permutation(n_rows)[:rng.integers(1, n_rows + 1)]
                grad = rng.normal(size=(len(rows), *params[name].shape[1:]))
                opt.update(name, rows, grad)
                adam_update_double_gather(state, name, rows, grad, lr)
            for name, p in params.items():
                assert p.tobytes() == state[name][0].tobytes(), name
        for name in params:
            _, m, v, t = state[name]
            assert opt._m[name].tobytes() == m.tobytes(), name
            assert opt._v[name].tobytes() == v.tobytes(), name
            assert opt._t[name].tobytes() == t.tobytes(), name
        return opt

    @given(
        k=st.sampled_from([1, 10, 50]),
        n_rows=st.integers(1, 12),
        n_steps=st.integers(1, 8),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_consecutive_steps_match_byte_for_byte(self, k, n_rows, n_steps, seed):
        self.run_against_oracle(k, n_rows, n_steps, seed)

    def test_steps_past_table_growths_match_byte_for_byte(self):
        first_size = len(SparseAdam({}, learning_rate=0.1)._c1)
        opt = self.run_against_oracle(k=5, n_rows=3, n_steps=first_size, seed=12)
        assert len(opt._c1) > 2 * first_size


class TestGlobalBiasRow:
    """A branch's global bias is the last row of its bias table, stepped with
    the batch's user and item rows; it must follow the 0-d Adam step that
    updated it on its own before, to the bit."""

    @staticmethod
    def follow_the_scalar_oracle(lr, start, grads, seed):
        # Each step updates the global bias row with a random subset of the
        # other rows, as a batch of user and item biases does.
        rng = np.random.default_rng(seed)
        n_rows = 6
        table = rng.normal(size=n_rows)
        table[-1] = start
        opt = SparseAdam({"bias": table}, learning_rate=lr)
        old = [np.asarray(start), np.zeros(()), np.zeros(()), np.zeros((), dtype=np.int64)]
        for grad in grads:
            rows = np.append(rng.permutation(n_rows - 1)[:rng.integers(0, n_rows)], n_rows - 1)
            row_grads = np.append(rng.normal(size=len(rows) - 1), grad)
            opt.update("bias", rows, row_grads)
            adam_update_scalar(*old, grad, lr)
            assert table[-1:].tobytes() == old[0].tobytes()
        assert opt._m["bias"][-1:].tobytes() == old[1].tobytes()
        assert opt._v["bias"][-1:].tobytes() == old[2].tobytes()
        assert opt._t["bias"][-1:].tobytes() == old[3].tobytes()
        return opt

    def test_300_steps_past_three_table_growths_match_byte_for_byte(self):
        first_size = len(SparseAdam({}, learning_rate=0.1)._c1)
        rng = np.random.default_rng(17)
        grads = rng.choice([-1.0, 1.0], 300) * 10.0 ** rng.uniform(-6.0, 2.0, 300)
        opt = self.follow_the_scalar_oracle(0.01, 0.25, grads.tolist(), seed=4)
        assert len(opt._c1) > 4 * first_size

    @given(
        lr=st.floats(1e-4, 1e-1),
        start=st.floats(-1.0, 1.0),
        grads=st.lists(
            st.tuples(st.sampled_from([-1.0, 1.0]), st.floats(-6.0, 2.0)),
            min_size=1, max_size=60,
        ),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_a_trajectory_matches_the_scalar_step(self, lr, start, grads, seed):
        self.follow_the_scalar_oracle(
            lr, start, [sign * 10.0 ** exponent for sign, exponent in grads], seed
        )


class TestCorrectionTable:
    """The step-indexed tables of ``1 - beta ** t`` that ``update`` reads."""

    SIZE = 2**16

    def test_every_step_below_2_16_matches_the_power_bit_for_bit(self):
        c1, c2 = SparseAdam._corrections(self.SIZE)
        shuffled = np.random.default_rng(0).permutation(self.SIZE)
        for table, beta in ((c1, ADAM_BETA1), (c2, ADAM_BETA2)):
            steps = shuffled.astype(np.float64)
            assert table[shuffled].tobytes() == (1.0 - beta ** steps).tobytes()
            # Lengths and offsets of the row sets update passes, and the
            # 0-d power of the scalar step a global bias row must match.
            for lo, hi in ((0, 1), (3, 10), (100, 437), (50_000, 65_535)):
                chunk = steps[lo:hi]
                assert table[shuffled[lo:hi]].tobytes() == (1.0 - beta ** chunk).tobytes()
            zero_d = [1.0 - beta ** np.asarray(t, dtype=np.float64) for t in range(self.SIZE)]
            assert np.array(zero_d).tobytes() == table.tobytes()

    def test_the_table_grows_on_demand_and_stays_exact(self):
        params = make_params()
        opt = SparseAdam(params, learning_rate=0.1)
        first_size = len(opt._c1)
        for _ in range(3 * first_size):
            opt.update("bias", np.array([2]), np.array([1.0]))
        assert int(opt._t["bias"][2]) == 3 * first_size
        assert len(opt._c1) > 3 * first_size
        c1, c2 = SparseAdam._corrections(len(opt._c1))
        assert opt._c1.tobytes() == c1.tobytes()
        assert opt._c2.tobytes() == c2.tobytes()
        assert opt._c1[:first_size].tobytes() == SparseAdam._corrections(first_size)[0].tobytes()

    def test_update_leaves_the_gradient_as_it_was(self):
        # The moments are advanced in place on gathered copies, never on
        # the caller's gradient.
        params = make_params()
        opt = SparseAdam(params, learning_rate=0.1)
        grad = np.arange(6.0).reshape(2, 3)
        for _ in range(3):
            opt.update("table", np.array([3, 1]), grad)
        assert grad.tobytes() == np.arange(6.0).reshape(2, 3).tobytes()
