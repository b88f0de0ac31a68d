"""Auxiliary-subset drawing: Bernoulli keeps under the threshold test, bit
for bit the draw under ``reference.truncate``; seeding; family helpers."""

import collections

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from sste.data import Provenance, generate_synthetic
from sste.errors import ValidationError
from sste.experiment import RunConfig
from sste.propensity import (
    draw_auxiliary,
    estimate_popularity_propensity,
    sampling_probabilities,
    train_family,
    val_family,
)
from sste.seeding import derive_seed

from reference import draw_truncated, make_dataset, truncate
from test_data import small_spec


def biased_dataset(n_items=12, rows=3000, seed=3):
    rng = np.random.default_rng(seed)
    weights = 1.0 / np.arange(1, n_items + 1)
    weights /= weights.sum()
    items = rng.choice(n_items, size=rows, p=weights)
    users = rng.integers(0, 20, size=rows)
    labels = rng.integers(0, 2, size=rows)
    return make_dataset(users, items, labels, 20, n_items)


class TestDrawAuxiliary:
    def test_all_ones_returns_the_input_verbatim(self):
        ds = make_dataset([0, 1, 2], [2, 0, 1], [1, 0, 1], 3, 3)
        out = draw_auxiliary(ds, np.ones(3), 0.5, seed=7)
        assert np.array_equal(out.users, ds.users)
        assert np.array_equal(out.items, ds.items)
        assert np.array_equal(out.labels, ds.labels)

    def test_result_records_provenance(self):
        ds = make_dataset([0, 1], [0, 1], [1, 1], 2, 2)
        out = draw_auxiliary(ds, np.array([0.4, 0.9]), 0.5, seed=11)
        assert out.provenance is Provenance.AUXILIARY_SUBSET

    def test_same_seed_reproduces_the_draw(self):
        ds = biased_dataset()
        probs = np.full(len(ds), 0.3)
        a = draw_auxiliary(ds, probs, 0.5, seed=5)
        b = draw_auxiliary(ds, probs, 0.5, seed=5)
        assert np.array_equal(a.users, b.users)
        assert np.array_equal(a.items, b.items)

    def test_different_seeds_differ(self):
        ds = biased_dataset()
        probs = np.full(len(ds), 0.3)
        a = draw_auxiliary(ds, probs, 0.5, seed=5)
        b = draw_auxiliary(ds, probs, 0.5, seed=6)
        assert len(a) != len(b) or not np.array_equal(a.items, b.items)

    def test_half_probability_size_is_binomial(self):
        ds = biased_dataset(rows=10000)
        out = draw_auxiliary(ds, np.full(len(ds), 0.5), 0.9, seed=123)
        # 3 sigma for Binomial(10000, 0.5) is 150.
        assert abs(len(out) - 5000) <= 150

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=30)
    def test_subset_rows_come_from_the_source(self, seed):
        ds = biased_dataset(rows=400, seed=1)
        out = draw_auxiliary(ds, np.full(len(ds), 0.4), 0.9, seed=seed)
        source = collections.Counter(
            zip(ds.users.tolist(), ds.items.tolist(), ds.labels.tolist())
        )
        drawn = collections.Counter(
            zip(out.users.tolist(), out.items.tolist(), out.labels.tolist())
        )
        assert all(drawn[key] <= source[key] for key in drawn)


def probabilities_and_threshold():
    """(probs in (0,1], epsilon in [0,1]): epsilon 0, 1 or any, and probs
    drawn with ties at epsilon and exact ones."""
    return st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)).flatmap(
        lambda eps: st.tuples(
            hnp.arrays(np.float64, st.integers(1, 60), elements=st.one_of(
                st.sampled_from([eps or 1.0, 1.0]),
                st.floats(0.0, 1.0, exclude_min=True),
            )),
            st.just(eps),
        )
    )


class TestAgainstTheTruncateOracle:
    @given(probabilities_and_threshold(), st.integers(0, 2**63 - 1))
    @settings(max_examples=300)
    def test_keeps_the_rows_of_the_truncated_draw(self, drawn, seed):
        probs, eps = drawn
        n = len(probs)
        rng = np.random.default_rng(n)
        ds = make_dataset(rng.integers(0, 5, n), rng.integers(0, 7, n),
                          rng.integers(0, 2, n), 5, 7)
        out = draw_auxiliary(ds, probs, eps, seed)
        oracle = draw_truncated(ds, probs, eps, seed)
        for name in ("users", "items", "labels"):
            assert getattr(out, name).tobytes() == getattr(oracle, name).tobytes()
            assert getattr(out, name).dtype == getattr(oracle, name).dtype
        assert out.provenance is Provenance.AUXILIARY_SUBSET


class TestFamilies:
    def test_train_family_sizes_and_epsilons(self):
        ds = biased_dataset()
        pt = estimate_popularity_propensity(ds, gamma=1.0, floor=0.01)
        subsets = train_family(ds, pt, (0.3, 0.7), master_seed=9)
        assert len(subsets) == 2
        base = sampling_probabilities(ds, pt)
        for i, (eps, subset) in enumerate(zip((0.3, 0.7), subsets)):
            alone = draw_auxiliary(ds, base, eps, derive_seed(9, "aux-train", i, 0))
            assert np.array_equal(subset.users, alone.users)
            assert np.array_equal(subset.items, alone.items)

    def test_zero_threshold_keeps_the_whole_source(self):
        ds = biased_dataset(rows=500)
        pt = estimate_popularity_propensity(ds, gamma=1.0, floor=0.01)
        (subset,) = train_family(ds, pt, (0.0,), master_seed=9)
        assert np.array_equal(subset.users, ds.users)
        assert np.array_equal(subset.items, ds.items)

    def test_epoch_changes_train_draws_but_not_val(self):
        ds = biased_dataset()
        pt = estimate_popularity_propensity(ds, gamma=1.0, floor=0.01)
        a = train_family(ds, pt, (0.5,), master_seed=9, epoch=1)
        b = train_family(ds, pt, (0.5,), master_seed=9, epoch=2)
        assert len(a[0]) != len(b[0]) or not np.array_equal(a[0].items, b[0].items)
        v1 = val_family(ds, pt, (0.5,), master_seed=9)
        v2 = val_family(ds, pt, (0.5,), master_seed=9)
        assert np.array_equal(v1[0].items, v2[0].items)

    def test_distinct_thresholds_use_distinct_seeds(self):
        ds = biased_dataset()
        pt = estimate_popularity_propensity(ds, gamma=1.0, floor=0.01)
        subsets = train_family(ds, pt, (0.5, 0.5), master_seed=9)
        assert not np.array_equal(subsets[0].items, subsets[1].items)

    def test_subset_is_much_smaller_on_skewed_data(self):
        ds = biased_dataset(rows=4000)
        pt = estimate_popularity_propensity(ds, gamma=1.0, floor=0.01)
        (subset,) = train_family(ds, pt, (0.9,), master_seed=3)
        assert len(subset) < 0.5 * len(ds)

    def test_subset_expected_size_matches_probability_mass(self):
        ds = biased_dataset(rows=6000)
        pt = estimate_popularity_propensity(ds, gamma=1.0, floor=0.01)
        probs = sampling_probabilities(ds, pt)
        expected = truncate(probs, 0.5).sum()
        sizes = [
            len(draw_auxiliary(ds, probs, 0.5, seed=s)) for s in range(40, 60)
        ]
        assert abs(np.mean(sizes) - expected) < 4.0 * np.sqrt(expected)

    def test_subset_items_are_less_popularity_skewed(self):
        spec = small_spec(n_users=60, n_items=30, train_impressions=8000,
                          exposure_bias_strength=1.5)
        train, _, _, _ = generate_synthetic(spec)
        pt = estimate_popularity_propensity(train, gamma=1.0, floor=0.01)
        (subset,) = train_family(train, pt, (1.0,), master_seed=17)
        uniform = 1.0 / spec.n_items

        def tv_from_uniform(items):
            freq = np.bincount(items, minlength=spec.n_items) / len(items)
            return 0.5 * np.abs(freq - uniform).sum()

        assert tv_from_uniform(subset.items) < tv_from_uniform(train.items)


class TestPeakMemory:
    def test_a_draw_makes_no_truncated_copy(self, traced_peak):
        # 17 bytes a row: the probabilities and the uniform draws (float64)
        # and the keep mask. A truncated float64 copy of the probabilities
        # made it 25.
        ds = biased_dataset(n_items=1000, rows=100_000)
        pt = estimate_popularity_propensity(ds, gamma=0.5, floor=0.01)
        (subset,), peak = traced_peak(train_family, ds, pt, (0.5,), 3)
        assert len(subset) < 0.2 * len(ds)
        assert peak <= 20 * len(ds)


class TestConfig:
    def test_empty_threshold_lists_are_rejected(self):
        # Self-sampled training (sste, resampled or not) needs train thresholds.
        with pytest.raises(ValidationError):
            RunConfig(objective="sste", epsilon_val=(0.5,))
        with pytest.raises(ValidationError):
            RunConfig(objective="naive", resample_each_epoch=True)

    def test_out_of_range_threshold_is_rejected(self):
        # A run's thresholds are checked where they enter, not per draw.
        with pytest.raises(ValidationError, match="epsilon_train"):
            RunConfig(objective="sste", epsilon_train=(1.2,))
        with pytest.raises(ValidationError, match="epsilon_val"):
            RunConfig(epsilon_val=(0.5, -0.1))

    def test_lists_are_normalized_to_tuples(self):
        cfg = RunConfig(objective="sste", epsilon_train=[0.5], epsilon_val=[0.4])
        assert cfg.epsilon_train == (0.5,)
        assert cfg.epsilon_val == (0.4,)
