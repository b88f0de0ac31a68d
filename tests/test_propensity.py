"""Popularity propensity estimation, inverse sampling probabilities, and the
truncation rule that the auxiliary draw tests against (``reference.truncate``)."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from sste.errors import ValidationError
from sste.propensity import (
    PropensityTable,
    check_settings,
    estimate_popularity_propensity,
    sampling_probabilities,
    save_table,
)

from reference import make_dataset, truncate

# The least float64 whose inverse is finite: the next one down overflows.
SMALLEST_FLOOR = float(np.nextafter(1.0 / np.finfo(np.float64).max, 1.0))


def dataset_with_item_counts(counts):
    items = np.repeat(np.arange(len(counts)), counts)
    n = len(items)
    return make_dataset(np.zeros(n, dtype=np.int64), items,
                        np.ones(n, dtype=np.int8), 1, len(counts))


class TestEstimate:
    def test_four_to_one_counts_at_half_gamma(self):
        ds = dataset_with_item_counts([4, 1])
        table = estimate_popularity_propensity(ds, gamma=0.5, floor=0.01)
        assert table.per_item_propensity.tolist() == [1.0, 0.5]

    def test_gamma_zero_flattens_everything(self):
        ds = dataset_with_item_counts([9, 3, 1])
        table = estimate_popularity_propensity(ds, gamma=0.0, floor=0.01)
        assert table.per_item_propensity.tolist() == [1.0, 1.0, 1.0]

    def test_floor_clips_rare_items(self):
        ds = dataset_with_item_counts([100, 1])
        table = estimate_popularity_propensity(ds, gamma=1.0, floor=0.05)
        assert table.per_item_propensity.tolist() == [1.0, 0.05]

    def test_unseen_item_gets_floor(self):
        ds = make_dataset([0, 0], [0, 2], [1, 1], 1, 3)
        table = estimate_popularity_propensity(ds, gamma=1.0, floor=0.01)
        assert table.per_item_propensity[1] == 0.01

    def test_most_frequent_item_is_exactly_one(self):
        ds = dataset_with_item_counts([7, 3, 2])
        table = estimate_popularity_propensity(ds, gamma=0.7, floor=0.01)
        assert table.per_item_propensity.max() == 1.0

    def test_empty_dataset_is_rejected(self):
        ds = make_dataset([], [], [], 1, 1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match="^cannot estimate propensities "
                                                      "from an empty dataset$"):
                estimate_popularity_propensity(ds)

    @given(
        st.lists(st.integers(min_value=1, max_value=50), min_size=2,
                 max_size=12),
        st.floats(min_value=0.1, max_value=3.0),
    )
    @settings(max_examples=60)
    def test_propensity_orders_like_counts(self, counts, gamma):
        ds = dataset_with_item_counts(counts)
        table = estimate_popularity_propensity(ds, gamma=gamma, floor=1e-6)
        values = table.per_item_propensity
        for a in range(len(counts)):
            for b in range(len(counts)):
                if counts[a] > counts[b]:
                    assert values[a] >= values[b]


class TestCheckSettings:
    """The gamma and floor checks that ``RunConfig`` and the propensity
    commands make before ``estimate_popularity_propensity`` runs."""

    @pytest.mark.parametrize("gamma, floor, name", [
        (-1.0, 0.01, "gamma"), (math.nan, 0.01, "gamma"),
        (0.5, 0.0, "floor"), (0.5, math.nan, "floor"), (0.5, 1.5, "floor"),
    ])
    def test_bad_gamma_and_floor_are_rejected(self, gamma, floor, name):
        with pytest.raises(ValidationError, match=f"^{name} must "):
            check_settings(gamma, floor)

    def test_a_floor_whose_inverse_overflows_is_rejected(self):
        ds = dataset_with_item_counts([50, 1])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for floor in (1e-310, SMALLEST_FLOOR / 2, np.nextafter(SMALLEST_FLOOR, 0.0)):
                with pytest.raises(ValidationError, match=r"^floor must lie in \(0,1\] "
                                                          r"with a finite inverse, got "):
                    check_settings(1000.0, float(floor))
            for floor in (1e-300, SMALLEST_FLOOR):
                check_settings(1000.0, floor)
                table = estimate_popularity_propensity(ds, gamma=1000.0, floor=floor)
                assert table.per_item_propensity.tolist() == [1.0, floor]


class TestTableValidation:
    def test_max_below_one_is_rejected(self):
        with pytest.raises(ValidationError):
            PropensityTable(np.array([0.9, 0.5]))

    def test_value_outside_zero_one_is_rejected(self):
        for values in ([1.0, 0.0], [1.0, -0.5], [1.5, 1.0], [1.0, math.nan], [1.0, 1e-310]):
            with pytest.raises(ValidationError, match=r"\(0,1\]"):
                PropensityTable(np.array(values))

    def test_empty_vector_is_rejected(self):
        with pytest.raises(ValidationError):
            PropensityTable(np.array([]))


class TestSamplingProbabilities:
    def test_inverse_is_max_normalized(self):
        ds = make_dataset([0, 0], [0, 1], [1, 1], 1, 2)
        table = PropensityTable(np.array([1.0, 0.5]))
        probs = sampling_probabilities(ds, table)
        assert probs.tolist() == [0.5, 1.0]

    def test_equal_propensities_give_all_ones(self):
        ds = make_dataset([0, 0, 0], [0, 1, 2], [1, 1, 1], 1, 3)
        table = PropensityTable(np.array([1.0, 1.0, 1.0]))
        probs = sampling_probabilities(ds, table)
        assert probs.tolist() == [1.0, 1.0, 1.0]

    def test_three_level_example(self):
        ds = make_dataset([0] * 3, [0, 1, 2], [1] * 3, 1, 3)
        table = PropensityTable(np.array([0.1, 0.2, 1.0]))
        probs = sampling_probabilities(ds, table)
        assert probs == pytest.approx([1.0, 0.5, 0.1])

    def test_rarest_instance_gets_probability_one(self):
        ds = make_dataset([0] * 4, [0, 1, 2, 1], [1] * 4, 1, 3)
        table = estimate_popularity_propensity(ds, gamma=1.0, floor=0.01)
        probs = sampling_probabilities(ds, table)
        assert probs.max() == 1.0

    @given(hnp.arrays(np.float64, st.integers(min_value=1, max_value=20),
                      elements=st.floats(min_value=0.0, max_value=1.0, exclude_min=True)))
    @example(np.array([1.0, SMALLEST_FLOOR]))
    @example(np.array([1.0, SMALLEST_FLOOR, 1e-300, 0.5]))
    @settings(max_examples=200)
    def test_every_table_gives_probabilities_in_zero_one(self, values):
        # PropensityTable's inverse check is what keeps 0 and NaN out.
        values[0] = 1.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if not np.isfinite(1.0 / float(values.min())):
                with pytest.raises(ValidationError, match="finite inverses"):
                    PropensityTable(values)
                return
            ds = dataset_with_item_counts([1] * len(values))
            probs = sampling_probabilities(ds, PropensityTable(values))
        assert probs.min() > 0.0 and probs.max() == 1.0

    def test_uncovered_item_is_rejected(self):
        ds = make_dataset([0], [5], [1], 1, 6)
        table = PropensityTable(np.array([1.0, 0.5]))
        with pytest.raises(IndexError):
            sampling_probabilities(ds, table)

    @given(
        st.lists(st.integers(min_value=1, max_value=30), min_size=2,
                 max_size=10),
        st.floats(min_value=0.1, max_value=2.0),
    )
    @settings(max_examples=60)
    def test_probability_orders_against_counts(self, counts, gamma):
        ds = dataset_with_item_counts(counts)
        table = estimate_popularity_propensity(ds, gamma=gamma, floor=1e-6)
        probs = sampling_probabilities(ds, table)
        item_counts = np.asarray(counts)
        per_row = item_counts[ds.items]
        order = np.argsort(per_row)
        assert np.all(np.diff(probs[order]) <= 1e-12)
        assert 0.0 < probs.min() and probs.max() == 1.0


class TestTruncate:
    """The rule ``selfsample.draw_auxiliary`` applies as a threshold test,
    kept as the oracle of ``test_selfsample``."""

    def test_below_epsilon_is_kept(self):
        out = truncate(np.array([0.3]), epsilon=0.5)
        assert out.tolist() == [0.3]

    def test_at_or_above_epsilon_becomes_one(self):
        out = truncate(np.array([0.7, 0.5]), epsilon=0.5)
        assert out.tolist() == [1.0, 1.0]

    def test_epsilon_zero_forces_everything(self):
        out = truncate(np.array([0.01, 0.4, 1.0]), epsilon=0.0)
        assert out.tolist() == [1.0, 1.0, 1.0]

    def test_epsilon_one_only_touches_exact_ones(self):
        out = truncate(np.array([0.999, 1.0]), epsilon=1.0)
        assert out.tolist() == [0.999, 1.0]

    @given(
        hnp.arrays(np.float64, st.integers(min_value=1, max_value=40),
                   elements=st.floats(min_value=0.001, max_value=1.0)),
        st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(max_examples=80)
    def test_rule_holds_elementwise(self, probs, epsilon):
        out = truncate(probs, epsilon)
        assert out.dtype == np.float64 and out.shape == probs.shape
        for before, after in zip(probs, out):
            if before >= epsilon:
                assert after == 1.0
            else:
                assert after == before < 1.0

    @given(
        hnp.arrays(np.float64, st.integers(min_value=1, max_value=40),
                   elements=st.floats(min_value=0.001, max_value=1.0)),
        st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(max_examples=40)
    def test_truncation_is_idempotent(self, probs, epsilon):
        once = truncate(probs, epsilon)
        assert np.array_equal(once, truncate(once, epsilon))


class TestSaveTable:
    def test_writes_item_value_lines(self, tmp_path):
        table = PropensityTable(np.array([1.0, 0.25]))
        out = tmp_path / "prop.tsv"
        save_table(table, str(out), np.array([100, 205]))
        assert out.read_text().splitlines() == ["100\t1.0", "205\t0.25"]
        with pytest.raises(ValueError):
            save_table(table, str(out), np.array([100]))
