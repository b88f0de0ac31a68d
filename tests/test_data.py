"""Dataset loading, splitting, statistics, and the synthetic generator."""

import collections

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sste.data import (
    DatasetStats,
    Provenance,
    Schema,
    SplitMode,
    SyntheticSpec,
    generate_synthetic,
    load_tsv,
    save_tsv,
    split_ratio,
    stats,
    synthetic_exposure_weights,
)
from sste.errors import DivisionGuardError, ParseError, ValidationError

from reference import make_dataset


def write_lines(path, lines):
    path.write_text("".join(line + "\n" for line in lines))
    return str(path)


def load_rating(tmp_path, rating):
    """The label load_tsv gives one rating row."""
    path = write_lines(tmp_path / "rating.tsv", [f"0\t0\t{rating}"])
    return int(load_tsv(path, Schema.USER_ITEM_RATING).labels[0])


class TestBinarize:
    def test_rating_four_is_positive(self, tmp_path):
        assert load_rating(tmp_path, 4) == 1

    def test_rating_three_is_negative(self, tmp_path):
        assert load_rating(tmp_path, 3) == 0

    @given(st.integers(min_value=1, max_value=5))
    def test_threshold_is_exactly_above_three(self, tmp_path_factory, rating):
        label = load_rating(tmp_path_factory.getbasetemp(), rating)
        assert label == (1 if rating > 3 else 0)


class TestLoadTsv:
    def test_rating_rows_are_binarized(self, tmp_path):
        path = write_lines(tmp_path / "a.tsv", ["1\t7\t4", "1\t7\t3"])
        ds = load_tsv(path, Schema.USER_ITEM_RATING)
        assert ds.labels.tolist() == [1, 0]

    def test_label_schema_passes_labels_through(self, tmp_path):
        path = write_lines(tmp_path / "a.tsv", ["0\t0\t1", "0\t1\t0"])
        ds = load_tsv(path, Schema.USER_ITEM_LABEL)
        assert ds.labels.tolist() == [1, 0]

    def test_ids_are_densified_in_sorted_order(self, tmp_path):
        path = write_lines(tmp_path / "a.tsv", ["10\t30\t4", "3\t20\t2"])
        ds = load_tsv(path, Schema.USER_ITEM_RATING)
        assert ds.user_id_map == {3: 0, 10: 1}
        assert ds.item_id_map == {20: 0, 30: 1}
        assert ds.users.tolist() == [1, 0]
        assert ds.items.tolist() == [1, 0]

    def test_shared_maps_keep_id_space_aligned(self, tmp_path):
        train = write_lines(tmp_path / "tr.tsv", ["5\t9\t4", "6\t8\t1"])
        test = write_lines(tmp_path / "te.tsv", ["6\t9\t5"])
        tr = load_tsv(train, Schema.USER_ITEM_RATING)
        te = load_tsv(
            test,
            Schema.USER_ITEM_RATING,
            provenance=Provenance.UNIFORM_TEST,
            user_map=tr.user_id_map,
            item_map=tr.item_id_map,
        )
        assert te.users.tolist() == [1]
        assert te.items.tolist() == [1]
        assert te.n_users == tr.n_users
        assert te.n_items == tr.n_items

    def test_unknown_id_under_shared_map_is_rejected(self, tmp_path):
        train = write_lines(tmp_path / "tr.tsv", ["5\t9\t4"])
        test = write_lines(tmp_path / "te.tsv", ["77\t9\t5"])
        tr = load_tsv(train, Schema.USER_ITEM_RATING)
        with pytest.raises(ValidationError):
            load_tsv(
                test,
                Schema.USER_ITEM_RATING,
                user_map=tr.user_id_map,
                item_map=tr.item_id_map,
            )

    def test_blank_lines_are_skipped(self, tmp_path):
        path = write_lines(tmp_path / "a.tsv", ["1\t1\t4", "", "2\t2\t1"])
        ds = load_tsv(path, Schema.USER_ITEM_RATING)
        assert len(ds) == 2

    def test_wrong_column_count_reports_line_number(self, tmp_path):
        path = write_lines(tmp_path / "a.tsv", ["1\t1\t4", "2\t2"])
        with pytest.raises(ParseError, match="line 2"):
            load_tsv(path, Schema.USER_ITEM_RATING)

    def test_non_integer_field_reports_line_number(self, tmp_path):
        path = write_lines(tmp_path / "a.tsv", ["1\tx\t4"])
        with pytest.raises(ParseError, match="line 1"):
            load_tsv(path, Schema.USER_ITEM_RATING)

    def test_rating_out_of_range_is_rejected(self, tmp_path):
        path = write_lines(tmp_path / "a.tsv", ["1\t1\t6"])
        with pytest.raises(ParseError, match="line 1"):
            load_tsv(path, Schema.USER_ITEM_RATING)

    def test_label_out_of_range_is_rejected(self, tmp_path):
        path = write_lines(tmp_path / "a.tsv", ["1\t1\t2"])
        with pytest.raises(ParseError, match="line 1"):
            load_tsv(path, Schema.USER_ITEM_LABEL)

    def test_empty_file_is_rejected(self, tmp_path):
        path = write_lines(tmp_path / "a.tsv", [])
        with pytest.raises(ValidationError):
            load_tsv(path, Schema.USER_ITEM_RATING)


class TestSaveTsv:
    def test_round_trip_preserves_original_ids(self, tmp_path):
        src = write_lines(tmp_path / "a.tsv", ["10\t30\t4", "3\t20\t2"])
        ds = load_tsv(src, Schema.USER_ITEM_RATING)
        out = tmp_path / "b.tsv"
        save_tsv(ds, str(out))
        rows = [line.split("\t") for line in out.read_text().splitlines()]
        assert rows == [["10", "30", "1"], ["3", "20", "0"]]

    def test_round_trip_reload_matches(self, tmp_path):
        src = write_lines(tmp_path / "a.tsv", ["10\t30\t4", "3\t20\t2", "10\t20\t5"])
        ds = load_tsv(src, Schema.USER_ITEM_RATING)
        out = tmp_path / "b.tsv"
        save_tsv(ds, str(out))
        back = load_tsv(str(out), Schema.USER_ITEM_LABEL,
                        user_map=ds.user_id_map, item_map=ds.item_id_map)
        assert np.array_equal(back.users, ds.users)
        assert np.array_equal(back.items, ds.items)
        assert np.array_equal(back.labels, ds.labels)


class TestDatasetValidation:
    def test_user_id_out_of_range(self):
        with pytest.raises(ValidationError):
            make_dataset([0, 5], [0, 0], [1, 0], n_users=2, n_items=1)

    def test_negative_item_id(self):
        with pytest.raises(ValidationError):
            make_dataset([0], [-1], [1], n_users=1, n_items=1)

    def test_label_must_be_binary(self):
        with pytest.raises(ValidationError):
            make_dataset([0], [0], [2], n_users=1, n_items=1)

    def test_auxiliary_requires_draw_parameters(self):
        with pytest.raises(ValidationError):
            make_dataset([0], [0], [1], 1, 1,
                         provenance=Provenance.AUXILIARY_SUBSET)

    def test_columns_are_read_only(self):
        ds = make_dataset([0], [0], [1], 1, 1)
        with pytest.raises((ValueError, RuntimeError)):
            ds.users[0] = 3

    def test_iteration_yields_interactions(self, tmp_path):
        path = write_lines(tmp_path / "a.tsv", ["0\t1\t5", "1\t0\t2"])
        ds = load_tsv(path, Schema.USER_ITEM_RATING)
        rows = list(zip(ds.users.tolist(), ds.items.tolist(),
                        ds.labels.tolist(), ds.raw_ratings.tolist()))
        assert rows == [(0, 1, 1, 5), (1, 0, 0, 2)]

    def test_take_preserves_row_content(self):
        ds = make_dataset([0, 1, 2], [2, 1, 0], [1, 0, 1], 3, 3)
        sub = ds.take(np.array([2, 0]), Provenance.AUXILIARY_SUBSET,
                      rng_seed=9, epsilon=0.5)
        assert sub.users.tolist() == [2, 0]
        assert sub.items.tolist() == [0, 2]
        assert sub.labels.tolist() == [1, 1]
        assert sub.provenance is Provenance.AUXILIARY_SUBSET
        assert sub.rng_seed == 9


class TestSplit:
    def test_per_user_eight_two(self):
        ds = make_dataset([0] * 10, list(range(10)), [1] * 10, 1, 10)
        first, second = split_ratio(ds, 0.8, SplitMode.PER_USER_RANDOM, seed=1)
        assert len(first) == 8
        assert len(second) == 2

    def test_per_user_floor_rounding(self):
        ds = make_dataset([0] * 5, list(range(5)), [1] * 5, 1, 5)
        first, second = split_ratio(ds, 0.5, SplitMode.PER_USER_RANDOM, seed=0)
        assert len(first) == 2
        assert len(second) == 3

    def test_singleton_user_goes_to_first_split(self):
        ds = make_dataset([0, 1, 1], [0, 0, 1], [1, 1, 0], 2, 2)
        first, second = split_ratio(ds, 0.5, SplitMode.PER_USER_RANDOM, seed=3)
        assert 0 in first.users.tolist()
        assert 0 not in second.users.tolist()

    def test_chronological_takes_leading_rows(self):
        ds = make_dataset(list(range(10)), [0] * 10, [1] * 10, 10, 1)
        first, second = split_ratio(ds, 0.75, SplitMode.CHRONOLOGICAL, seed=0)
        assert first.users.tolist() == list(range(8))
        assert second.users.tolist() == [8, 9]

    def test_chronological_ignores_seed(self):
        ds = make_dataset(list(range(6)), [0] * 6, [1] * 6, 6, 1)
        a, _ = split_ratio(ds, 0.5, SplitMode.CHRONOLOGICAL, seed=1)
        b, _ = split_ratio(ds, 0.5, SplitMode.CHRONOLOGICAL, seed=2)
        assert a.users.tolist() == b.users.tolist()

    def test_same_seed_reproduces_split(self):
        rng = np.random.default_rng(0)
        ds = make_dataset(rng.integers(0, 20, 200), rng.integers(0, 30, 200),
                          rng.integers(0, 2, 200), 20, 30)
        a1, b1 = split_ratio(ds, 0.8, SplitMode.PER_USER_RANDOM, seed=11)
        a2, b2 = split_ratio(ds, 0.8, SplitMode.PER_USER_RANDOM, seed=11)
        assert np.array_equal(a1.items, a2.items)
        assert np.array_equal(b1.items, b2.items)

    def test_ratio_bounds_are_enforced(self):
        ds = make_dataset([0], [0], [1], 1, 1)
        for bad in (0.0, 1.0, -0.1, 1.5):
            with pytest.raises(ValidationError):
                split_ratio(ds, bad, SplitMode.PER_USER_RANDOM, seed=0)

    @given(st.integers(min_value=0, max_value=2**32 - 1),
           st.integers(min_value=2, max_value=60))
    @settings(max_examples=40)
    def test_splits_partition_the_rows(self, seed, n):
        rng = np.random.default_rng(seed)
        users = rng.integers(0, 8, n)
        items = rng.integers(0, 9, n)
        labels = rng.integers(0, 2, n)
        ds = make_dataset(users, items, labels, 8, 9)
        first, second = split_ratio(ds, 0.8, SplitMode.PER_USER_RANDOM,
                                    seed=seed)
        assert len(first) + len(second) == n
        combined = collections.Counter(
            (int(u), int(i), int(y))
            for part in (first, second)
            for u, i, y in zip(part.users, part.items, part.labels)
        )
        original = collections.Counter(
            (int(u), int(i), int(y)) for u, i, y in zip(users, items, labels)
        )
        assert combined == original


class TestStats:
    def test_counts_and_ratio(self):
        ds = make_dataset([0, 0, 1], [0, 1, 0], [1, 0, 1], 2, 2)
        s = stats(ds)
        assert s == DatasetStats(n_feedback=3, pn_ratio_percent=200.0,
                                 n_users=2, n_items=2)

    def test_ratio_is_positives_per_hundred_negatives(self):
        ds = make_dataset([0] * 167, list(range(167)),
                          [1] * 67 + [0] * 100, 1, 167)
        assert stats(ds).pn_ratio_percent == pytest.approx(67.0)

    def test_no_positives_gives_zero_ratio(self):
        ds = make_dataset([0], [0], [0], 1, 1)
        assert stats(ds).pn_ratio_percent == 0.0

    def test_no_negatives_is_guarded(self):
        ds = make_dataset([0], [0], [1], 1, 1)
        with pytest.raises(DivisionGuardError):
            stats(ds)


class TestSyntheticSpec:
    def test_rejects_latent_dim_larger_than_sides(self):
        with pytest.raises(ValidationError):
            small_spec(n_users=4, n_items=3, latent_dim=5)

    def test_rejects_threshold_outside_unit_interval(self):
        with pytest.raises(ValidationError):
            small_spec(positive_threshold=1.0)

    def test_rejects_negative_bias(self):
        with pytest.raises(ValidationError):
            small_spec(exposure_bias_strength=-1.0)


def small_spec(**overrides):
    base = dict(n_users=40, n_items=25, latent_dim=4,
                exposure_bias_strength=1.5, positive_threshold=0.3,
                train_impressions=1200, test_impressions=800, seed=5)
    base.update(overrides)
    return SyntheticSpec(**base)


class TestGenerateSynthetic:
    def test_shapes_and_provenances(self):
        train, val, test, relevance = generate_synthetic(small_spec())
        assert len(train) + len(val) == 1200
        assert len(test) == 800
        assert train.provenance is Provenance.BIASED_TRAIN
        assert val.provenance is Provenance.BIASED_VALIDATION
        assert test.provenance is Provenance.UNIFORM_TEST
        assert relevance.shape == (40, 25)
        assert np.all(relevance > 0) and np.all(relevance < 1)

    def test_biased_pool_splits_eight_to_two(self):
        _, val, _, _ = generate_synthetic(small_spec(train_impressions=1000))
        assert len(val) == pytest.approx(200, abs=25)

    def test_same_seed_is_bitwise_identical(self):
        a_train, _, a_test, a_rel = generate_synthetic(small_spec())
        b_train, _, b_test, b_rel = generate_synthetic(small_spec())
        assert np.array_equal(a_train.items, b_train.items)
        assert np.array_equal(a_test.labels, b_test.labels)
        assert np.array_equal(a_rel, b_rel)

    def test_different_seed_changes_draws(self):
        a_train, _, _, _ = generate_synthetic(small_spec(seed=5))
        b_train, _, _, _ = generate_synthetic(small_spec(seed=6))
        assert not np.array_equal(a_train.items, b_train.items)

    def test_zero_bias_exposure_is_uniform(self):
        spec = small_spec(exposure_bias_strength=0.0,
                          train_impressions=30000, test_impressions=100)
        train, val, _, _ = generate_synthetic(spec)
        counts = np.bincount(train.items, minlength=spec.n_items)
        counts = counts + np.bincount(val.items, minlength=spec.n_items)
        expected = 30000 / spec.n_items
        chi2 = float(((counts - expected) ** 2 / expected).sum())
        # 99.9th percentile of chi-square with 24 degrees of freedom.
        assert chi2 < 51.18

    def test_bias_concentrates_exposure_on_popular_items(self):
        spec = small_spec(train_impressions=20000)
        _, weights = synthetic_exposure_weights(spec)
        train, val, _, _ = generate_synthetic(spec)
        counts = np.bincount(train.items, minlength=spec.n_items)
        counts = counts + np.bincount(val.items, minlength=spec.n_items)
        top = np.argsort(-weights)[:5]
        assert counts[top].sum() > 0.5 * counts.sum()

    def test_exposure_frequencies_track_powered_popularity(self):
        from scipy import stats as scipy_stats

        # Enough draws that every item's empirical frequency is resolved;
        # the flat end of the popularity curve ties up at smaller samples.
        spec = SyntheticSpec(
            n_users=500, n_items=100, latent_dim=8,
            exposure_bias_strength=1.5, positive_threshold=0.25,
            train_impressions=200000, test_impressions=100, seed=7,
        )
        popularity, _ = synthetic_exposure_weights(spec)
        train, val, _, _ = generate_synthetic(spec)
        counts = np.bincount(train.items, minlength=spec.n_items)
        counts = counts + np.bincount(val.items, minlength=spec.n_items)
        rho = scipy_stats.spearmanr(counts, popularity ** 1.5).statistic
        assert rho > 0.95

    def test_test_items_stay_uniform_under_bias(self):
        spec = small_spec(test_impressions=30000)
        _, _, test, _ = generate_synthetic(spec)
        counts = np.bincount(test.items, minlength=spec.n_items)
        expected = 30000 / spec.n_items
        chi2 = float(((counts - expected) ** 2 / expected).sum())
        assert chi2 < 51.18

    def test_labels_follow_relevance(self):
        spec = small_spec(train_impressions=40000)
        train, val, _, relevance = generate_synthetic(spec)
        users = np.concatenate([train.users, val.users])
        items = np.concatenate([train.items, val.items])
        labels = np.concatenate([train.labels, val.labels])
        probs = relevance[users, items]
        # Mean label matches mean relevance over the drawn impressions.
        assert abs(labels.mean() - probs.mean()) < 0.01
