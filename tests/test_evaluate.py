"""Ranking metrics, cross-set disagreement, and the self-evaluation report."""

import io
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sste.errors import (
    DivisionGuardError,
    MetricUndefinedError,
    ValidationError,
)
from sste.evaluate import (
    EvalReport,
    RankedList,
    alpha,
    auc_scores,
    build_ranked_lists,
    modified_score,
    per_mille,
    topk_metrics,
)
from sste.experiment import RunConfig, build_datasets, train_model

from reference import alpha_range, auc_bruteforce, dcg_binary, make_dataset

score_lists = st.lists(
    st.floats(min_value=-100, max_value=100, allow_nan=False), min_size=1,
    max_size=6,
)


class TestAuc:
    def test_perfect_separation(self):
        assert auc_scores(np.array([0.9, 0.8, 0.2, 0.1]),
                          np.array([1, 1, 0, 0])) == 1.0

    def test_perfectly_wrong(self):
        assert auc_scores(np.array([0.1, 0.9]), np.array([1, 0])) == 0.0

    def test_all_tied_is_half(self):
        assert auc_scores(np.array([0.4, 0.4, 0.4]),
                          np.array([1, 0, 1])) == 0.5

    def test_four_point_example(self):
        assert auc_scores(np.array([0.9, 0.8, 0.7, 0.1]),
                          np.array([1, 0, 1, 0])) == 0.75

    def test_single_class_is_undefined(self):
        with pytest.raises(MetricUndefinedError):
            auc_scores(np.array([0.3, 0.8]), np.array([1, 1]))

    def test_empty_input_is_undefined(self):
        with pytest.raises(MetricUndefinedError):
            auc_scores(np.array([]), np.array([], dtype=np.int64))

    def test_nonfinite_predictions_are_rejected(self):
        with pytest.raises(ValidationError):
            auc_scores(np.array([np.nan, 0.2]), np.array([1, 0]))

    def test_misaligned_shapes_are_rejected(self):
        with pytest.raises(ValidationError):
            auc_scores(np.array([0.1, 0.2]), np.array([1]))

    @given(st.lists(
        st.tuples(
            st.floats(min_value=-50, max_value=50, allow_nan=False),
            st.integers(min_value=0, max_value=1),
        ),
        min_size=2, max_size=60,
    ))
    @settings(max_examples=120)
    def test_matches_pair_counting(self, pairs):
        labels = [y for _, y in pairs]
        if 0 not in labels or 1 not in labels:
            return
        preds = np.array([p for p, _ in pairs])
        labels = np.array(labels)
        fast = auc_scores(preds, labels)
        slow = auc_bruteforce(preds, labels)
        assert fast == pytest.approx(slow, abs=1e-12)

    @given(st.lists(
        st.tuples(
            # Kept on a coarse lattice so exp() cannot collapse distinct
            # scores into a float tie.
            st.integers(min_value=-5000, max_value=5000),
            st.integers(min_value=0, max_value=1),
        ),
        min_size=2, max_size=40,
    ))
    @settings(max_examples=60)
    def test_invariant_to_monotone_transforms(self, pairs):
        labels = [y for _, y in pairs]
        if 0 not in labels or 1 not in labels:
            return
        preds = np.array([p for p, _ in pairs]) / 1000.0
        labels = np.array(labels)
        base = auc_scores(preds, labels)
        assert auc_scores(3.0 * preds + 2.0, labels) == pytest.approx(base)
        assert auc_scores(np.exp(preds), labels) == pytest.approx(base)


class TestRankedList:
    def test_duplicate_candidates_are_rejected(self):
        with pytest.raises(ValidationError):
            RankedList(user=0, ranked_items=[1, 1, 2], relevant=[1])

    def test_relevant_outside_candidates_is_rejected(self):
        with pytest.raises(ValidationError):
            RankedList(user=0, ranked_items=[1, 2], relevant=[3])

    def test_empty_relevant_set_is_rejected(self):
        with pytest.raises(ValidationError):
            RankedList(user=0, ranked_items=[1, 2], relevant=[])


class TestTopkMetrics:
    def test_single_relevant_ranked_first(self):
        rl = RankedList(user=0, ranked_items=list(range(60)), relevant=[0])
        out = topk_metrics([rl])
        assert out["p@5"] == pytest.approx(0.2)
        assert out["r@5"] == 1.0
        assert out["ndcg@50"] == 1.0

    def test_relevant_below_the_ndcg_cut_scores_zero(self):
        rl = RankedList(user=0, ranked_items=list(range(60)), relevant=[59])
        out = topk_metrics([rl])
        assert out["ndcg@50"] == 0.0
        assert out["p@10"] == 0.0

    def test_two_relevant_at_ranks_one_and_three(self):
        rl = RankedList(user=0, ranked_items=list(range(60)),
                        relevant=[0, 2])
        out = topk_metrics([rl])
        expected = dcg_binary([1, 0, 1]) / dcg_binary([1, 1])
        assert out["ndcg@50"] == pytest.approx(expected, abs=1e-9)
        assert out["ndcg@50"] == pytest.approx(0.9197207891481876, abs=1e-9)
        assert out["p@5"] == pytest.approx(0.4)
        assert out["r@5"] == 1.0

    def test_metrics_macro_average_over_users(self):
        first = RankedList(user=0, ranked_items=list(range(60)), relevant=[0])
        last = RankedList(user=1, ranked_items=list(range(60)), relevant=[59])
        out = topk_metrics([first, last])
        assert out["ndcg@50"] == pytest.approx(0.5)
        assert out["r@10"] == pytest.approx(0.5)

    def test_empty_user_set_is_undefined(self):
        with pytest.raises(MetricUndefinedError):
            topk_metrics([])

    @given(st.data())
    @settings(max_examples=40)
    def test_all_metrics_stay_in_the_unit_interval(self, data):
        n = data.draw(st.integers(min_value=12, max_value=60))
        n_rel = data.draw(st.integers(min_value=1, max_value=n))
        perm = np.random.default_rng(
            data.draw(st.integers(min_value=0, max_value=10**6))
        ).permutation(n)
        rl = RankedList(user=0, ranked_items=perm, relevant=perm[:n_rel])
        out = topk_metrics([rl])
        for value in out.values():
            # One ulp of slack: the DCG and ideal-DCG sums group terms
            # differently under pairwise summation.
            assert -1e-12 <= value <= 1.0 + 1e-12

    def test_recall_hits_one_when_everything_relevant_is_on_top(self):
        rl = RankedList(user=0, ranked_items=list(range(30)),
                        relevant=[0, 1, 2])
        out = topk_metrics([rl], ks=(5,))
        assert out["r@5"] == 1.0


class TestBuildRankedLists:
    def score_fn(self, users, items):
        # Higher score for lower item id, with an exact tie between 2 and 3.
        scores = -items.astype(np.float64)
        scores[items == 2] = -3.0
        return scores

    def test_candidates_are_the_full_vocabulary_without_exclusions(self):
        test = make_dataset([0, 0], [1, 4], [1, 0], 1, 6)
        lists = build_ranked_lists(self.score_fn, test)
        assert len(lists) == 1
        assert set(lists[0].ranked_items.tolist()) == set(range(6))
        assert lists[0].relevant.tolist() == [1]

    def test_training_positives_are_excluded(self):
        train = make_dataset([0, 0], [0, 1], [1, 1], 1, 6)
        test = make_dataset([0, 0], [1, 5], [1, 1], 1, 6)
        lists = build_ranked_lists(self.score_fn, test, exclude=train)
        assert 0 not in lists[0].ranked_items
        assert 1 not in lists[0].ranked_items
        assert lists[0].relevant.tolist() == [5]

    def test_negative_training_rows_are_not_excluded(self):
        train = make_dataset([0], [0], [0], 1, 4)
        test = make_dataset([0], [2], [1], 1, 4)
        lists = build_ranked_lists(self.score_fn, test, exclude=train)
        assert 0 in lists[0].ranked_items

    def test_users_with_no_surviving_relevant_items_are_dropped(self):
        train = make_dataset([0], [1], [1], 1, 4)
        test = make_dataset([0, 1], [1, 2], [1, 1], 2, 4)
        lists = build_ranked_lists(self.score_fn, test, exclude=train)
        assert [rl.user for rl in lists] == [1]

    def test_ties_rank_the_smaller_item_first(self):
        test = make_dataset([0], [0], [1], 1, 6)
        lists = build_ranked_lists(self.score_fn, test)
        ranked = lists[0].ranked_items.tolist()
        assert ranked.index(2) < ranked.index(3)

    def test_mismatched_vocabulary_is_rejected(self):
        train = make_dataset([0], [0], [1], 1, 3)
        test = make_dataset([0], [0], [1], 1, 4)
        with pytest.raises(ValidationError):
            build_ranked_lists(self.score_fn, test, exclude=train)


class TestAlpha:
    def test_single_matching_aux_gives_zero(self):
        assert alpha(0.8, [0.8]) == 0.0

    def test_single_aux_is_the_absolute_gap(self):
        assert alpha(0.8, [0.75]) == pytest.approx(0.05)

    def test_two_aux_scores_straddling_val(self):
        assert alpha(0.8, [0.7, 0.9]) == pytest.approx(0.2)

    def test_no_aux_scores_means_zero(self):
        assert alpha(0.8, []) == 0.0

    def test_nonfinite_scores_are_rejected(self):
        with pytest.raises(ValidationError):
            alpha(np.nan, [0.5])
        with pytest.raises(ValidationError):
            alpha(0.5, [np.inf])

    @given(st.floats(min_value=-100, max_value=100, allow_nan=False),
           score_lists)
    @settings(max_examples=120)
    def test_equals_the_pooled_range(self, val, aux):
        assert alpha(val, aux) == pytest.approx(alpha_range(val, aux),
                                                abs=1e-12)

    @given(st.floats(min_value=-10, max_value=10, allow_nan=False),
           score_lists)
    @settings(max_examples=60)
    def test_symmetric_under_aux_permutation(self, val, aux):
        assert alpha(val, aux) == alpha(val, list(reversed(aux)))


class TestModifiedScore:
    def test_penalizes_higher_better_scores(self):
        assert modified_score(0.8, 0.05) == pytest.approx(0.75)

    def test_zero_alpha_is_the_identity(self):
        assert modified_score(0.61, 0.0) == 0.61

    def test_negative_alpha_is_rejected(self):
        with pytest.raises(ValidationError):
            modified_score(0.5, -0.01)

    @given(st.floats(min_value=-10, max_value=10, allow_nan=False),
           st.floats(min_value=0, max_value=5, allow_nan=False))
    def test_never_exceeds_the_raw_score(self, val, a):
        assert modified_score(val, a) <= val


class TestPerMille:
    def test_five_in_a_thousand(self):
        assert per_mille(5, 1000) == 5.0

    def test_zero_numerator(self):
        assert per_mille(0, 10) == 0.0

    def test_fractional_rate(self):
        assert per_mille(123.45, 1000) == pytest.approx(123.45)

    def test_zero_impressions_is_guarded(self):
        with pytest.raises(DivisionGuardError):
            per_mille(5, 0)


class TestEvalReport:
    def test_from_scores_computes_alpha_and_modified(self):
        report = EvalReport(0.8, [0.7, 0.9])
        assert report.scores_on_aux == (0.7, 0.9)
        assert report.alpha == pytest.approx(0.2)
        assert report.modified_score == pytest.approx(0.6)

    def test_empty_aux_keeps_the_raw_score(self):
        report = EvalReport(0.66, [])
        assert report.alpha == 0.0
        assert report.modified_score == 0.66

    def test_tampered_alpha_is_rejected(self):
        with pytest.raises(TypeError):
            EvalReport(score_on_val=0.8, scores_on_aux=(0.7,), alpha=0.5)

    def test_inconsistent_modified_score_is_rejected(self):
        with pytest.raises(TypeError):
            EvalReport(score_on_val=0.8, scores_on_aux=(0.7,),
                       modified_score=0.75)

    def test_to_dict_round_trips_the_fields(self):
        # Each epochs.jsonl line carries its epoch's report fields unchanged.
        cfg = RunConfig(n_users=30, n_items=20, latent_dim=4,
                        train_impressions=1500, test_impressions=600,
                        objective="sste", epsilon_train=(0.5,),
                        epsilon_val=(0.5, 0.8), max_epochs=2, patience=2)
        train, val, _ = build_datasets(cfg)
        log = io.StringIO()
        _, state = train_model(cfg, train, val, log)
        lines = [json.loads(line) for line in log.getvalue().splitlines()]
        assert len(lines) == len(state.history) == 2
        for line, report in zip(lines, state.history):
            assert len(report.scores_on_aux) == 2
            assert line["val_score"] == report.score_on_val
            assert line["aux_scores"] == list(report.scores_on_aux)
            assert line["alpha"] == report.alpha
            assert line["modified_score"] == report.modified_score
