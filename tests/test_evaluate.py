"""Ranking metrics, cross-set disagreement, and the self-evaluation report."""

import io
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sste import evaluate
from sste.errors import MetricUndefinedError, ValidationError
from sste.evaluate import (
    PAIR_BUDGET,
    EvalReport,
    alpha,
    auc_scores,
    build_ranked_lists,
    topk_metrics,
)
from sste.experiment import RunConfig, build_datasets, train_model
from sste.model import Branch, init

from reference import (
    RankedList,
    alpha_range,
    auc_bruteforce,
    auc_rank_sum,
    dcg_binary,
    make_dataset,
    positives_by_user,
    ranked_lists_by_user,
    topk_by_user,
)

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

    @given(
        # A small grid makes ties common, -0.0 and 0.0 among them.
        scores=st.lists(st.one_of(st.sampled_from([-0.0, 0.0, 0.5, -1.5, 1e-300, 2.0]),
                                  st.floats(-10, 10)), min_size=2, max_size=300),
        data=st.data(),
        dtype=st.sampled_from([np.int8, np.int64, np.float64]),
    )
    @settings(max_examples=300)
    def test_equals_the_rank_sum_bit_for_bit(self, scores, data, dtype):
        labels = data.draw(st.lists(st.integers(0, 1), min_size=len(scores),
                                    max_size=len(scores)).filter(lambda y: 0 < sum(y) < len(y)))
        preds, labels = np.array(scores), np.array(labels, dtype=dtype)
        assert auc_scores(preds, labels).hex() == auc_rank_sum(preds, labels).hex()

    # 60k distinct predictions: the rank-sum form peaked at 3.90 MB at every
    # rate; the two sorted classes and one searchsorted result of the
    # positives' length peak at 0.60, 0.78 and 1.00 MB.
    @pytest.mark.parametrize("positive_rate", [0.05, 0.5, 0.95])
    def test_peak_memory_of_60k_predictions(self, traced_peak, positive_rate):
        rng = np.random.default_rng(7)
        preds = rng.random(60_000)
        labels = (rng.random(60_000) < positive_rate).astype(np.int8)
        got, peak = traced_peak(auc_scores, preds, labels)
        assert got.hex() == auc_rank_sum(preds, labels).hex()
        assert peak < 24 * len(preds)


def by_item_id(n_items, n_users=1):
    """Score table that ranks every user's items in ascending id order."""
    return np.tile(-np.arange(n_items, dtype=np.float64), (n_users, 1))


def rows_of(table):
    """The row scorer of a (users, items) score table."""
    return lambda block: table[block]


def ranked_metrics(relevant_by_user, n_items, item_scores=None, ks=(5, 10), ndcg_k=50):
    """Top-K metrics through the evaluator for a test set holding exactly
    the given positives (user -> relevant item ids), every user ranking the
    items by ``item_scores`` (by default in ascending id order)."""
    pairs = [(u, i) for u, items in relevant_by_user.items() for i in items]
    n_users = max(relevant_by_user) + 1
    test = make_dataset([u for u, _ in pairs], [i for _, i in pairs], [1] * len(pairs),
                        n_users, n_items)
    if item_scores is None:
        item_scores = by_item_id(n_items)[0]
    table = np.tile(item_scores, (n_users, 1))
    ranked = build_ranked_lists(rows_of(table), test, depth=max((*ks, ndcg_k)))
    return topk_metrics(ranked, ks, ndcg_k)


class TestTopkMetrics:
    def test_single_relevant_ranked_first(self):
        out = ranked_metrics({0: [0]}, 60)
        assert out["p@5"] == pytest.approx(0.2)
        assert out["r@5"] == 1.0
        assert out["ndcg@50"] == 1.0

    def test_relevant_below_the_ndcg_cut_scores_zero(self):
        out = ranked_metrics({0: [59]}, 60)
        assert out["ndcg@50"] == 0.0
        assert out["p@10"] == 0.0

    def test_two_relevant_at_ranks_one_and_three(self):
        out = ranked_metrics({0: [0, 2]}, 60)
        expected = dcg_binary([1, 0, 1]) / dcg_binary([1, 1])
        assert out["ndcg@50"] == pytest.approx(expected, abs=1e-9)
        assert out["ndcg@50"] == pytest.approx(0.9197207891481876, abs=1e-9)
        assert out["p@5"] == pytest.approx(0.4)
        assert out["r@5"] == 1.0

    def test_metrics_macro_average_over_users(self):
        out = ranked_metrics({0: [0], 1: [59]}, 60)
        assert out["ndcg@50"] == pytest.approx(0.5)
        assert out["r@10"] == pytest.approx(0.5)

    def test_empty_user_set_is_undefined(self):
        test = make_dataset([0], [1], [0], 1, 6)
        with pytest.raises(MetricUndefinedError):
            topk_metrics(build_ranked_lists(rows_of(by_item_id(6)), test, depth=50), (5, 10), 50)

    def test_a_dataset_without_positives_has_no_positive_keys(self):
        keys = evaluate._positive_keys(make_dataset([0, 1], [2, 0], [0, 0], 2, 3))
        assert keys.dtype == np.int64 and keys.shape == (0,)

    @given(st.data())
    @settings(max_examples=40)
    def test_all_metrics_stay_in_the_unit_interval(self, data):
        n = data.draw(st.integers(min_value=12, max_value=60))
        n_rel = data.draw(st.integers(min_value=1, max_value=n))
        perm = np.random.default_rng(
            data.draw(st.integers(min_value=0, max_value=10**6))
        ).permutation(n)
        position = np.argsort(perm)  # rank perm[0] first
        out = ranked_metrics({0: perm[:n_rel].tolist()}, n, -position.astype(np.float64))
        for value in out.values():
            # One ulp of slack: the DCG and ideal-DCG sums group terms
            # differently under pairwise summation.
            assert -1e-12 <= value <= 1.0 + 1e-12

    def test_recall_hits_one_when_everything_relevant_is_on_top(self):
        out = ranked_metrics({0: [0, 1, 2]}, 30, ks=(5,))
        assert out["r@5"] == 1.0

    def test_a_repeated_cutoff_counts_once(self):
        # A run config may list a cutoff twice; its metrics must not double.
        assert ranked_metrics({0: [0]}, 60, ks=(5, 5)) == ranked_metrics({0: [0]}, 60, ks=(5,))


class TestRankedList:
    """The oracle's per-user list refuses inputs no full ranking can produce."""

    def test_duplicate_candidates_are_rejected(self):
        with pytest.raises(ValidationError):
            RankedList(user=0, ranked_items=[1, 1, 2], relevant=[1])

    def test_relevant_outside_candidates_is_rejected(self):
        with pytest.raises(ValidationError):
            RankedList(user=0, ranked_items=[1, 2], relevant=[3])

    def test_empty_relevant_set_is_rejected(self):
        with pytest.raises(ValidationError):
            RankedList(user=0, ranked_items=[1, 2], relevant=[])


class TestBuildRankedLists:
    @staticmethod
    def scores(n_items, n_users=1):
        # Higher score for lower item id, with an exact tie between 2 and 3.
        table = by_item_id(n_items, n_users)
        table[:, 2] = -3.0
        return rows_of(table)

    def test_candidates_are_the_full_vocabulary_without_exclusions(self):
        test = make_dataset([0, 0], [1, 4], [1, 0], 1, 6)
        ranked = build_ranked_lists(self.scores(6), test, depth=10)
        assert len(ranked) == 1
        assert ranked.n_candidates.tolist() == [6]
        assert ranked.hits[0].tolist() == [False, True, False, False, False, False]
        assert ranked.n_relevant.tolist() == [1]

    def test_training_positives_are_excluded(self):
        train = make_dataset([0, 0], [0, 1], [1, 1], 1, 6)
        test = make_dataset([0, 0], [1, 5], [1, 1], 1, 6)
        ranked = build_ranked_lists(self.scores(6), test, exclude=train, depth=10)
        # Candidates 2, 3, 4, 5 in that order; relevant item 1 is excluded.
        assert ranked.n_candidates.tolist() == [4]
        assert ranked.hits[0].tolist() == [False, False, False, True, False, False]
        assert ranked.n_relevant.tolist() == [1]

    def test_negative_training_rows_are_not_excluded(self):
        train = make_dataset([0], [0], [0], 1, 4)
        test = make_dataset([0], [2], [1], 1, 4)
        ranked = build_ranked_lists(self.scores(4), test, exclude=train, depth=10)
        assert ranked.n_candidates.tolist() == [4]
        assert ranked.hits[0].tolist() == [False, False, True, False]

    def test_users_with_no_surviving_relevant_items_are_dropped(self):
        train = make_dataset([0], [1], [1], 1, 4)
        test = make_dataset([0, 1], [1, 2], [1, 1], 2, 4)
        ranked = build_ranked_lists(self.scores(4, 2), test, exclude=train, depth=10)
        assert ranked.users.tolist() == [1]

    def test_ties_rank_the_smaller_item_first(self):
        # Items 2 and 3 tie; 3 is relevant and ranks right after 2.
        test = make_dataset([0], [3], [1], 1, 6)
        ranked = build_ranked_lists(self.scores(6), test, depth=10)
        assert ranked.hits[0].tolist().index(True) == 3

    def test_only_the_top_depth_items_are_kept(self):
        test = make_dataset([0], [0], [1], 1, 6)
        ranked = build_ranked_lists(self.scores(6), test, depth=3)
        assert ranked.hits.tolist() == [[True, False, False]]

    def test_nonfinite_scores_are_rejected(self):
        test = make_dataset([0], [0], [1], 1, 4)
        with pytest.raises(ValidationError):
            build_ranked_lists(lambda block: np.full((len(block), 4), np.nan), test, depth=10)

    def test_scores_of_the_wrong_shape_are_rejected(self):
        test = make_dataset([0], [0], [1], 1, 4)
        with pytest.raises(ValidationError, match="shape"):
            build_ranked_lists(lambda block: np.zeros(len(block) * 4), test, depth=10)


def random_world(rng, n_users, n_items, n_rows, exclude_share):
    """A test set and a train set (or None) over shared vocabularies, the
    train set holding about ``exclude_share`` of each user's items."""
    test = make_dataset(rng.integers(0, n_users, n_rows), rng.integers(0, n_items, n_rows),
                        rng.integers(0, 2, n_rows), n_users, n_items)
    if exclude_share == 0:
        return test, None
    n_train = int(exclude_share * n_users * n_items)
    train = make_dataset(rng.integers(0, n_users, n_train), rng.integers(0, n_items, n_train),
                         (rng.random(n_train) < 0.9).astype(int), n_users, n_items)
    return test, train


def assert_exact(table, test, train, ks, ndcg_k, score_rows=None, score_pairs=None):
    """Ranked users, hits and metrics equal the per-user oracle's, the
    metrics bit for bit. The evaluator reads the rows of the score ``table``
    and the oracle its (user, item) pairs, unless scorers are given."""
    if table is not None:
        score_rows, score_pairs = rows_of(table), lambda users, items: table[users, items]
    depth = max((*ks, ndcg_k))
    ranked = build_ranked_lists(score_rows, test, exclude=train, depth=depth)
    lists = ranked_lists_by_user(score_pairs, test, exclude=train)
    assert ranked.users.tolist() == [rl.user for rl in lists]
    assert ranked.n_candidates.tolist() == [len(rl.ranked_items) for rl in lists]
    assert ranked.n_relevant.tolist() == [len(rl.relevant) for rl in lists]
    for row, rl in enumerate(lists):
        expected = np.isin(rl.ranked_items[:depth], rl.relevant).tolist()
        hits = ranked.hits[row].tolist()
        assert hits[:len(expected)] == expected
        assert not any(hits[len(expected):])
    assert topk_metrics(ranked, ks, ndcg_k) == topk_by_user(lists, ks, ndcg_k)


class TestExactAgainstOracle:
    @pytest.mark.parametrize("seed", range(6))
    def test_integer_scores_force_ties(self, seed):
        rng = np.random.default_rng(seed)
        table = rng.integers(0, 4, size=(40, 30)).astype(np.float64)
        test, train = random_world(rng, 40, 30, 600, exclude_share=0.3)
        assert_exact(table, test, train, ks=(1, 5, 10), ndcg_k=20)

    @pytest.mark.parametrize("seed", range(4))
    def test_users_with_fewer_candidates_than_ndcg_k(self, seed):
        # With 12 items and most of them excluded, every user has fewer
        # candidates than the cutoffs; some lose every relevant item.
        rng = np.random.default_rng(100 + seed)
        table = rng.normal(size=(30, 12))
        test, train = random_world(rng, 30, 12, 300, exclude_share=0.8)
        assert_exact(table, test, train, ks=(5, 10, 20), ndcg_k=50)

    @pytest.mark.parametrize("seed", range(4))
    def test_without_an_exclusion_set(self, seed):
        rng = np.random.default_rng(200 + seed)
        table = np.round(rng.normal(size=(25, 40)), 1)
        test, _ = random_world(rng, 25, 40, 400, exclude_share=0)
        assert_exact(table, test, None, ks=(5, 10), ndcg_k=50)

    def test_users_whose_relevant_items_are_all_excluded(self):
        train = make_dataset([0, 0, 2], [1, 3, 0], [1, 1, 1], 3, 8)
        test = make_dataset([0, 0, 1, 2], [1, 3, 4, 0], [1, 1, 1, 1], 3, 8)
        assert_exact(by_item_id(8, 3), test, train, ks=(2,), ndcg_k=5)
        ranked = build_ranked_lists(rows_of(by_item_id(8, 3)), test, exclude=train, depth=5)
        assert ranked.users.tolist() == [1]

    def test_dcg_sums_only_the_users_candidates(self):
        # 6 candidates with hits at ranks 2..6: summing 10 positions, the
        # zero gains past the candidates included, changes the last bit.
        train = make_dataset([0] * 4, [6, 7, 8, 9], [1] * 4, 1, 10)
        test = make_dataset([0] * 5, [1, 2, 3, 4, 5], [1] * 5, 1, 10)
        assert_exact(by_item_id(10), test, train, ks=(), ndcg_k=10)

    def test_model_scores_over_several_blocks(self):
        # The real score function, over blocks of several users each.
        rng = np.random.default_rng(7)
        n_users, n_items = 250, 700
        model = init(n_users, n_items, 4, 0.1, seed=3)
        test, train = random_world(rng, n_users, n_items, 4000, exclude_share=0.05)
        assert 1 < PAIR_BUDGET // n_items < n_users // 2
        assert_exact(None, test, train, ks=(5, 10), ndcg_k=50,
                     score_rows=lambda block: model.predict_rows(Branch.HAT, block),
                     score_pairs=lambda u, i: model.predict(Branch.HAT, u, i))

    @pytest.mark.parametrize("budget", [1, 17, 100])
    def test_block_size_does_not_change_any_bit(self, monkeypatch, budget):
        rng = np.random.default_rng(300 + budget)
        table = rng.integers(0, 6, size=(60, 20)).astype(np.float64)
        test, train = random_world(rng, 60, 20, 700, exclude_share=0.4)
        monkeypatch.setattr(evaluate, "PAIR_BUDGET", budget)
        assert_exact(table, test, train, ks=(3, 10), ndcg_k=15)


class TestTopDepth:
    """The partition selection equals the full stable sort's head."""

    @given(st.data())
    @settings(max_examples=300)
    def test_equals_the_stable_argsort_on_tie_heavy_rows(self, data):
        n_rows = data.draw(st.integers(min_value=1, max_value=8))
        n_items = data.draw(st.integers(min_value=1, max_value=40))
        depth = data.draw(st.integers(min_value=1, max_value=n_items))
        # Few distinct integers, +inf for excluded items; some rows fully
        # tied, some with fewer finite entries than depth.
        values = st.sampled_from([0.0, 1.0, 2.0, 3.0, np.inf])
        neg = np.array(data.draw(st.lists(
            st.lists(values, min_size=n_items, max_size=n_items), min_size=n_rows, max_size=n_rows,
        )))
        for r in data.draw(st.lists(st.integers(0, n_rows - 1), max_size=2)):
            neg[r] = data.draw(values)
        expected = np.argsort(neg, axis=1, kind="stable")[:, :depth]
        assert np.array_equal(evaluate._top_depth(neg, depth), expected)

    @pytest.mark.parametrize("depth", [1, 7, 39, 40])
    def test_distinct_scores_sort_only_the_top(self, monkeypatch, depth):
        neg = np.random.default_rng(depth).normal(size=(30, 50))
        neg[:, ::5] = np.inf  # 40 candidates per row
        expected = np.argsort(neg, axis=1, kind="stable")[:, :depth]
        widths = []
        argsort = np.argsort

        def recording(a, *args, **kwargs):
            widths.append(np.shape(a)[-1])
            return argsort(a, *args, **kwargs)

        monkeypatch.setattr(np, "argsort", recording)
        assert np.array_equal(evaluate._top_depth(neg, depth), expected)
        assert set(widths) == {depth}


class TestBlocking:
    def test_calls_stay_within_the_pair_budget_and_cover_every_pair(self):
        rng = np.random.default_rng(11)
        n_users, n_items = 400, 300
        test, train = random_world(rng, n_users, n_items, 3000, exclude_share=0.02)
        table = rng.normal(size=(n_users, n_items))
        blocks = []

        def recording(block):
            blocks.append(block.copy())
            return table[block]

        ranked = build_ranked_lists(recording, test, exclude=train, depth=50)
        assert len(blocks) > 1
        assert max(len(block) * n_items for block in blocks) <= PAIR_BUDGET
        assert np.concatenate(blocks).tolist() == ranked.users.tolist()
        relevant = positives_by_user(test)
        excluded = positives_by_user(train)
        surviving = [
            u for u, items in relevant.items()
            if len(np.setdiff1d(items, excluded.get(u, []))) > 0
        ]
        assert len(ranked) == len(surviving)


class TestAlpha:
    def test_single_matching_aux_gives_zero(self):
        assert alpha(0.8, [0.8]) == 0.0

    def test_single_aux_is_the_absolute_gap(self):
        assert alpha(0.8, [0.75]) == pytest.approx(0.05)

    def test_two_aux_scores_straddling_val(self):
        assert alpha(0.8, [0.7, 0.9]) == pytest.approx(0.2)

    def test_no_aux_scores_means_zero(self):
        assert alpha(0.8, []) == 0.0

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

    @given(st.floats(min_value=-10, max_value=10, allow_nan=False), score_lists)
    def test_never_exceeds_the_raw_score(self, val, aux):
        assert EvalReport(val, aux).modified_score <= val

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
