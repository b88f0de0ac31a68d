"""Offline metrics, the self-evaluation alpha, and per-mille online formulas.

AUC is the main metric and is computed globally over scored pairs by
rank-sum with tie-averaged ranks. Top-K precision/recall and nDCG are
macro-averaged over users that have at least one relevant item among their
candidates. Alpha is the largest absolute performance difference between
any two of the evaluated sets (validation plus each auxiliary subset), and
subtracting it from the validation score gives the selection score used
for early stopping and grid search.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data import Dataset
from .errors import DivisionGuardError, MetricUndefinedError, ValidationError


def auc_scores(predictions: np.ndarray, labels: np.ndarray) -> float:
    """Probability that a random positive outranks a random negative.

    Ties count one half. Rank-sum formulation, O(n log n).
    """
    predictions = np.asarray(predictions, dtype=np.float64)
    labels = np.asarray(labels)
    if predictions.shape != labels.shape or predictions.ndim != 1:
        raise ValidationError("predictions and labels must be aligned vectors")
    if not np.all(np.isfinite(predictions)):
        raise ValidationError("predictions must be finite")
    n_pos = int((labels == 1).sum())
    n_neg = int((labels == 0).sum())
    if n_pos == 0 or n_neg == 0:
        raise MetricUndefinedError("AUC needs at least one positive and one negative")
    _, inverse, counts = np.unique(predictions, return_inverse=True, return_counts=True)
    ends = np.cumsum(counts)
    starts = ends - counts + 1
    avg_ranks = (starts + ends) / 2.0
    rank_sum = avg_ranks[inverse][labels == 1].sum()
    return float((rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


@dataclass(frozen=True)
class RankedList:
    """One user's candidates sorted by descending score, plus the relevant set."""

    user: int
    ranked_items: np.ndarray
    relevant: np.ndarray

    def __post_init__(self):
        ranked = np.asarray(self.ranked_items, dtype=np.int64)
        relevant = np.unique(np.asarray(self.relevant, dtype=np.int64))
        object.__setattr__(self, "ranked_items", ranked)
        object.__setattr__(self, "relevant", relevant)
        if len(np.unique(ranked)) != len(ranked):
            raise ValidationError("ranked_items must not repeat a candidate")
        if len(relevant) == 0:
            raise ValidationError("a ranked list needs at least one relevant item")
        if not np.all(np.isin(relevant, ranked)):
            raise ValidationError("relevant items must appear among the candidates")


def topk_metrics(lists, ks=(5, 10), ndcg_k: int = 50) -> dict[str, float]:
    """Macro-averaged P@K, R@K for each K, and nDCG@ndcg_k with binary gains."""
    lists = list(lists)
    if not lists:
        raise MetricUndefinedError("top-K metrics over an empty user set")
    totals = {f"p@{k}": 0.0 for k in ks}
    totals.update({f"r@{k}": 0.0 for k in ks})
    ndcg_name = f"ndcg@{ndcg_k}"
    totals[ndcg_name] = 0.0
    for rl in lists:
        for k in ks:
            hits = int(np.isin(rl.ranked_items[:k], rl.relevant).sum())
            totals[f"p@{k}"] += hits / k
            totals[f"r@{k}"] += hits / len(rl.relevant)
        gains = np.isin(rl.ranked_items[:ndcg_k], rl.relevant).astype(np.float64)
        positions = np.arange(1, len(gains) + 1)
        dcg = float((gains / np.log2(positions + 1)).sum())
        n_ideal = min(len(rl.relevant), ndcg_k)
        idcg = float((1.0 / np.log2(np.arange(1, n_ideal + 1) + 1)).sum())
        totals[ndcg_name] += dcg / idcg
    return {name: value / len(lists) for name, value in totals.items()}


def _positives_by_user(d: Dataset) -> dict[int, np.ndarray]:
    pos = np.flatnonzero(d.labels == 1)
    if len(pos) == 0:
        return {}
    users = d.users[pos]
    items = d.items[pos]
    order = np.argsort(users, kind="stable")
    users_sorted = users[order]
    items_sorted = items[order]
    boundaries = np.flatnonzero(np.diff(users_sorted)) + 1
    return {
        int(users_sorted[chunk[0]]): np.unique(items_sorted[chunk])
        for chunk in np.split(np.arange(len(order)), boundaries)
    }


def build_ranked_lists(score_fn, eval_set: Dataset, exclude: Dataset | None = None):
    """Full-ranking lists for every user with a usable relevant set.

    Candidates are the whole item vocabulary minus the user's positives in
    ``exclude`` (normally the training split). Relevant items are the user's
    positives in ``eval_set`` that survive the exclusion; users left with
    none are skipped. ``score_fn(user_ids, item_ids)`` must return scores.
    Ties rank the smaller item id first.
    """
    n_items = eval_set.n_items
    relevant_by_user = _positives_by_user(eval_set)
    if exclude is not None and exclude.n_items != n_items:
        raise ValidationError("exclusion set must share the item vocabulary")
    excluded_by_user = _positives_by_user(exclude) if exclude is not None else {}

    lists = []
    all_items = np.arange(n_items, dtype=np.int64)
    for u in sorted(relevant_by_user):
        banned = excluded_by_user.get(u)
        candidates = all_items if banned is None else np.setdiff1d(all_items, banned)
        relevant = relevant_by_user[u]
        if banned is not None:
            relevant = np.setdiff1d(relevant, banned)
        if len(relevant) == 0:
            continue
        scores = np.asarray(score_fn(np.full(len(candidates), u), candidates))
        order = np.argsort(-scores, kind="stable")
        lists.append(RankedList(user=u, ranked_items=candidates[order], relevant=relevant))
    return lists


def alpha(score_val: float, scores_aux) -> float:
    """Largest absolute difference between any two of the validation and
    auxiliary scores, i.e. their range. Zero when there are no auxiliary scores.
    """
    pooled = [score_val, *scores_aux]
    if not all(np.isfinite(s) for s in pooled):
        raise ValidationError("scores must be finite")
    return max(pooled) - min(pooled)


def modified_score(score_val: float, a: float) -> float:
    """Penalize a validation score by the cross-set disagreement alpha."""
    if a < 0:
        raise ValidationError("alpha must be >= 0")
    return score_val - a


def per_mille(numerator: float, impressions: int) -> float:
    """numerator / impressions * 1000 (the click/conversion/pay rate form)."""
    if impressions <= 0:
        raise DivisionGuardError("per-mille rate needs impressions > 0")
    return numerator / impressions * 1000.0


@dataclass(frozen=True)
class EvalReport:
    """Self-evaluation outcome for one epoch or one final model.

    ``alpha`` and ``modified_score`` are derived from the scores.
    """

    score_on_val: float
    scores_on_aux: tuple[float, ...]
    alpha: float = field(init=False)
    modified_score: float = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "scores_on_aux", tuple(self.scores_on_aux))
        a = alpha(self.score_on_val, self.scores_on_aux)
        object.__setattr__(self, "alpha", a)
        object.__setattr__(self, "modified_score", modified_score(self.score_on_val, a))
