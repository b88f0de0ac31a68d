"""Offline metrics and the self-evaluation alpha.

AUC is the main metric: the share of won pairs among all scored
positive-negative pairs, a tie counting one half. Top-K precision/recall
and nDCG are macro-averaged over users that have at least one relevant item
among their candidates. Ranking is full (every item not excluded is a
candidate, never a sample) and exact: a block of users is scored against
every item in one call of at most ``PAIR_BUDGET`` scores, each row keeps
its top ``depth`` items by a partition with a stable-sort fallback for ties
at the cut, and the metrics equal a per-user loop's bit for bit. Alpha is
the largest absolute performance difference between any two of the
evaluated sets (validation plus each auxiliary subset), and subtracting it
from the validation score gives the selection score used for early stopping
and grid search.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data import Dataset, _sorted_unique
from .errors import MetricUndefinedError, ValidationError


def auc_scores(predictions: np.ndarray, labels: np.ndarray) -> float:
    """Probability that a random positive outranks a random negative.

    Ties count one half: the Mann-Whitney count of won pairs, by two
    ``searchsorted`` passes of the positives over the sorted negatives,
    over n_pos * n_neg. ``labels`` are 0/1.
    """
    predictions = np.asarray(predictions, dtype=np.float64)
    if not np.all(np.isfinite(predictions)):
        raise ValidationError("predictions must be finite")
    is_pos = np.asarray(labels) == 1
    pos, neg = predictions[is_pos], predictions[~is_pos]
    if len(pos) == 0 or len(neg) == 0:
        raise MetricUndefinedError("AUC needs at least one positive and one negative")
    pos.sort()
    neg.sort()
    twice_u = np.searchsorted(neg, pos, "left").sum() + np.searchsorted(neg, pos, "right").sum()
    return float(twice_u / 2 / (len(pos) * len(neg)))


# Scores per score_rows call; a block holds as many users as fit, at least one.
# Ranking a Yahoo-shaped world (1,000 items) took 0.33 s at 2^13, 0.20 s at 2^16
# and 2^17, and 0.24 s at 2^18; 100 items took the same at every budget.
PAIR_BUDGET = 1 << 16


@dataclass(frozen=True)
class RankedUsers:
    """Top of the full ranking of each user with a surviving relevant item.

    Row ``r`` is user ``users[r]``, in ascending id order: whether each of
    its best ``depth`` items, highest score first and the smaller item id
    first among ties, is relevant (``hits``), and its relevant and candidate
    counts over the whole ranking. Past a user's candidates ``hits`` is False.
    """

    users: np.ndarray
    hits: np.ndarray
    n_relevant: np.ndarray
    n_candidates: np.ndarray

    def __len__(self) -> int:
        return len(self.users)


def topk_metrics(result: RankedUsers, ks, ndcg_k: int) -> dict[str, float]:
    """Macro-averaged P@K, R@K for each K, and nDCG@ndcg_k with binary gains.

    A user's DCG sums over its first min(ndcg_k, n_candidates) positions.
    The per-user terms are added left to right in ascending user order
    (``cumsum``; a pairwise ``sum`` can differ in the last bit), so the
    values equal a per-user loop's, whatever the blocking. ``result`` reaches
    the largest cutoff or every item, as ``experiment.test_metrics_for`` ranks.
    """
    if len(result) == 0:
        raise MetricUndefinedError("top-K metrics over an empty user set")
    hits = {k: result.hits[:, :k].sum(axis=1) for k in ks}
    terms = {f"p@{k}": hits[k] / k for k in ks}
    terms.update({f"r@{k}": hits[k] / result.n_relevant for k in ks})
    lengths = np.minimum(result.n_candidates, ndcg_k)
    n_ideal = np.minimum(result.n_relevant, ndcg_k)
    dcg, idcg = np.empty(len(result)), np.empty(len(result))
    for n in _sorted_unique(lengths).tolist():
        gains = result.hits[lengths == n, :n].astype(np.float64)
        dcg[lengths == n] = (gains / np.log2(np.arange(1, n + 1) + 1)).sum(axis=1)
    for n in _sorted_unique(n_ideal).tolist():
        idcg[n_ideal == n] = (1.0 / np.log2(np.arange(1, n + 1) + 1)).sum()
    terms[f"ndcg@{ndcg_k}"] = dcg / idcg
    return {name: float(np.cumsum(values)[-1]) / len(result) for name, values in terms.items()}


def _positive_keys(d: Dataset) -> np.ndarray:
    """Sorted distinct ``user * n_items + item`` keys of the positives of ``d``."""
    pos = d.labels == 1
    return _sorted_unique(d.users[pos] * d.n_items + d.items[pos])


def _block_mask(keys: np.ndarray, offsets: np.ndarray, block: np.ndarray, n_items: int):
    """(len(block), n_items) mask of the keys of the users in ``block``, whose
    keys are ``keys[offsets[u]:offsets[u + 1]]``."""
    starts = offsets[block]
    counts = offsets[block + 1] - starts
    at = np.arange(counts.sum()) + np.repeat(starts - np.cumsum(counts) + counts, counts)
    mask = np.zeros((len(block), n_items), dtype=bool)
    mask[np.repeat(np.arange(len(block)), counts), keys[at] % n_items] = True
    return mask


def _top_depth(neg: np.ndarray, depth: int) -> np.ndarray:
    """Column indices of the ``depth`` smallest entries of each row of
    ``neg``: ``np.argsort(neg, axis=1, kind="stable")[:, :depth]``.

    A partition finds each row's ``depth``-th smallest value. A row with
    exactly ``depth`` entries at or below it sorts just those, taken in column
    order, stably; a row with a tie at the cut sorts in full.
    """
    cut = np.partition(neg, depth - 1, axis=1)[:, depth - 1, None]
    on_top = neg <= cut
    clean = np.count_nonzero(on_top, axis=1) == depth
    order = np.empty((len(neg), depth), dtype=np.intp)
    cols = (np.flatnonzero(on_top[clean]) % neg.shape[1]).reshape(-1, depth)
    by_score = np.argsort(np.take_along_axis(neg[clean], cols, axis=1), axis=1, kind="stable")
    order[clean] = np.take_along_axis(cols, by_score, axis=1)
    if not clean.all():
        order[~clean] = np.argsort(neg[~clean], axis=1, kind="stable")[:, :depth]
    return order


def build_ranked_lists(
    score_rows, eval_set: Dataset, exclude: Dataset | None = None, *, depth: int
) -> RankedUsers:
    """Full ranking of every item for each user with a usable relevant set.

    Candidates are the whole item vocabulary minus the user's positives in
    ``exclude`` (normally the training split). Relevant items are the user's
    positives in ``eval_set`` that survive the exclusion; users left with
    none are skipped. ``score_rows(user_ids)`` must return the finite
    ``(len(user_ids), n_items)`` scores of every item for each user; it is
    called once per block of users, at most ``PAIR_BUDGET`` scores unless one
    user's row is longer. Each user keeps the hits of its top ``depth``
    candidates; ``depth`` >= 1, and ``exclude`` shares ``eval_set``'s item vocabulary.
    """
    n_items = eval_set.n_items
    depth = min(depth, n_items)
    banned = _positive_keys(exclude) if exclude is not None else np.empty(0, np.int64)
    relevant = _positive_keys(eval_set)
    relevant = relevant[~np.isin(relevant, banned, assume_unique=True)]
    bounds = np.arange(eval_set.n_users + 1) * n_items
    rel_offsets, ban_offsets = np.searchsorted(relevant, bounds), np.searchsorted(banned, bounds)
    n_relevant = np.diff(rel_offsets)
    users = np.flatnonzero(n_relevant)
    n_candidates = n_items - np.diff(ban_offsets)[users]
    hits = np.empty((len(users), depth), dtype=bool)
    per_block = max(1, PAIR_BUDGET // n_items)
    for lo in range(0, len(users), per_block):
        block = users[lo:lo + per_block]
        neg = -np.asarray(score_rows(block), dtype=np.float64)
        if neg.shape != (len(block), n_items):
            raise ValidationError(f"score_rows gave shape {neg.shape}, not {(len(block), n_items)}")
        if not np.all(np.isfinite(neg)):
            raise ValidationError("scores must be finite")
        # Excluded items sort after every candidate.
        neg[_block_mask(banned, ban_offsets, block, n_items)] = np.inf
        hits[lo:lo + len(block)] = np.take_along_axis(
            _block_mask(relevant, rel_offsets, block, n_items), _top_depth(neg, depth), axis=1
        )
    return RankedUsers(users, hits, n_relevant[users], n_candidates)


def alpha(score_val: float, scores_aux) -> float:
    """Largest absolute difference between any two of the validation and
    auxiliary scores, i.e. their range. Zero when there are no auxiliary scores.
    """
    pooled = [score_val, *scores_aux]
    return max(pooled) - min(pooled)


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
        object.__setattr__(self, "modified_score", self.score_on_val - a)
