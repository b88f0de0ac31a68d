"""Feedback datasets: loading, binarization, splitting, synthesis, statistics.

A dataset is a fixed-length table of (user, item, label) records stored as
column arrays, plus vocabulary sizes and a provenance tag saying which pool
the records came from (biased logs, uniform exposure, or a sampled auxiliary
subset). Raw ids from disk are re-mapped to dense 0..n-1 indices; the maps
are kept for reporting.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path

import numpy as np

from .errors import DivisionGuardError, ParseError, ValidationError
from .seeding import rng_for

_POSITIVE_RATING_CUTOFF = 3  # rating > 3 is a positive
_RELEVANCE_SLOPE = 2.0  # logit scale of synthetic relevance
_USER_FACTOR_SHIFT = 0.75  # nonzero user-factor mean gives items real main effects
_SYNTH_VAL_RATIO = 0.8  # biased pool -> train:val split


class Provenance(Enum):
    BIASED_TRAIN = "biased_train"
    BIASED_VALIDATION = "biased_validation"
    UNIFORM_TEST = "uniform_test"
    AUXILIARY_SUBSET = "auxiliary_subset"


class Schema(Enum):
    USER_ITEM_RATING = "rating"
    USER_ITEM_LABEL = "label"


class SplitMode(Enum):
    PER_USER_RANDOM = "per_user"
    CHRONOLOGICAL = "chronological"


def _frozen_column(values, dtype) -> np.ndarray:
    col = np.array(values, dtype=dtype, order="C", copy=True)
    col.flags.writeable = False
    return col


@dataclass(frozen=True)
class Dataset:
    """Immutable table of interactions with vocabulary sizes and provenance.

    ``rng_seed`` and ``epsilon`` record how a sampled subset was produced and
    are mandatory for AUXILIARY_SUBSET provenance.
    """

    users: np.ndarray
    items: np.ndarray
    labels: np.ndarray
    n_users: int
    n_items: int
    provenance: Provenance
    raw_ratings: np.ndarray | None = None
    rng_seed: int | None = None
    epsilon: float | None = None
    user_id_map: dict[int, int] | None = field(default=None, repr=False)
    item_id_map: dict[int, int] | None = field(default=None, repr=False)

    def __post_init__(self):
        users = _frozen_column(self.users, np.int64)
        items = _frozen_column(self.items, np.int64)
        labels = _frozen_column(self.labels, np.int8)
        object.__setattr__(self, "users", users)
        object.__setattr__(self, "items", items)
        object.__setattr__(self, "labels", labels)
        if not (len(users) == len(items) == len(labels)):
            raise ValidationError("column arrays must have equal length")
        if self.n_users <= 0 or self.n_items <= 0:
            raise ValidationError("vocabulary sizes must be positive")
        if len(users):
            if users.min() < 0 or users.max() >= self.n_users:
                raise ValidationError("user_id out of range [0, n_users)")
            if items.min() < 0 or items.max() >= self.n_items:
                raise ValidationError("item_id out of range [0, n_items)")
            if not np.all((labels == 0) | (labels == 1)):
                raise ValidationError("labels must be 0 or 1")
        if self.raw_ratings is not None:
            ratings = _frozen_column(self.raw_ratings, np.int64)
            object.__setattr__(self, "raw_ratings", ratings)
            if len(ratings) != len(users):
                raise ValidationError("raw_ratings length mismatch")
            if len(ratings) and not np.array_equal(
                labels, (ratings > _POSITIVE_RATING_CUTOFF).astype(np.int8)
            ):
                raise ValidationError("labels inconsistent with raw ratings")
        if self.provenance is Provenance.AUXILIARY_SUBSET:
            if self.rng_seed is None or self.epsilon is None:
                raise ValidationError(
                    "auxiliary subsets must record rng_seed and epsilon"
                )

    def __len__(self) -> int:
        return len(self.users)

    @property
    def positive_count(self) -> int:
        return int(self.labels.sum())

    @property
    def negative_count(self) -> int:
        return len(self) - self.positive_count

    def take(self, indices: np.ndarray, provenance: Provenance | None = None,
             rng_seed: int | None = None, epsilon: float | None = None) -> "Dataset":
        """New dataset from a subset of rows, preserving vocabularies."""
        return Dataset(
            users=self.users[indices],
            items=self.items[indices],
            labels=self.labels[indices],
            n_users=self.n_users,
            n_items=self.n_items,
            provenance=provenance or self.provenance,
            raw_ratings=None if self.raw_ratings is None else self.raw_ratings[indices],
            rng_seed=rng_seed if rng_seed is not None else self.rng_seed,
            epsilon=epsilon if epsilon is not None else self.epsilon,
            user_id_map=self.user_id_map,
            item_id_map=self.item_id_map,
        )


@dataclass(frozen=True)
class DatasetStats:
    n_feedback: int
    pn_ratio_percent: float
    n_users: int
    n_items: int


def _dense_map(original_ids: np.ndarray) -> dict[int, int]:
    uniq = np.unique(original_ids)
    return {int(orig): dense for dense, orig in enumerate(uniq)}


def load_tsv(
    path,
    schema: Schema,
    provenance: Provenance = Provenance.BIASED_TRAIN,
    user_map: dict[int, int] | None = None,
    item_map: dict[int, int] | None = None,
) -> Dataset:
    """Parse a user/item/rating-or-label TSV into a Dataset.

    Ids are re-mapped to dense indices in sorted original-id order. Pass
    ``user_map``/``item_map`` from a previously loaded dataset to align a
    second file to the same vocabulary; an unknown original id then raises
    ValidationError.

    Raises:
        ParseError: malformed line (wrong field count, non-integer field,
            out-of-range rating or label), with its 1-based line number.
        ValidationError: empty file or id missing from a provided map.
    """
    schema = Schema(schema)
    raw_users: list[int] = []
    raw_items: list[int] = []
    raw_values: list[int] = []
    with open(path, "r", encoding="utf-8", newline=None) as handle:
        for line_no, line in enumerate(handle, start=1):
            line = line.strip("\n").strip("\r")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 3:
                raise ParseError(
                    f"expected 3 tab-separated fields, got {len(parts)}", line_no
                )
            try:
                u, v, x = int(parts[0]), int(parts[1]), int(parts[2])
            except ValueError:
                raise ParseError(f"non-integer field in {parts!r}", line_no) from None
            if schema is Schema.USER_ITEM_RATING and not 1 <= x <= 5:
                raise ParseError(f"rating {x} outside 1..5", line_no)
            if schema is Schema.USER_ITEM_LABEL and x not in (0, 1):
                raise ParseError(f"label {x} must be 0 or 1", line_no)
            raw_users.append(u)
            raw_items.append(v)
            raw_values.append(x)
    if not raw_users:
        raise ValidationError(f"no interactions found in {path}")

    users_arr = np.asarray(raw_users, dtype=np.int64)
    items_arr = np.asarray(raw_items, dtype=np.int64)
    values_arr = np.asarray(raw_values, dtype=np.int64)

    user_map = user_map if user_map is not None else _dense_map(users_arr)
    item_map = item_map if item_map is not None else _dense_map(items_arr)
    users = _apply_map(users_arr, user_map, "user")
    items = _apply_map(items_arr, item_map, "item")

    if schema is Schema.USER_ITEM_RATING:
        labels = (values_arr > _POSITIVE_RATING_CUTOFF).astype(np.int8)
        ratings = values_arr
    else:
        labels = values_arr.astype(np.int8)
        ratings = None
    return Dataset(
        users=users,
        items=items,
        labels=labels,
        n_users=len(user_map),
        n_items=len(item_map),
        provenance=provenance,
        raw_ratings=ratings,
        user_id_map=user_map,
        item_id_map=item_map,
    )


def _apply_map(original: np.ndarray, id_map: dict[int, int], kind: str) -> np.ndarray:
    try:
        return np.asarray([id_map[int(x)] for x in original], dtype=np.int64)
    except KeyError as exc:
        raise ValidationError(f"unknown {kind} id {exc.args[0]}") from None


def save_tsv(d: Dataset, path) -> None:
    """Write a dataset as user/item/label lines (label schema).

    Ids are written in the original-id space when the dataset carries id
    maps, so files stay interchangeable with the inputs they came from;
    datasets without maps (synthetic) write their dense ids directly.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    users = _originals(d.users, d.user_id_map)
    items = _originals(d.items, d.item_id_map)
    with open(path, "w", encoding="utf-8") as handle:
        for i in range(len(d)):
            handle.write(f"{int(users[i])}\t{int(items[i])}\t{int(d.labels[i])}\n")


def _originals(dense: np.ndarray, id_map: dict[int, int] | None) -> np.ndarray:
    if id_map is None:
        return dense
    inverse = np.empty(len(id_map), dtype=np.int64)
    for orig, idx in id_map.items():
        inverse[idx] = orig
    return inverse[dense]


def split_ratio(
    d: Dataset, ratio: float, mode: SplitMode, seed: int
) -> tuple[Dataset, Dataset]:
    """Partition a dataset into two disjoint datasets.

    PER_USER_RANDOM sends floor(ratio * n_u) of each user's interactions to
    the first split, every user drawn independently from ``seed``; users with
    fewer than 2 interactions go entirely to the first split. CHRONOLOGICAL
    takes the first ceil(ratio * len) rows in file order.
    """
    mode = SplitMode(mode)
    if not 0.0 < ratio < 1.0:
        raise ValidationError(f"ratio must be in (0,1), got {ratio}")
    if len(d) == 0:
        raise ValidationError("cannot split an empty dataset")

    if mode is SplitMode.CHRONOLOGICAL:
        cut = math.ceil(ratio * len(d))
        first_idx = np.arange(cut)
        second_idx = np.arange(cut, len(d))
    else:
        rng = rng_for(seed, "per-user-split")
        order = np.argsort(d.users, kind="stable")
        boundaries = np.flatnonzero(np.diff(d.users[order])) + 1
        first_parts = []
        second_parts = []
        for group in np.split(order, boundaries):
            n = len(group)
            if n < 2:
                first_parts.append(group)
                continue
            perm = rng.permutation(n)
            n_first = math.floor(ratio * n)
            first_parts.append(group[perm[:n_first]])
            second_parts.append(group[perm[n_first:]])
        first_idx = np.sort(np.concatenate(first_parts)) if first_parts else np.asarray([], dtype=np.int64)
        second_idx = np.sort(np.concatenate(second_parts)) if second_parts else np.asarray([], dtype=np.int64)

    first = d.take(first_idx, provenance=Provenance.BIASED_TRAIN)
    second = d.take(second_idx, provenance=Provenance.BIASED_VALIDATION)
    return first, second


def stats(d: Dataset) -> DatasetStats:
    """Feedback count and positive/negative ratio, Table-style.

    Raises DivisionGuardError when the dataset has no negatives.
    """
    if len(d) == 0:
        raise ValidationError("stats of an empty dataset")
    negatives = d.negative_count
    if negatives == 0:
        raise DivisionGuardError("P/N ratio undefined without negatives")
    return DatasetStats(
        n_feedback=len(d),
        pn_ratio_percent=100.0 * d.positive_count / negatives,
        n_users=d.n_users,
        n_items=d.n_items,
    )


@dataclass(frozen=True)
class SyntheticSpec:
    """Desk-scale generator settings for a biased-exposure feedback world."""

    n_users: int
    n_items: int
    latent_dim: int
    exposure_bias_strength: float
    positive_threshold: float
    train_impressions: int
    test_impressions: int
    seed: int

    def __post_init__(self):
        for name in ("n_users", "n_items", "latent_dim", "train_impressions", "test_impressions"):
            if getattr(self, name) <= 0:
                raise ValidationError(f"{name} must be positive")
        if self.latent_dim > min(self.n_users, self.n_items):
            raise ValidationError("latent_dim must not exceed min(n_users, n_items)")
        if not 0.0 < self.positive_threshold < 1.0:
            raise ValidationError("positive_threshold must lie in (0,1)")
        if self.exposure_bias_strength < 0.0:
            raise ValidationError("exposure_bias_strength must be >= 0")


def _latent_relevance(spec: SyntheticSpec) -> np.ndarray:
    """Per-(user, item) relevance probabilities implied by the seed."""
    user_factors = rng_for(spec.seed, "user-factors").normal(
        loc=_USER_FACTOR_SHIFT, size=(spec.n_users, spec.latent_dim)
    )
    item_factors = rng_for(spec.seed, "item-factors").normal(
        size=(spec.n_items, spec.latent_dim)
    )
    scores = user_factors @ item_factors.T
    z = (scores - scores.mean()) / scores.std()
    intercept = math.log(spec.positive_threshold / (1.0 - spec.positive_threshold))
    return 1.0 / (1.0 + np.exp(-(_RELEVANCE_SLOPE * z + intercept)))


def synthetic_exposure_weights(spec: SyntheticSpec) -> tuple[np.ndarray, np.ndarray]:
    """(popularity, normalized train-exposure probabilities) for a spec.

    The popularity values are a power-law draw assigned in order of item
    appeal: the heaviest draws go to the items users like most on average.
    Logged feedback therefore over-represents well-liked items, which is
    what makes its positive rate sit far above the uniform pool's.
    """
    relevance = _latent_relevance(spec)
    draws = np.sort(1.0 + rng_for(spec.seed, "popularity").pareto(1.0, size=spec.n_items))
    appeal_rank = np.argsort(np.argsort(relevance.mean(axis=0)))
    popularity = draws[appeal_rank]
    weights = popularity ** spec.exposure_bias_strength
    return popularity, weights / weights.sum()


def generate_synthetic(
    spec: SyntheticSpec,
) -> tuple[Dataset, Dataset, Dataset, np.ndarray]:
    """Draw (train, val, test, relevance) from a seeded latent-factor world.

    Relevance is a sigmoid of the standardized user-item factor product,
    shifted so its mean sits near ``positive_threshold``. The logging policy
    exposes items with probability proportional to popularity raised to
    ``exposure_bias_strength``, and popularity tracks item appeal, so the
    biased pool carries a much higher positive rate than the uniformly
    exposed test pool. Labels are Bernoulli draws from relevance in both
    pools, and the biased pool is split 8:2 per user into train and
    validation.
    """
    relevance = _latent_relevance(spec)
    _, exposure = synthetic_exposure_weights(spec)

    def _draw_pool(tag: str, n: int, item_probs: np.ndarray | None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        rng = rng_for(spec.seed, tag)
        users = rng.integers(0, spec.n_users, size=n)
        if item_probs is None:
            items = rng.integers(0, spec.n_items, size=n)
        else:
            items = rng.choice(spec.n_items, size=n, p=item_probs)
        labels = (rng.random(n) < relevance[users, items]).astype(np.int8)
        return users, items, labels

    b_users, b_items, b_labels = _draw_pool("biased-pool", spec.train_impressions, exposure)
    biased = Dataset(
        users=b_users,
        items=b_items,
        labels=b_labels,
        n_users=spec.n_users,
        n_items=spec.n_items,
        provenance=Provenance.BIASED_TRAIN,
        rng_seed=spec.seed,
    )
    train, val = split_ratio(
        biased, _SYNTH_VAL_RATIO, SplitMode.PER_USER_RANDOM, seed=spec.seed
    )

    t_users, t_items, t_labels = _draw_pool("uniform-pool", spec.test_impressions, None)
    test = Dataset(
        users=t_users,
        items=t_items,
        labels=t_labels,
        n_users=spec.n_users,
        n_items=spec.n_items,
        provenance=Provenance.UNIFORM_TEST,
        rng_seed=spec.seed,
    )
    return train, val, test, relevance
