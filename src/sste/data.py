"""Feedback datasets: loading, binarization, splitting, synthesis, statistics.

A dataset is a fixed-length table of (user, item, label) records stored as
column arrays, plus vocabulary sizes and a provenance tag saying which pool
the records came from (biased logs, uniform exposure, or a sampled auxiliary
subset). Raw ids from disk are re-mapped to dense 0..n-1 indices; the
sorted original ids are kept as id maps (dense id ``i`` is ``ids[i]``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from enum import Enum
from itertools import islice
from pathlib import Path

import numpy as np

from .errors import DivisionGuardError, ParseError, ValidationError
from .seeding import rng_for

_POSITIVE_RATING_CUTOFF = 3  # rating > 3 is a positive
_RELEVANCE_SLOPE = 2.0  # logit scale of synthetic relevance
_USER_FACTOR_SHIFT = 0.75  # nonzero user-factor mean gives items real main effects
_SYNTH_VAL_RATIO = 0.8  # biased pool -> train:val split
_ID_MIN, _ID_MAX = -2**63, 2**63 - 1  # the int64 range
_PLAIN_DIGITS = 18  # the longest field the vectorized parse takes: every such id fits int64


class Provenance(Enum):
    BIASED_TRAIN = "biased_train"
    BIASED_VALIDATION = "biased_validation"
    UNIFORM_TEST = "uniform_test"
    AUXILIARY_SUBSET = "auxiliary_subset"


class Schema(Enum):
    USER_ITEM_RATING = "rating"
    USER_ITEM_LABEL = "label"


# Accepted values of the third column, and the message for any other.
_VALUES = {
    Schema.USER_ITEM_RATING: (1, 5, "rating {} outside 1..5"),
    Schema.USER_ITEM_LABEL: (0, 1, "label {} must be 0 or 1"),
}


class SplitMode(Enum):
    PER_USER_RANDOM = "per_user"
    CHRONOLOGICAL = "chronological"


def _frozen_column(values, dtype) -> np.ndarray:
    col = np.array(values, dtype=dtype, order="C", copy=True)
    col.flags.writeable = False
    return col


def _sorted_unique(values: np.ndarray) -> np.ndarray:
    """The sorted distinct values of an integer vector, in its dtype:
    ``np.unique(values)``. From numpy 2.3 on, a flagless ``np.unique`` goes
    through a hash table, 3-25 times slower than this sort on Yahoo!-shaped
    id columns and ranking keys, and its first call imports ``numpy.ma``."""
    values = np.sort(values)
    distinct = np.empty(len(values), dtype=bool)
    distinct[:1] = True
    np.not_equal(values[1:], values[:-1], out=distinct[1:])
    return values[distinct]


def _id_codes(ids: np.ndarray, id_map: np.ndarray) -> np.ndarray:
    """The index of each of ``ids`` in the sorted, distinct int64 ``id_map``,
    where the map holds it; elsewhere some index whose map entry differs, so
    ``id_map[codes] != ids`` flags the unknown ids.

    A dense map, whose span of ids is at most twice its length, looks each id
    up in a table indexed by ``id - id_map[0]``: its memory grows with the
    vocabulary, not with the rows, and on Yahoo!-shaped columns it is 7-20
    times faster than ``searchsorted``, which serves a sparse map. The span is
    taken in Python ints, since it can overflow int64, and ids are clipped to
    the map's range before they index the table."""
    lo, hi = int(id_map[0]), int(id_map[-1])
    if hi - lo < 2 * len(id_map):
        table = np.zeros(hi - lo + 1, dtype=np.int64)
        table[id_map - lo] = np.arange(len(id_map))
        return table[np.clip(ids, lo, hi) - lo]
    return np.minimum(np.searchsorted(id_map, ids), len(id_map) - 1)


def _frozen_id_map(ids, name: str, n: int | None = None) -> np.ndarray:
    """A read-only int64 copy of the id map ``name``, which must be a nonempty,
    strictly increasing vector (of length ``n`` if given) for ``_id_codes``."""
    ids = np.asarray(ids)
    if (ids.ndim != 1 or len(ids) == 0 or ids.dtype.kind not in "iu"
            or not np.can_cast(ids.dtype, np.int64) or np.any(ids[1:] <= ids[:-1])):
        raise ValidationError(f"{name} must be a nonempty, strictly increasing int64 vector")
    if n is not None and len(ids) != n:
        raise ValidationError(f"{name} holds {len(ids)} ids, expected {n}")
    return _frozen_column(ids, np.int64)


@dataclass(frozen=True)
class Dataset:
    """Immutable table of interactions with vocabulary sizes and provenance.

    A dataset loaded from a file keeps its original ids as
    ``user_id_map``/``item_id_map``; else None.
    """

    users: np.ndarray
    items: np.ndarray
    labels: np.ndarray
    n_users: int
    n_items: int
    provenance: Provenance
    user_id_map: np.ndarray | None = field(default=None, repr=False)
    item_id_map: np.ndarray | None = field(default=None, repr=False)

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
        for name, n in (("user_id_map", self.n_users), ("item_id_map", self.n_items)):
            if getattr(self, name) is not None:
                object.__setattr__(self, name, _frozen_id_map(getattr(self, name), name, n))
        if len(users):
            if users.min() < 0 or users.max() >= self.n_users:
                raise ValidationError("user_id out of range [0, n_users)")
            if items.min() < 0 or items.max() >= self.n_items:
                raise ValidationError("item_id out of range [0, n_items)")
            if not np.all((labels == 0) | (labels == 1)):
                raise ValidationError("labels must be 0 or 1")

    def __len__(self) -> int:
        return len(self.users)

    @property
    def positive_count(self) -> int:
        return int(self.labels.sum())

    def take(self, indices: np.ndarray, provenance: Provenance | None = None) -> "Dataset":
        """New dataset from a subset of rows, preserving vocabularies."""
        return replace(
            self, users=self.users[indices], items=self.items[indices],
            labels=self.labels[indices], provenance=provenance or self.provenance,
        )


@dataclass(frozen=True)
class DatasetStats:
    n_feedback: int
    pn_ratio_percent: float
    n_users: int
    n_items: int


def _nonblank_lines(data: bytes):
    """(1-based line number, text) of every non-blank line of a TSV file's
    bytes. Lines end at ``\n``, ``\r\n`` or ``\r``, as in Python's universal
    newlines; a line that is not UTF-8 is a ParseError."""
    for line_no, line in enumerate(data.splitlines(), start=1):
        if line:
            try:
                yield line_no, line.decode("utf-8")
            except UnicodeDecodeError:
                raise ParseError("invalid UTF-8", line_no) from None


def _parse_lines(data: bytes, schema: Schema) -> np.ndarray:
    """The (rows, 3) user/item/value table by one ``int()`` per field: the
    definition of the accepted grammar. The first malformed line raises
    ParseError with its number."""
    low, high, message = _VALUES[schema]
    table: list[int] = []
    for line_no, line in _nonblank_lines(data):
        parts = line.split("\t")
        if len(parts) != 3:
            raise ParseError(
                f"expected 3 tab-separated fields, got {len(parts)}", line_no
            )
        try:
            u, v, x = int(parts[0]), int(parts[1]), int(parts[2])
        except ValueError:
            raise ParseError(f"non-integer field in {parts!r}", line_no) from None
        for kind, original in (("user", u), ("item", v)):
            if not _ID_MIN <= original <= _ID_MAX:
                raise ParseError(f"{kind} id {original} outside int64", line_no)
        if not low <= x <= high:
            raise ParseError(message.format(x), line_no)
        table += (u, v, x)
    return np.array(table, dtype=np.int64).reshape(-1, 3)


def _plain_table(data: bytes, schema: Schema) -> np.ndarray | None:
    """The (rows, 3) table of a file whose every byte is an ASCII digit, tab
    or newline, whose every non-blank line is three fields of 1 to 18 digits
    (so each fits int64) and whose values are in range; else None. Such a
    file is one ``_parse_lines`` accepts, with the same table."""
    if data.translate(None, b"0123456789\t\n"):
        return None
    if not data.endswith(b"\n"):
        data += b"\n"
    buf = np.frombuffer(data, dtype=np.uint8)
    ends = np.flatnonzero(buf < ord("0"))  # every tab and newline
    is_tab = buf[ends] == ord("\t")
    widths = np.diff(ends, prepend=-1) - 1
    # Drop the newline of each blank line: empty, and not after a tab.
    keep = is_tab | (widths > 0) | np.concatenate(([False], is_tab[:-1]))
    is_tab, widths = is_tab[keep], widths[keep]
    if (len(is_tab) % 3 or not np.all(is_tab.reshape(-1, 3) == (True, True, False))
            or not np.all((widths >= 1) & (widths <= _PLAIN_DIGITS))):
        return None
    if not len(widths):  # only blank lines, where fromstring would read one 0
        return np.empty((0, 3), dtype=np.int64)
    # With the structure checked, the whitespace-separated parse reads each
    # field as int() does.
    table = np.fromstring(data, dtype=np.int64, sep=" ").reshape(-1, 3)
    low, high, _ = _VALUES[schema]
    return table if np.all((table[:, 2] >= low) & (table[:, 2] <= high)) else None


def load_tsv(
    path,
    schema: Schema,
    provenance: Provenance = Provenance.BIASED_TRAIN,
    user_map: np.ndarray | None = None,
    item_map: np.ndarray | None = None,
) -> Dataset:
    """Parse a user/item/rating-or-label TSV into a Dataset.

    Each field is what ``int()`` accepts. A file of plain digit/tab/newline
    lines is parsed in one vectorized pass; any other file, or one whose
    value column is out of range, is read line by line.

    Ids are re-mapped to dense indices in sorted original-id order. Pass
    ``user_map``/``item_map`` from a previously loaded dataset to align a
    second file to the same vocabulary. A file's own map comes from a sort
    (``_sorted_unique``), not from ``np.unique``, which now hashes and is
    slower here; each id then finds its index by a lookup table when the map
    is dense, else by ``searchsorted`` (``_id_codes``).

    Raises:
        ParseError: malformed line (wrong field count, non-integer field,
            an id outside int64, out-of-range rating or label, invalid
            UTF-8, an id a given map lacks), with its 1-based line number.
        ValidationError: empty file or a malformed given map.
    """
    schema = Schema(schema)
    data = Path(path).read_bytes()
    table = _plain_table(data, schema)
    if table is None:
        table = _parse_lines(data, schema)
    if not len(table):
        raise ValidationError(f"no interactions found in {path}")

    users_arr, items_arr, values_arr = table.T
    user_ids = _sorted_unique(users_arr) if user_map is None else _frozen_id_map(user_map, "user_map")
    item_ids = _sorted_unique(items_arr) if item_map is None else _frozen_id_map(item_map, "item_map")
    users = _id_codes(users_arr, user_ids)
    items = _id_codes(items_arr, item_ids)
    # Only a given map can lack an id; a file's own map holds all of them.
    unknown = []  # (first row, kind, id), users first
    for kind, given, ids, codes, original in (("user", user_map, user_ids, users, users_arr),
                                              ("item", item_map, item_ids, items, items_arr)):
        if given is None:
            continue
        mask = ids[codes] != original
        if mask.any():
            row = int(np.argmax(mask))
            unknown.append((row, kind, original[row]))
    if unknown:
        row, kind, original = min(unknown, key=lambda found: found[0])
        line_no = next(islice(_nonblank_lines(data), row, None))[0]
        raise ParseError(f"unknown {kind} id {original}", line_no)

    if schema is Schema.USER_ITEM_RATING:
        labels = (values_arr > _POSITIVE_RATING_CUTOFF).astype(np.int8)
    else:
        labels = values_arr.astype(np.int8)
    return Dataset(
        users=users,
        items=items,
        labels=labels,
        n_users=len(user_ids),
        n_items=len(item_ids),
        provenance=provenance,
        user_id_map=user_ids,
        item_id_map=item_ids,
    )


def save_tsv(d: Dataset, path) -> None:
    """Write a dataset as user/item/label lines (label schema).

    Ids are written in the original-id space when the dataset carries id
    maps, so files stay interchangeable with the inputs they came from;
    datasets without maps (synthetic) write their dense ids directly.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    users = d.users if d.user_id_map is None else d.user_id_map[d.users]
    items = d.items if d.item_id_map is None else d.item_id_map[d.items]
    np.savetxt(path, np.column_stack([users, items, d.labels]), fmt="%d", delimiter="\t")


def split_ratio(
    d: Dataset, ratio: float, mode: SplitMode, seed: int
) -> tuple[Dataset, Dataset]:
    """Partition a dataset into two disjoint datasets.

    PER_USER_RANDOM shuffles each user's rows (users drawn independently
    from ``seed``) and sends the first floor(ratio * n_u) to the first split;
    users with fewer than 2 interactions go entirely to the first split.
    CHRONOLOGICAL takes the first ceil(ratio * len) rows in file order.
    ``ratio`` lies in (0,1), as RunConfig checks.
    """
    mode = SplitMode(mode)
    if mode is SplitMode.CHRONOLOGICAL:
        cut = math.ceil(ratio * len(d))
        first_idx = np.arange(cut)
        second_idx = np.arange(cut, len(d))
    else:
        rng = rng_for(seed, "per-user-split")
        order = np.argsort(d.users, kind="stable")
        grouped = d.users[order]
        starts = np.flatnonzero(np.r_[True, grouped[1:] != grouped[:-1]])
        sizes = np.diff(starts, append=len(d))
        # An in-place shuffle of a user's slice of ``order`` draws what
        # ``rng.permutation`` of its size does; the slice's first ``n_first``
        # rows, by rank within the slice, go first.
        for lo, n in zip(starts.tolist(), sizes.tolist()):
            if n >= 2:
                rng.shuffle(order[lo:lo + n])
        n_first = np.where(sizes < 2, sizes, np.floor(ratio * sizes).astype(np.int64))
        rank = np.arange(len(d)) - np.repeat(starts, sizes)
        in_first = rank < np.repeat(n_first, sizes)
        first_idx = np.sort(order[in_first])
        second_idx = np.sort(order[~in_first])

    first = d.take(first_idx, provenance=Provenance.BIASED_TRAIN)
    second = d.take(second_idx, provenance=Provenance.BIASED_VALIDATION)
    return first, second


def stats(d: Dataset) -> DatasetStats:
    """Feedback count and positive/negative ratio, Table-style.

    Raises DivisionGuardError when the dataset has no negatives.
    """
    if len(d) == 0:
        raise ValidationError("stats of an empty dataset")
    positives = d.positive_count
    if positives == len(d):
        raise DivisionGuardError("P/N ratio undefined without negatives")
    return DatasetStats(
        n_feedback=len(d),
        pn_ratio_percent=100.0 * positives / (len(d) - positives),
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
        if not self.exposure_bias_strength >= 0.0:
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


def synthetic_exposure_weights(spec: SyntheticSpec,
                               relevance: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(popularity, normalized train-exposure probabilities) for a spec and
    its ``_latent_relevance(spec)`` matrix.

    The popularity values are a power-law draw assigned in order of item
    appeal: the heaviest draws go to the items users like most on average.
    Logged feedback therefore over-represents well-liked items, which is
    what makes its positive rate sit far above the uniform pool's.
    """
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
    _, exposure = synthetic_exposure_weights(spec, relevance)

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
    )
    return train, val, test, relevance
