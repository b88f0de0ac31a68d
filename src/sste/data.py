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

from .errors import MetricUndefinedError, ParseError, ValidationError
from .seeding import rng_for

_POSITIVE_RATING_CUTOFF = 3  # rating > 3 is a positive
_RELEVANCE_SLOPE = 2.0  # logit scale of synthetic relevance
_USER_FACTOR_SHIFT = 0.75  # nonzero user-factor mean gives items real main effects
_SYNTH_VAL_RATIO = 0.8  # biased pool -> train:val split
_ID_MIN, _ID_MAX = -2**63, 2**63 - 1  # the int64 range
_PLAIN_DIGITS = 18  # the longest field the vectorized parse takes: every such id fits int64
_INT32_DIGITS = 9  # fields this short fit int32
_SCAN_BYTES = 1 << 18  # bytes of a file scanned for separators at a time


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
    """``values`` as a read-only, C-contiguous ``dtype`` vector of its own.

    An array that already is one and owns its memory is kept: a column that
    ``Dataset.take`` or ``load_tsv`` gathered and froze, or another dataset's
    column. Anything else is copied, a caller's writeable array above all, so
    no later write to it reaches the dataset."""
    col = np.asarray(values)
    if (col.dtype == dtype and col.flags.c_contiguous and col.flags.owndata
            and not col.flags.writeable):
        return col
    col = np.array(values, dtype=dtype, order="C", copy=True)
    col.flags.writeable = False
    return col


def _frozen(col: np.ndarray) -> np.ndarray:
    """A fresh array, made read-only so that ``Dataset`` keeps it uncopied."""
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
    the map's range before they index the table. ``ids`` may be int32 or
    int64; the codes are int64."""
    lo, hi = int(id_map[0]), int(id_map[-1])
    if hi - lo < 2 * len(id_map):
        table = np.zeros(hi - lo + 1, dtype=np.int64)
        table[id_map - lo] = np.arange(len(id_map))
        # One int64 vector the length of ``ids`` is made: clipped, shifted and
        # then overwritten by its own lookups, each read before it is written.
        codes = ids.astype(np.int64)
        np.clip(codes, lo, hi, out=codes)
        codes -= lo
        return np.take(table, codes, out=codes, mode="clip")
    codes = np.searchsorted(id_map, ids)
    return np.minimum(codes, len(id_map) - 1, out=codes)


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
            if labels.min() < 0 or labels.max() > 1:
                raise ValidationError("labels must be 0 or 1")

    def __len__(self) -> int:
        return len(self.users)

    @property
    def positive_count(self) -> int:
        return int(self.labels.sum())

    def take(self, indices: np.ndarray, provenance: Provenance | None = None) -> "Dataset":
        """New dataset from a subset of rows (an index or boolean vector),
        preserving vocabularies. The gathered columns are fresh arrays, frozen
        and kept as the new dataset's columns: no second copy is made."""
        return replace(
            self, users=_frozen(self.users[indices]), items=_frozen(self.items[indices]),
            labels=_frozen(self.labels[indices]), provenance=provenance or self.provenance,
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


def _separator_positions(buf: np.ndarray) -> np.ndarray:
    """``np.flatnonzero(buf < ord("0"))``, the positions of the tabs and
    newlines of a digit/tab/newline buffer, as int32 when the buffer is under
    2 GiB. The buffer is scanned in ``_SCAN_BYTES`` slices, so the int64
    positions numpy finds are never held for more than one slice."""
    dtype = np.int32 if len(buf) <= np.iinfo(np.int32).max else np.int64
    slices = range(0, len(buf), _SCAN_BYTES)
    n = sum(int(np.count_nonzero(buf[lo:lo + _SCAN_BYTES] < ord("0"))) for lo in slices)
    positions = np.empty(n, dtype=dtype)
    at = 0
    for lo in slices:
        found = np.flatnonzero(buf[lo:lo + _SCAN_BYTES] < ord("0"))
        found += lo
        positions[at:at + len(found)] = found
        at += len(found)
    return positions


def _plain_table(data: bytes, schema: Schema) -> np.ndarray | None:
    """The (rows, 3) table of a file whose every byte is an ASCII digit, tab
    or newline, whose every non-blank line is three fields of 1 to 18 digits
    (so each fits int64) and whose values are in range; else None. Such a
    file is one ``_parse_lines`` accepts, with the same values; the table is
    int32 when no field has more than 9 digits, else int64.

    Separator positions and field widths are int32 for a file under 2 GiB,
    widths are differences written into one array (no ``prepend`` copy), the
    checks are reductions that allocate nothing, and every temporary is
    dropped before the table is parsed."""
    if data.translate(None, b"0123456789\t\n"):
        return None
    if not data.endswith(b"\n"):
        data += b"\n"
    buf = np.frombuffer(data, dtype=np.uint8)
    ends = _separator_positions(buf)
    is_tab = buf[ends] == ord("\t")
    # Field i spans the bytes between separators i-1 and i; the first
    # starts at byte 0, as if separator -1 were at position -1.
    widths = np.empty_like(ends)
    widths[:1] = ends[:1]
    np.subtract(ends[1:], ends[:-1], out=widths[1:])
    widths[1:] -= 1
    del ends
    # Drop the newline of each blank line: empty, and not after a tab.
    keep = widths > 0
    keep |= is_tab
    keep[1:] |= is_tab[:-1]
    if not keep.all():
        is_tab, widths = is_tab[keep], widths[keep]
    del keep
    if len(is_tab) % 3:
        return None
    line_ends = is_tab.reshape(-1, 3)
    if not (line_ends[:, 0].all() and line_ends[:, 1].all()) or line_ends[:, 2].any():
        return None
    if not len(widths):  # only blank lines, where fromstring would read one 0
        return np.empty((0, 3), dtype=np.int64)
    if widths.min() < 1 or widths.max() > _PLAIN_DIGITS:
        return None
    dtype = np.int32 if widths.max() <= _INT32_DIGITS else np.int64
    del is_tab, line_ends, widths
    # With the structure checked, the whitespace-separated parse reads each
    # field as int() does.
    table = np.fromstring(data, dtype=dtype, sep=" ").reshape(-1, 3)
    low, high, _ = _VALUES[schema]
    return table if low <= table[:, 2].min() and table[:, 2].max() <= high else None


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
    is dense, else by ``searchsorted`` (``_id_codes``). The dataset keeps
    the code and label arrays built here as its columns, uncopied.

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
    if user_map is not None or item_map is not None:
        bad_user = user_ids[users] != users_arr
        bad = bad_user | (item_ids[items] != items_arr)
        if bad.any():
            row = int(np.argmax(bad))
            kind, original = ("user", users_arr) if bad_user[row] else ("item", items_arr)
            line_no = next(islice(_nonblank_lines(data), row, None))[0]
            raise ParseError(f"unknown {kind} id {original[row]}", line_no)

    if schema is Schema.USER_ITEM_RATING:
        labels = (values_arr > _POSITIVE_RATING_CUTOFF).astype(np.int8)
    else:
        labels = values_arr.astype(np.int8)
    return Dataset(
        users=_frozen(users),
        items=_frozen(items),
        labels=_frozen(labels),
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
    ``ratio`` lies in (0,1), as RunConfig checks. Either split may be empty.

    The per-user split allocates, over the rows, one int64 order, int32
    positions and rank bounds (under 2**31 rows) and two boolean masks. User
    sizes come from a ``bincount`` over the vocabulary, not from a sorted
    copy of the users, and each side is taken by its mask in file order, so
    no index vector is gathered or sorted.
    """
    mode = SplitMode(mode)
    if mode is SplitMode.CHRONOLOGICAL:
        in_first = np.zeros(len(d), dtype=bool)
        in_first[:math.ceil(ratio * len(d))] = True
    else:
        rng = rng_for(seed, "per-user-split")
        order = np.argsort(d.users, kind="stable")
        sizes = np.bincount(d.users, minlength=d.n_users)
        sizes = sizes[sizes > 0]  # users in id order, as ``order`` groups them
        starts = np.cumsum(sizes) - sizes
        # An in-place shuffle of a user's slice of ``order`` draws what
        # ``rng.permutation`` of its size does; the slice's first ``n_first``
        # rows go first.
        for lo, n in zip(starts.tolist(), sizes.tolist()):
            if n >= 2:
                rng.shuffle(order[lo:lo + n])
        n_first = np.where(sizes < 2, sizes, np.floor(ratio * sizes).astype(np.int64))
        position = np.int32 if len(d) <= np.iinfo(np.int32).max else np.int64
        stops = (starts + n_first).astype(position)
        in_first = np.empty(len(d), dtype=bool)
        in_first[order] = np.arange(len(d), dtype=position) < np.repeat(stops, sizes)
        del order

    first = d.take(in_first, provenance=Provenance.BIASED_TRAIN)
    second = d.take(~in_first, provenance=Provenance.BIASED_VALIDATION)
    return first, second


def stats(d: Dataset) -> DatasetStats:
    """Feedback count and positive/negative ratio, Table-style.

    Raises MetricUndefinedError when ``d``, nonempty by ``load_tsv``, has no negatives.
    """
    positives = d.positive_count
    if positives == len(d):
        raise MetricUndefinedError("P/N ratio undefined without negatives")
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
        # One pair's standardized score is 0/0, and its relevance NaN.
        if self.n_users * self.n_items < 2:
            raise ValidationError("n_users * n_items must be at least 2")
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
    A strength that overflows the weights of the drawn popularity (each at
    least 1, so a finite sum means finite weights) is a ValidationError.
    """
    draws = np.sort(1.0 + rng_for(spec.seed, "popularity").pareto(1.0, size=spec.n_items))
    appeal_rank = np.argsort(np.argsort(relevance.mean(axis=0)))
    popularity = draws[appeal_rank]
    with np.errstate(over="ignore"):
        weights = popularity ** spec.exposure_bias_strength
        total = weights.sum()
    if not np.isfinite(total):
        raise ValidationError(f"exposure_bias_strength = {spec.exposure_bias_strength} "
                              "overflows the synthetic exposure weights")
    return popularity, weights / total


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

    def _draw_pool(tag: str, n: int, item_probs: np.ndarray | None,
                   provenance: Provenance) -> Dataset:
        rng = rng_for(spec.seed, tag)
        users = rng.integers(0, spec.n_users, size=n)
        if item_probs is None:
            items = rng.integers(0, spec.n_items, size=n)
        else:
            items = rng.choice(spec.n_items, size=n, p=item_probs)
        labels = (rng.random(n) < relevance[users, items]).astype(np.int8)
        return Dataset(_frozen(users), _frozen(items), _frozen(labels), spec.n_users,
                       spec.n_items, provenance)

    biased = _draw_pool("biased-pool", spec.train_impressions, exposure, Provenance.BIASED_TRAIN)
    train, val = split_ratio(
        biased, _SYNTH_VAL_RATIO, SplitMode.PER_USER_RANDOM, seed=spec.seed
    )
    test = _draw_pool("uniform-pool", spec.test_impressions, None, Provenance.UNIFORM_TEST)
    return train, val, test, relevance
