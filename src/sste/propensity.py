"""Self-sampling: item propensities, sampling probabilities, auxiliary draws.

Propensity of an item is its observation count relative to the most frequent
item, raised to a power and clipped below at a floor. Instance sampling
probability is the max-normalized inverse propensity of its item, so the
rarest instance always gets probability 1. A threshold epsilon in [0,1]
truncates every probability at or above it to 1; a draw applies that as a
test, ``p >= epsilon``, so no truncated copy is made. Families of subsets
(one per threshold) use independent seeds derived from a master seed, which
keeps both preprocessing mode and per-epoch resampling reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import Dataset, Provenance
from .errors import ValidationError
from .seeding import derive_seed

DEFAULT_GAMMA = 0.5
DEFAULT_FLOOR = 0.01


def _invertible(value: float) -> bool:
    """Whether ``value`` lies in (0,1] with a finite float64 inverse, so is at
    least about 5.6e-309; NaN fails."""
    return 0.0 < value <= 1.0 and math.isfinite(1.0 / float(value))


def check_settings(gamma: float, floor: float) -> None:
    """Raise ValidationError unless gamma >= 0 and floor is ``_invertible``."""
    if not gamma >= 0:
        raise ValidationError("gamma must be >= 0")
    if not _invertible(floor):
        raise ValidationError(f"floor must lie in (0,1] with a finite inverse, got {floor}")


def check_epsilon(epsilon: float, name: str = "epsilon") -> None:
    """Raise ValidationError unless ``epsilon`` lies in [0,1]; NaN fails."""
    if not 0.0 <= epsilon <= 1.0:
        raise ValidationError(f"{name} must lie in [0,1], got {epsilon}")


@dataclass(frozen=True)
class PropensityTable:
    """Per-item ``_invertible`` propensities, the most frequent item's exactly 1."""

    per_item_propensity: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.per_item_propensity, dtype=np.float64)
        object.__setattr__(self, "per_item_propensity", values)
        if values.ndim != 1 or len(values) == 0:
            raise ValidationError("propensity table must be a nonempty vector")
        if not (_invertible(values.min()) and values.max() == 1.0):
            raise ValidationError("propensities must lie in (0,1] with finite inverses, max 1")


def estimate_popularity_propensity(
    d: Dataset, gamma: float = DEFAULT_GAMMA, floor: float = DEFAULT_FLOOR
) -> PropensityTable:
    """Propensity(v) = (count(v) / max_count)^gamma, clipped below at floor.

    Items never observed in ``d`` get the floor value. ``gamma`` and
    ``floor`` pass ``check_settings``, as ``RunConfig`` and the propensity
    commands check where they enter. An empty ``d``, which has no max count,
    is a ValidationError.
    """
    if not len(d):
        raise ValidationError("cannot estimate propensities from an empty dataset")
    counts = np.bincount(d.items, minlength=d.n_items).astype(np.float64)
    values = np.power(counts / counts.max(), gamma)
    values[counts == 0] = floor
    np.clip(values, floor, 1.0, out=values)
    return PropensityTable(values)


def sampling_probabilities(d: Dataset, t: PropensityTable) -> np.ndarray:
    """Max-normalized inverse propensity per instance, in (0,1].

    The instance whose item has the lowest propensity gets probability 1;
    more exposed instances get proportionally smaller probabilities. Every
    inverse is finite, as ``PropensityTable`` checks, so none is 0 or NaN.
    """
    inverse = 1.0 / t.per_item_propensity[d.items]
    inverse /= inverse.max()
    return inverse


def save_table(t: PropensityTable, path, item_ids: np.ndarray) -> None:
    """Write item<TAB>propensity lines in dense-id order, each with its
    original id from ``item_ids``, a loaded dataset's ``item_id_map``."""
    with open(path, "w", encoding="utf-8") as handle:
        for item, value in zip(item_ids.tolist(), t.per_item_propensity.tolist(), strict=True):
            handle.write(f"{item}\t{value!r}\n")


def draw_auxiliary(d: Dataset, probs: np.ndarray, epsilon: float, seed: int) -> Dataset:
    """Keep each row of ``d`` where a uniform draw from ``seed`` is below its
    probability in ``probs``, or that probability is at least ``epsilon``.

    ``probs`` come from ``sampling_probabilities``; ``RunConfig``,
    ``derive_seed`` and the ``selfsample`` command keep ``epsilon`` in [0,1]
    and ``seed`` >= 0. Every draw is below 1, so this draws under ``probs``
    truncated to 1 at ``epsilon``. A subset of a nonempty source is never
    empty: the largest probability is exactly 1.
    """
    rng = np.random.default_rng(seed)
    keep = rng.random(len(d)) < probs
    keep |= probs >= epsilon
    return d.take(np.flatnonzero(keep), provenance=Provenance.AUXILIARY_SUBSET)


def train_family(
    train: Dataset,
    pt: PropensityTable,
    epsilons: tuple[float, ...],
    master_seed: int,
    epoch: int = 0,
) -> list[Dataset]:
    """One auxiliary train subset per threshold, seeds derived per (index, epoch)."""
    return _draw_family(train, pt, epsilons, master_seed, "aux-train", epoch)


def val_family(
    val: Dataset,
    pt: PropensityTable,
    epsilons: tuple[float, ...],
    master_seed: int,
) -> list[Dataset]:
    """One auxiliary validation subset per threshold, drawn once (epoch-free seeds)."""
    return _draw_family(val, pt, epsilons, master_seed, "aux-val")


def _draw_family(
    source: Dataset,
    pt: PropensityTable,
    epsilons: tuple[float, ...],
    master_seed: int,
    tag: str,
    *epoch: int,
) -> list[Dataset]:
    """Subset i keeps ``source`` under threshold i, seeded by (tag, i, *epoch);
    the probabilities are computed once, and not for an empty family."""
    if not epsilons:
        return []
    probs = sampling_probabilities(source, pt)
    return [
        draw_auxiliary(source, probs, eps, derive_seed(master_seed, tag, i, *epoch))
        for i, eps in enumerate(epsilons)
    ]
