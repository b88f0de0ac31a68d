"""Popularity propensities and per-instance sampling probabilities.

Propensity of an item is its observation count relative to the most frequent
item, raised to a power and clipped below at a floor. Instance sampling
probability is the max-normalized inverse propensity of its item, so the
rarest instance always gets probability 1. A threshold epsilon in [0,1]
truncates every probability at or above it to 1; ``selfsample`` applies that
as a test, ``p >= epsilon``, inside each draw, so no truncated copy is made.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .errors import ValidationError

DEFAULT_GAMMA = 0.5
DEFAULT_FLOOR = 0.01


def check_settings(gamma: float, floor: float) -> None:
    """Raise ValidationError unless gamma >= 0 and floor lies in (0,1]; NaN fails."""
    if not gamma >= 0:
        raise ValidationError("gamma must be >= 0")
    if not 0.0 < floor <= 1.0:
        raise ValidationError("floor must lie in (0,1]")


def check_epsilon(epsilon: float, name: str = "epsilon") -> None:
    """Raise ValidationError unless ``epsilon`` lies in [0,1]; NaN fails."""
    if not 0.0 <= epsilon <= 1.0:
        raise ValidationError(f"{name} must lie in [0,1], got {epsilon}")


@dataclass(frozen=True)
class PropensityTable:
    """Per-item propensities in (0,1], the most frequent item's exactly 1."""

    per_item_propensity: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.per_item_propensity, dtype=np.float64)
        object.__setattr__(self, "per_item_propensity", values)
        if values.ndim != 1 or len(values) == 0:
            raise ValidationError("propensity table must be a nonempty vector")
        if not (values.min() > 0.0 and values.max() == 1.0):
            raise ValidationError("propensities must lie in (0,1] with max exactly 1")


def estimate_popularity_propensity(
    d: Dataset, gamma: float = DEFAULT_GAMMA, floor: float = DEFAULT_FLOOR
) -> PropensityTable:
    """Propensity(v) = (count(v) / max_count)^gamma, clipped below at floor.

    Items never observed in ``d`` get the floor value. ``d`` is nonempty, as
    ``experiment.build_datasets`` and ``load_tsv`` guarantee.
    """
    check_settings(gamma, floor)
    counts = np.bincount(d.items, minlength=d.n_items).astype(np.float64)
    values = np.power(counts / counts.max(), gamma)
    values[counts == 0] = floor
    np.clip(values, floor, 1.0, out=values)
    return PropensityTable(values)


def sampling_probabilities(d: Dataset, t: PropensityTable) -> np.ndarray:
    """Max-normalized inverse propensity per instance, in (0,1].

    The instance whose item has the lowest propensity gets probability 1;
    more exposed instances get proportionally smaller probabilities. A floor
    so tiny that its inverse overflows passes every range check, yet would
    make NaN and 0 here, so the result's range is checked where it is made.
    """
    inverse = 1.0 / t.per_item_propensity[d.items]
    inverse /= inverse.max()
    if not (inverse.min() > 0.0 and inverse.max() <= 1.0):
        raise ValidationError("sampling probabilities must lie in (0,1]")
    return inverse


def save_table(t: PropensityTable, path, item_ids: np.ndarray) -> None:
    """Write item<TAB>propensity lines in dense-id order, each with its
    original id from ``item_ids``, a loaded dataset's ``item_id_map``."""
    with open(path, "w", encoding="utf-8") as handle:
        for item, value in zip(item_ids.tolist(), t.per_item_propensity.tolist(), strict=True):
            handle.write(f"{item}\t{value!r}\n")
