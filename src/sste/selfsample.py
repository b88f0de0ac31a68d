"""Bernoulli draws of auxiliary subsets under truncated sampling probabilities.

Each auxiliary subset keeps every interaction of its source independently
with that instance's probability, so a subset is always a sub-multiset of
the source. Families of subsets (one per threshold) use independent seeds
derived from a master seed, which keeps both preprocessing mode and
per-epoch resampling reproducible.
"""

from __future__ import annotations

import numpy as np

from .data import Dataset, Provenance
from .errors import ValidationError
from .propensity import PropensityTable, sampling_probabilities, truncate
from .seeding import derive_seed


def draw_auxiliary(d: Dataset, probs: np.ndarray, seed: int) -> Dataset:
    """Keep each interaction independently with its probability in ``probs``.

    ``probs`` holds one value in (0,1] per row of ``d``, as ``truncate``
    returns and checks it; ``seed`` must be >= 0. Expected size is the sum
    of the probabilities. A subset of a nonempty source is never empty: each
    draw is below 1, and the largest of ``sampling_probabilities`` is exactly 1.
    """
    if seed < 0:
        raise ValidationError(f"seed must be >= 0, got {seed}")
    rng = np.random.default_rng(seed)
    keep = rng.random(len(d)) < probs
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
    """Subset i keeps ``source`` under threshold i, seeded by (tag, i, *epoch)."""
    base = sampling_probabilities(source, pt)
    return [
        draw_auxiliary(source, truncate(base, eps), derive_seed(master_seed, tag, i, *epoch))
        for i, eps in enumerate(epsilons)
    ]
