"""Bernoulli draws of auxiliary subsets under truncated sampling probabilities.

A subset keeps each row of its source where a uniform draw is below the row's
probability or that probability is at least a threshold epsilon: since every
draw is below 1, exactly a draw under the probabilities truncated to 1 at
epsilon. Families of subsets (one per threshold) use independent seeds
derived from a master seed, which keeps both preprocessing mode and
per-epoch resampling reproducible.
"""

from __future__ import annotations

import numpy as np

from .data import Dataset, Provenance
from .errors import ValidationError
from .propensity import PropensityTable, sampling_probabilities
from .seeding import derive_seed


def draw_auxiliary(d: Dataset, probs: np.ndarray, epsilon: float, seed: int) -> Dataset:
    """Keep each row of ``d`` where a uniform draw from ``seed`` (>= 0) is
    below its probability in ``probs``, or that probability is at least ``epsilon``.

    ``probs`` lies in (0,1], as ``sampling_probabilities`` checks, and
    ``epsilon`` in [0,1], as ``RunConfig`` and the ``selfsample`` command check.
    Expected size is the sum of the truncated probabilities. A subset of a
    nonempty source is never empty: the largest probability is exactly 1.
    """
    if seed < 0:
        raise ValidationError(f"seed must be >= 0, got {seed}")
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
