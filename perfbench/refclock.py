"""Pass time in reference seconds: wall time scaled by the host's speed.

The benchmark shares its host with other work. On a 2-vCPU VM the same
pure-Python and small-array numpy code runs up to 1.9 times slower for
stretches of 10 to 60 s, with no steal time reported, so process CPU time
slows as much as wall time. A run is too short to average such stretches
out.

A ``RefClock`` therefore cuts a pass into segments of about ``every_s``
seconds and, at each cut, times a fixed reference unit: gather, multiply,
reduce and scatter-add on small arrays, the shape of the training hot
path. The clock is paused while the unit runs. Each segment's wall time is
scaled by ``REFERENCE_S`` over the mean of the unit timings at its two
ends, so a segment run while the host is slow counts for what it would
have taken at the reference speed. The unit is the benchmark's own code and
fixed numpy calls, so a change to the package moves the scaled time by the
same share as the wall time.

Cuts happen at the calls named in ``HOOKS``, which are frequent in every
workload (one per grid cell, per batch, per ranked user); a hook only
reads the clock unless a segment is due.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

from spans import lookup
from sste import experiment, model
from sste import train as train_mod

# Nominal time of one reference unit, about its time on a quiet host of the
# kind the figures in CHANGES.md come from; scaled times are seconds at this speed.
REFERENCE_S = 0.0020
_REPEATS = 5

_rng = np.random.default_rng(0)
_TABLE = _rng.standard_normal((1000, 10))
_ROWS = _rng.integers(0, 1000, 512)
_SINK = np.zeros_like(_TABLE)


def _unit() -> None:
    for _ in range(60):
        gathered = _TABLE[_ROWS]
        float((gathered * gathered).sum())
        np.add.at(_SINK, _ROWS[:64], gathered[:64])


def unit_s() -> float:
    """Median time of the reference unit over a few repeats, taken now."""
    times = []
    for _ in range(_REPEATS):
        started = time.perf_counter()
        _unit()
        times.append(time.perf_counter() - started)
    return statistics.median(times)


def scale(wall_s: float, before_s: float, after_s: float) -> float:
    """Wall time of a stretch bracketed by two unit timings, in reference seconds."""
    return wall_s * REFERENCE_S / ((before_s + after_s) / 2.0)


# (owner, attribute) of the calls at which a segment may end.
HOOKS = (
    (experiment, "run_one"),
    (train_mod, "batch_gradients"),
    (model.MfModel, "predict"),
)


def bound_objects() -> list:
    """What each hooked name holds now; compare by identity to see a restore."""
    return [lookup(owner, attr) for owner, attr in HOOKS]


class RefClock:
    """Context manager timing one pass in wall and reference seconds."""

    def __init__(self, every_s: float = 0.5):
        self.every_s = every_s
        self.wall_s = 0.0
        self.ref_s = 0.0
        self._originals: list[tuple[object, str, object]] = []

    def _cut(self) -> None:
        wall = time.perf_counter() - self._started
        after = unit_s()
        self.wall_s += wall
        self.ref_s += scale(wall, self._before, after)
        self._before = after
        self._started = time.perf_counter()

    def _hook(self, fn):
        def hooked(*args, **kwargs):
            if time.perf_counter() - self._started >= self.every_s:
                self._cut()
            return fn(*args, **kwargs)

        return hooked

    def __enter__(self) -> "RefClock":
        for owner, attr in HOOKS:
            original = lookup(owner, attr)
            self._originals.append((owner, attr, original))
            setattr(owner, attr, self._hook(original))
        self._before = unit_s()
        self._started = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self._cut()
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)
