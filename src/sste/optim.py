"""Adam with lazy per-row state for embedding-style parameters.

Moment estimates and step counters live per row and advance only when a row
actually receives a gradient, so rarely-touched rows keep correct bias
correction instead of being decayed by every global step.
"""

from __future__ import annotations

import numpy as np

from .errors import ValidationError

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


class SparseAdam:
    """Per-row adaptive moment optimizer over a named parameter dict.

    Each parameter is a live numpy array updated in place. ``update`` takes
    the unique rows touched by a batch and their summed gradients; pass
    ``rows=None`` for scalar (0-d) parameters.
    """

    def __init__(self, params: dict[str, np.ndarray], learning_rate: float):
        if learning_rate <= 0:
            raise ValidationError("learning_rate must be positive")
        self.params = dict(params)
        self.lr = learning_rate
        self._m = {name: np.zeros_like(p) for name, p in self.params.items()}
        self._v = {name: np.zeros_like(p) for name, p in self.params.items()}
        self._t = {
            name: np.zeros(p.shape[0] if p.ndim else (), dtype=np.int64)
            for name, p in self.params.items()
        }

    def update(self, name: str, rows: np.ndarray | None, grad: np.ndarray) -> None:
        param = self.params[name]
        m, v, t = self._m[name], self._v[name], self._t[name]
        # Each row's state is gathered once and written back once; rows are
        # unique, and the index () reads and writes a 0-d parameter whole.
        if rows is None:
            rows = ()
        t_rows = t[rows] + 1
        m_rows = ADAM_BETA1 * m[rows] + (1.0 - ADAM_BETA1) * grad
        v_rows = ADAM_BETA2 * v[rows] + (1.0 - ADAM_BETA2) * grad * grad
        t[rows] = t_rows
        m[rows] = m_rows
        v[rows] = v_rows
        # An array even for a 0-d parameter: ``**`` on a numpy scalar rounds
        # differently from the ufunc in the last bit.
        steps = np.asarray(t_rows, dtype=np.float64)
        c1 = 1.0 - ADAM_BETA1 ** steps
        c2 = 1.0 - ADAM_BETA2 ** steps
        if param.ndim == 2:
            c1 = c1[:, None]
            c2 = c2[:, None]
        param[rows] -= self.lr * (m_rows / c1) / (np.sqrt(v_rows / c2) + ADAM_EPS)
