"""Two-branch matrix factorization with shared embeddings.

Both branches score a (user, item) pair as sigmoid of the shared factor
product plus that branch's own user/item/global biases. The Tilde branch is
fit on the raw biased logs, the Hat branch on the auxiliary subsets, and the
Hat branch is the one used at inference time. Updating the shared factor
tables moves both branches; updating a branch head moves only that branch.
"""

from __future__ import annotations

import json
from enum import Enum
from pathlib import Path

import numpy as np

from .errors import ParseError, ValidationError
from .seeding import rng_for

_CHECKPOINT_MAGIC = b"SSTE-MF-CKPT-1\n"
_PROB_EPS = 1e-15  # predictions stay inside (0,1) by this margin
# Pairs scored at a time by ``MfModel.logits``/``predict``. The synthetic
# study's evaluation sets (at most 10,000 pairs) stay one block: at 4,096
# its grid ran 9% slower, as the smaller freed blocks no longer raised
# glibc's dynamic mmap threshold above its B=4096 batches' temporaries.
_SCORE_BLOCK = 16384


class Branch(Enum):
    TILDE = "tilde"
    HAT = "hat"


def sigmoid(z):
    """Numerically stable logistic function: exp only ever sees -|z|."""
    z = np.asarray(z, dtype=np.float64)
    e = np.exp(-np.abs(z))
    d = 1.0 + e
    # 1/d where z >= 0, else e/d; as 0 <= e <= 1, the larger of e and the
    # mask is that numerator, with no data-dependent branch.
    return np.maximum(e, z >= 0) / d


def bce_from_logits(z, y):
    """Binary cross-entropy in the logit-stable form.

    Equals -y*log(sigmoid(z)) - (1-y)*log(1-sigmoid(z)) without ever
    forming the probabilities; an integer ``y`` is upcast exactly.
    """
    return np.logaddexp(0.0, z) - y * z


class BranchHead:
    """Branch-private parameters in one table: the user biases, then the item
    biases, then the global bias. ``user_bias``, ``item_bias`` and the 0-d
    ``global_bias`` are views of it, so writes through them land in the table."""

    def __init__(self, bias: np.ndarray, n_users: int):
        self.bias = bias
        self.user_bias = bias[:n_users]
        self.item_bias = bias[n_users:-1]
        self.global_bias = bias[-1:].reshape(())

    def sum_squares(self) -> float:
        return float(
            (self.user_bias ** 2).sum()
            + (self.item_bias ** 2).sum()
            + self.global_bias ** 2
        )


class MfModel:
    """The shared factor table, user rows first, and one bias table per
    branch; ``user_factors``/``item_factors`` are views of the factor table.
    The three tables are the checkpoint's blocks and the optimizer's
    parameters, so a batch steps each touched table once."""

    def __init__(self, n_users: int, factors: np.ndarray,
                 tilde_bias: np.ndarray, hat_bias: np.ndarray):
        self.factors = factors
        self.user_factors = factors[:n_users]
        self.item_factors = factors[n_users:]
        self.branch_tilde = BranchHead(tilde_bias, n_users)
        self.branch_hat = BranchHead(hat_bias, n_users)

    @property
    def n_users(self) -> int:
        return self.user_factors.shape[0]

    @property
    def n_items(self) -> int:
        return self.item_factors.shape[0]

    @property
    def k(self) -> int:
        return self.user_factors.shape[1]

    def head(self, branch: Branch) -> BranchHead:
        return self.branch_tilde if branch is Branch.TILDE else self.branch_hat

    def logits(self, branch: Branch, users, items) -> np.ndarray:
        """Logit per pair, scored by ``_logits_with_rows`` in blocks of
        ``_SCORE_BLOCK`` pairs into one output: the factor rows gathered at a
        time are a block's, never the whole input's. Scoring a pair reads
        only its own rows, so a block's logits are those of its pairs alone.
        A single id is paired with every id on the other side."""
        users = _checked_ids(users, self.n_users, "user")
        items = _checked_ids(items, self.n_items, "item")
        users, items = np.broadcast_arrays(users, items)
        z = np.empty(len(users))
        for lo in range(0, len(z), _SCORE_BLOCK):
            block = slice(lo, lo + _SCORE_BLOCK)
            z[block] = _logits_with_rows(self, branch, users[block], items[block])[0]
        return z

    def predict(self, branch: Branch, users, items) -> np.ndarray:
        """Probability of a positive label per pair, strictly inside (0,1).
        The logits' array is overwritten block by block with the
        probabilities, so nothing but the output grows with the pair count."""
        p = self.logits(branch, users, items)
        for lo in range(0, len(p), _SCORE_BLOCK):
            p[lo:lo + _SCORE_BLOCK] = _probability(p[lo:lo + _SCORE_BLOCK])
        return p

    def predict_rows(self, branch: Branch, users) -> np.ndarray:
        """(len(users), n_items) probabilities of every item for each user:
        bit for bit ``predict`` of each (user, item) pair. The factor product
        goes through einsum's own sum-of-products loop, as in
        ``_logits_with_rows``; a BLAS matmul sums in another order."""
        users = _checked_ids(users, self.n_users, "user")
        head = self.head(branch)
        z = np.einsum("ij,kj->ik", self.user_factors.take(users, axis=0), self.item_factors)
        z += head.user_bias[users, None]
        z += head.item_bias
        z += float(head.global_bias)
        return _probability(z)

    def copy(self) -> "MfModel":
        return MfModel(self.n_users, *(table.copy() for table in self.parameters().values()))

    def parameters(self) -> dict[str, np.ndarray]:
        """The three live parameter tables, in checkpoint block order."""
        return {
            "factors": self.factors,
            "tilde_bias": self.branch_tilde.bias,
            "hat_bias": self.branch_hat.bias,
        }

    def all_finite(self) -> bool:
        return all(np.all(np.isfinite(p)) for p in self.parameters().values())


def _probability(z: np.ndarray) -> np.ndarray:
    return np.clip(sigmoid(z), _PROB_EPS, 1.0 - _PROB_EPS)


def _checked_ids(ids, n: int, kind: str) -> np.ndarray:
    """``ids`` as an int64 vector, each in [0, n): a raw gather would wrap a
    negative id."""
    ids = np.atleast_1d(np.asarray(ids, dtype=np.int64))
    if len(ids) and (ids.min() < 0 or ids.max() >= n):
        raise ValidationError(f"{kind} id out of range")
    return ids


def _logits_with_rows(m: MfModel, branch: Branch, users, items):
    """(logits, user factor rows, item factor rows) of the pairs (users, items).

    The scoring formula, which ``MfModel.predict_rows`` repeats for whole
    rows: the factor row dot product, then the branch's user bias, item bias
    and global bias, in that order. Its callers check the ids, once and not
    per block (``_checked_ids``). The gathered rows are fresh arrays that
    the caller may overwrite; ``take`` copies whole factor rows, 1.4-3.4
    times faster than fancy indexing at the benchmark's shapes.
    """
    head = m.head(branch)
    user_rows = m.user_factors.take(users, axis=0)
    item_rows = m.item_factors.take(items, axis=0)
    dot = np.einsum("ij,ij->i", user_rows, item_rows)
    z = dot + head.user_bias[users] + head.item_bias[items] + float(head.global_bias)
    return z, user_rows, item_rows


def init(n_users: int, n_items: int, k: int, scale: float, seed: int) -> MfModel:
    """Factors ~ Uniform(-scale, +scale), all biases zero, seeded. The
    dimensions and ``scale`` are positive, as Dataset and RunConfig check."""
    rng = rng_for(seed, "mf-init")
    n_rows = n_users + n_items
    return MfModel(
        n_users,
        rng.uniform(-scale, scale, size=(n_rows, k)),
        np.zeros(n_rows + 1),
        np.zeros(n_rows + 1),
    )


def save_checkpoint(m: MfModel, path) -> None:
    """Binary checkpoint: magic line, JSON dims header, float64 blocks.

    Blocks in ``MfModel.parameters()`` order: the factor table (user rows,
    then item rows), then the tilde and the hat bias tables (user, item and
    global biases); all little-endian float64, row-major.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    header = json.dumps(
        {"n_users": m.n_users, "n_items": m.n_items, "k": m.k}, sort_keys=True
    )
    with open(path, "wb") as handle:
        handle.write(_CHECKPOINT_MAGIC)
        handle.write(header.encode("utf-8") + b"\n")
        for block in m.parameters().values():
            handle.write(np.ascontiguousarray(block, dtype="<f8").tobytes())


def load_checkpoint(path) -> MfModel:
    with open(path, "rb") as handle:
        magic = handle.read(len(_CHECKPOINT_MAGIC))
        if magic != _CHECKPOINT_MAGIC:
            raise ParseError(f"not a model checkpoint: {path}")
        header_line = handle.readline()
        try:
            dims = json.loads(header_line.decode("utf-8"))
            n_users, n_items, k = dims["n_users"], dims["n_items"], dims["k"]
        except (ValueError, KeyError, TypeError, RecursionError):
            raise ParseError("malformed checkpoint header") from None
        # bool is an int subclass, so a JSON true would pass isinstance.
        if not all(type(n) is int and n > 0 for n in (n_users, n_items, k)):
            raise ParseError(f"checkpoint dims must be positive ints: {dims}")
        payload = handle.read()
    n_rows = n_users + n_items
    size = n_rows * k + 2 * (n_rows + 1)
    if len(payload) != 8 * size:
        raise ParseError(
            f"checkpoint payload has {len(payload)} bytes, expected {8 * size}"
        )
    flat = np.frombuffer(payload, dtype="<f8").astype(np.float64)
    factors, tilde_bias, hat_bias = np.split(flat, [n_rows * k, n_rows * k + n_rows + 1])
    return MfModel(n_users, factors.reshape(n_rows, k), tilde_bias, hat_bias)
