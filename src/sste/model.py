"""Two-branch matrix factorization with shared embeddings.

Both branches score a (user, item) pair as sigmoid of the shared factor
product plus that branch's own user/item/global biases. The Tilde branch is
fit on the raw biased logs, the Hat branch on the auxiliary subsets, and the
Hat branch is the one used at inference time. Updating the shared factor
tables moves both branches; updating a branch head moves only that branch.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

import numpy as np

from .errors import ParseError, ValidationError
from .seeding import rng_for

_CHECKPOINT_MAGIC = b"SSTE-MF-CKPT-1\n"
_PROB_EPS = 1e-15  # predictions stay inside (0,1) by this margin


class Branch(Enum):
    TILDE = "tilde"
    HAT = "hat"


def sigmoid(z):
    """Numerically stable logistic function."""
    z = np.asarray(z, dtype=np.float64)
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def bce_from_logits(z, y):
    """Binary cross-entropy in the logit-stable form.

    Equals -y*log(sigmoid(z)) - (1-y)*log(1-sigmoid(z)) without ever
    forming the probabilities.
    """
    z = np.asarray(z, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    return np.logaddexp(0.0, z) - y * z


@dataclass(frozen=True)
class InitSpec:
    scale: float = 0.01
    seed: int = 0

    def __post_init__(self):
        if not np.isfinite(self.scale) or self.scale <= 0:
            raise ValidationError("init scale must be positive and finite")


@dataclass
class BranchHead:
    """Branch-private parameters: per-user bias, per-item bias, global bias."""

    user_bias: np.ndarray
    item_bias: np.ndarray
    global_bias: np.ndarray  # 0-d array so optimizers can update in place

    def copy(self) -> "BranchHead":
        return BranchHead(
            self.user_bias.copy(), self.item_bias.copy(), self.global_bias.copy()
        )

    def sum_squares(self) -> float:
        return float(
            (self.user_bias ** 2).sum()
            + (self.item_bias ** 2).sum()
            + self.global_bias ** 2
        )


@dataclass
class MfModel:
    user_factors: np.ndarray
    item_factors: np.ndarray
    branch_tilde: BranchHead
    branch_hat: BranchHead

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

    def _check_ids(self, users, items):
        if len(users) == 0:
            return
        if users.min() < 0 or users.max() >= self.n_users:
            raise ValidationError("user id out of range")
        if items.min() < 0 or items.max() >= self.n_items:
            raise ValidationError("item id out of range")

    def logits(self, branch: Branch, users, items) -> np.ndarray:
        users = np.atleast_1d(np.asarray(users, dtype=np.int64))
        items = np.atleast_1d(np.asarray(items, dtype=np.int64))
        self._check_ids(users, items)
        head = self.head(branch)
        dot = np.einsum(
            "ij,ij->i", self.user_factors[users], self.item_factors[items]
        )
        return dot + head.user_bias[users] + head.item_bias[items] + float(head.global_bias)

    def predict(self, branch: Branch, users, items):
        """Probability of a positive label, strictly inside (0,1)."""
        scalar = np.isscalar(users) and np.isscalar(items)
        p = np.clip(sigmoid(self.logits(branch, users, items)), _PROB_EPS, 1.0 - _PROB_EPS)
        return float(p[0]) if scalar else p

    def copy(self) -> "MfModel":
        return MfModel(
            user_factors=self.user_factors.copy(),
            item_factors=self.item_factors.copy(),
            branch_tilde=self.branch_tilde.copy(),
            branch_hat=self.branch_hat.copy(),
        )

    def parameters(self) -> dict[str, np.ndarray]:
        """Named live views of every parameter array."""
        return {
            "user_factors": self.user_factors,
            "item_factors": self.item_factors,
            "tilde_user_bias": self.branch_tilde.user_bias,
            "tilde_item_bias": self.branch_tilde.item_bias,
            "tilde_global_bias": self.branch_tilde.global_bias,
            "hat_user_bias": self.branch_hat.user_bias,
            "hat_item_bias": self.branch_hat.item_bias,
            "hat_global_bias": self.branch_hat.global_bias,
        }

    def all_finite(self) -> bool:
        return all(np.all(np.isfinite(p)) for p in self.parameters().values())


def _zero_head(n_users: int, n_items: int) -> BranchHead:
    return BranchHead(
        user_bias=np.zeros(n_users),
        item_bias=np.zeros(n_items),
        global_bias=np.zeros(()),
    )


def init(n_users: int, n_items: int, k: int, spec: InitSpec = InitSpec()) -> MfModel:
    """Factors ~ Uniform(-scale, +scale), all biases zero, seeded."""
    if n_users <= 0 or n_items <= 0 or k <= 0:
        raise ValidationError("model dimensions must be positive")
    rng = rng_for(spec.seed, "mf-init")
    return MfModel(
        user_factors=rng.uniform(-spec.scale, spec.scale, size=(n_users, k)),
        item_factors=rng.uniform(-spec.scale, spec.scale, size=(n_items, k)),
        branch_tilde=_zero_head(n_users, n_items),
        branch_hat=_zero_head(n_users, n_items),
    )


def save_checkpoint(m: MfModel, path) -> None:
    """Binary checkpoint: magic line, JSON dims header, float64 blocks.

    Block order: user_factors, item_factors, tilde user/item/global bias,
    hat user/item/global bias; all little-endian float64, row-major.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    header = json.dumps(
        {"n_users": m.n_users, "n_items": m.n_items, "k": m.k}, sort_keys=True
    )
    with open(path, "wb") as handle:
        handle.write(_CHECKPOINT_MAGIC)
        handle.write(header.encode("utf-8") + b"\n")
        for block in _checkpoint_blocks(m):
            handle.write(np.ascontiguousarray(block, dtype="<f8").tobytes())


def _checkpoint_blocks(m: MfModel):
    return (
        m.user_factors,
        m.item_factors,
        m.branch_tilde.user_bias,
        m.branch_tilde.item_bias,
        m.branch_tilde.global_bias,
        m.branch_hat.user_bias,
        m.branch_hat.item_bias,
        m.branch_hat.global_bias,
    )


def load_checkpoint(path) -> MfModel:
    with open(path, "rb") as handle:
        magic = handle.read(len(_CHECKPOINT_MAGIC))
        if magic != _CHECKPOINT_MAGIC:
            raise ParseError(f"not a model checkpoint: {path}")
        header_line = handle.readline()
        try:
            dims = json.loads(header_line.decode("utf-8"))
            n_users, n_items, k = dims["n_users"], dims["n_items"], dims["k"]
        except (ValueError, KeyError, TypeError):
            raise ParseError("malformed checkpoint header") from None
        # bool is an int subclass, so a JSON true would pass isinstance.
        if not all(type(n) is int and n > 0 for n in (n_users, n_items, k)):
            raise ParseError(f"checkpoint dims must be positive ints: {dims}")
        payload = handle.read()
    sizes = [n_users * k, n_items * k, n_users, n_items, 1, n_users, n_items, 1]
    if len(payload) != 8 * sum(sizes):
        raise ParseError(
            f"checkpoint payload has {len(payload)} bytes, expected {8 * sum(sizes)}"
        )
    flat = np.frombuffer(payload, dtype="<f8").astype(np.float64)
    parts = np.split(flat, np.cumsum(sizes)[:-1])
    return MfModel(
        user_factors=parts[0].reshape(n_users, k),
        item_factors=parts[1].reshape(n_items, k),
        branch_tilde=BranchHead(parts[2], parts[3], parts[4].reshape(())),
        branch_hat=BranchHead(parts[5], parts[6], parts[7].reshape(())),
    )
