"""Mini-batch training of the two-branch model and its baselines.

The joint objective is an unweighted sum of two data terms plus L2: binary
cross-entropy of the raw biased train set through the Tilde branch, and of
the auxiliary subsets through the Hat branch. One epoch interleaves
shuffled mini-batches from every source in proportion to their sizes, so
both terms stay fresh without extra passes. Baselines (naive, ips, snips)
train only the Hat branch on the biased set with their respective
per-instance weightings. After every epoch the Hat branch is scored on the
validation split and each auxiliary validation subset; the validation score
minus the cross-set disagreement alpha drives checkpoint selection and
patience-based early stopping.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from . import evaluate as ev
from .data import Dataset
from .errors import MetricUndefinedError, TrainingDivergedError, ValidationError
from .model import Branch, InitSpec, MfModel, bce_from_logits, init, sigmoid
from .optim import SparseAdam
from .propensity import PropensityTable
from .selfsample import train_family
from .seeding import rng_for

LOSS_DIVERGENCE_LIMIT = 1e4  # nats; mean epoch loss beyond this is divergence


class Objective(Enum):
    NAIVE = "naive"
    IPS = "ips"
    SNIPS = "snips"
    SSTE = "sste"


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 0.01
    l2_lambda: float = 0.0
    batch_size: int = 512
    max_epochs: int = 100
    patience: int = 5
    objective: Objective = Objective.NAIVE
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "objective", Objective(self.objective))
        if self.learning_rate <= 0:
            raise ValidationError("learning_rate must be positive")
        if self.l2_lambda < 0:
            raise ValidationError("l2_lambda must be >= 0")
        if self.batch_size < 1:
            raise ValidationError("batch_size must be >= 1")
        if self.max_epochs < 1:
            raise ValidationError("max_epochs must be >= 1")
        if self.patience < 1:
            raise ValidationError("patience must be >= 1")


@dataclass(frozen=True)
class TrainState:
    epoch: int
    best_score: float
    best_epoch: int
    history: tuple[ev.EvalReport, ...]


@dataclass(frozen=True)
class LossBreakdown:
    """Per-term epoch losses; None marks a term the objective does not train."""

    tilde_bce: float | None
    hat_bce: float
    reg_tilde: float | None
    reg_hat: float
    total: float = field(init=False)

    def __post_init__(self):
        parts = [self.tilde_bce, self.hat_bce, self.reg_tilde, self.reg_hat]
        object.__setattr__(
            self, "total", float(sum(p for p in parts if p is not None))
        )

    def to_dict(self) -> dict:
        return {
            "tilde_bce": self.tilde_bce,
            "hat_bce": self.hat_bce,
            "reg_tilde": self.reg_tilde,
            "reg_hat": self.reg_hat,
            "total": self.total,
        }


def batch_coefficients(
    objective: Objective, weights: np.ndarray | None, batch_size: int
) -> np.ndarray:
    """Per-instance loss coefficients for one batch.

    naive: 1/B each; ips: weight/B; snips: weight/sum(weights). ``weights``
    are inverse propensities and must be given for ips and snips.
    """
    objective = Objective(objective)
    if objective in (Objective.NAIVE, Objective.SSTE):
        return np.full(batch_size, 1.0 / batch_size)
    if weights is None:
        raise ValidationError(f"{objective.value} needs inverse-propensity weights")
    if len(weights) != batch_size:
        raise ValidationError("weights must align with the batch")
    if objective is Objective.IPS:
        return weights / batch_size
    return weights / weights.sum()


@dataclass(frozen=True)
class BatchGradients:
    """Summed coefficient-weighted gradients for one batch, by unique row."""

    users: np.ndarray
    user_factors: np.ndarray
    items: np.ndarray
    item_factors: np.ndarray
    user_bias: np.ndarray
    item_bias: np.ndarray
    global_bias: float
    loss: float  # sum of coefficient * BCE over the batch


def batch_gradients(
    m: MfModel,
    branch: Branch,
    users: np.ndarray,
    items: np.ndarray,
    labels: np.ndarray,
    coeffs: np.ndarray,
) -> BatchGradients:
    """Gradients of sum_i coeffs_i * BCE_i at the current parameters.

    All gradients are evaluated before any update (simultaneous step).
    """
    z = m.logits(branch, users, items)
    residual = coeffs * (sigmoid(z) - labels)
    uniq_users, u_inv = np.unique(users, return_inverse=True)
    uniq_items, i_inv = np.unique(items, return_inverse=True)
    g_user = np.zeros((len(uniq_users), m.k))
    np.add.at(g_user, u_inv, residual[:, None] * m.item_factors[items])
    g_item = np.zeros((len(uniq_items), m.k))
    np.add.at(g_item, i_inv, residual[:, None] * m.user_factors[users])
    g_user_bias = np.bincount(u_inv, weights=residual, minlength=len(uniq_users))
    g_item_bias = np.bincount(i_inv, weights=residual, minlength=len(uniq_items))
    loss = float((coeffs * bce_from_logits(z, labels)).sum())
    return BatchGradients(
        users=uniq_users,
        user_factors=g_user,
        items=uniq_items,
        item_factors=g_item,
        user_bias=g_user_bias,
        item_bias=g_item_bias,
        global_bias=float(residual.sum()),
        loss=loss,
    )


def _apply_batch(
    m: MfModel, opt: SparseAdam, branch: Branch, bg: BatchGradients, l2: float
) -> None:
    """One optimizer step; L2 is folded into each touched row's gradient."""
    head = m.head(branch)
    prefix = branch.value
    opt.update("user_factors", bg.users, bg.user_factors + l2 * m.user_factors[bg.users])
    opt.update("item_factors", bg.items, bg.item_factors + l2 * m.item_factors[bg.items])
    opt.update(
        f"{prefix}_user_bias", bg.users, bg.user_bias + l2 * head.user_bias[bg.users]
    )
    opt.update(
        f"{prefix}_item_bias", bg.items, bg.item_bias + l2 * head.item_bias[bg.items]
    )
    opt.update(
        f"{prefix}_global_bias", None, bg.global_bias + l2 * float(head.global_bias)
    )


def regularization_terms(m: MfModel, l2: float) -> tuple[float, float]:
    """(reg of Tilde parameter set, reg of Hat parameter set), 0.5*l2*||.||^2.

    Shared factors belong to both sets, so they appear in both terms.
    """
    shared = float((m.user_factors ** 2).sum() + (m.item_factors ** 2).sum())
    reg_tilde = 0.5 * l2 * (shared + m.branch_tilde.sum_squares())
    reg_hat = 0.5 * l2 * (shared + m.branch_hat.sum_squares())
    return reg_tilde, reg_hat


def _batch_bounds(n: int, batch_size: int) -> list[tuple[int, int]]:
    return [(lo, min(lo + batch_size, n)) for lo in range(0, n, batch_size)]


def sste_epoch(
    m: MfModel,
    opt: SparseAdam,
    d_tr: Dataset,
    a_tr: list[Dataset],
    cfg: TrainConfig,
    epoch: int = 1,
) -> LossBreakdown:
    """One interleaved pass over the biased set (Tilde) and each auxiliary
    subset (Hat), batches shuffled together proportionally to source sizes."""
    if not a_tr:
        raise ValidationError("sste needs at least one auxiliary train subset")
    sources = [(Branch.TILDE, d_tr)] + [(Branch.HAT, a) for a in a_tr]
    for _, source in sources:
        if len(source) == 0:
            raise ValidationError("cannot train on an empty dataset")
    rng = rng_for(cfg.seed, "epoch", epoch)
    perms = [rng.permutation(len(source)) for _, source in sources]
    schedule = [
        (si, lo, hi)
        for si, (_, source) in enumerate(sources)
        for lo, hi in _batch_bounds(len(source), cfg.batch_size)
    ]
    order = rng.permutation(len(schedule))

    sums = np.zeros(len(sources))
    for b in order:
        si, lo, hi = schedule[b]
        branch, source = sources[si]
        idx = perms[si][lo:hi]
        coeffs = batch_coefficients(Objective.NAIVE, None, len(idx))
        bg = batch_gradients(
            m, branch, source.users[idx], source.items[idx],
            source.labels[idx].astype(np.float64), coeffs,
        )
        _apply_batch(m, opt, branch, bg, cfg.l2_lambda)
        sums[si] += bg.loss * len(idx)

    tilde_bce = sums[0] / len(d_tr)
    hat_bce = sums[1:].sum() / sum(len(a) for a in a_tr)
    reg_tilde, reg_hat = regularization_terms(m, cfg.l2_lambda)
    return LossBreakdown(
        tilde_bce=float(tilde_bce),
        hat_bce=float(hat_bce),
        reg_tilde=reg_tilde,
        reg_hat=reg_hat,
    )


def baseline_epoch(
    m: MfModel,
    opt: SparseAdam,
    d_tr: Dataset,
    pt: PropensityTable | None,
    cfg: TrainConfig,
    epoch: int = 1,
) -> LossBreakdown:
    """One pass of naive/ips/snips training through the Hat branch only.

    The reported loss is the size-weighted mean of per-batch objective
    values, each evaluated before its update.
    """
    objective = cfg.objective
    if objective is Objective.SSTE:
        raise ValidationError("use sste_epoch for the joint objective")
    if len(d_tr) == 0:
        raise ValidationError("cannot train on an empty dataset")
    weights = None
    if objective in (Objective.IPS, Objective.SNIPS):
        if pt is None:
            raise ValidationError(f"{objective.value} needs a propensity table")
        weights = 1.0 / pt.per_item_propensity[d_tr.items]
    rng = rng_for(cfg.seed, "epoch", epoch)
    perm = rng.permutation(len(d_tr))

    loss_sum = 0.0
    for lo, hi in _batch_bounds(len(d_tr), cfg.batch_size):
        idx = perm[lo:hi]
        w = None if weights is None else weights[idx]
        coeffs = batch_coefficients(objective, w, len(idx))
        bg = batch_gradients(
            m, Branch.HAT, d_tr.users[idx], d_tr.items[idx],
            d_tr.labels[idx].astype(np.float64), coeffs,
        )
        _apply_batch(m, opt, Branch.HAT, bg, cfg.l2_lambda)
        loss_sum += bg.loss * len(idx)

    _, reg_hat = regularization_terms(m, cfg.l2_lambda)
    return LossBreakdown(
        tilde_bce=None,
        hat_bce=float(loss_sum / len(d_tr)),
        reg_tilde=None,
        reg_hat=reg_hat,
    )


def _dataset_auc(m: MfModel, d: Dataset) -> float:
    return ev.auc_scores(m.predict(Branch.HAT, d.users, d.items), d.labels)


def _usable_for_auc(d: Dataset) -> bool:
    return len(d) > 0 and 0 < d.positive_count < len(d)


def self_evaluate(m: MfModel, val: Dataset, a_val: list[Dataset]) -> ev.EvalReport:
    """Hat-branch AUC on validation and each usable auxiliary subset.

    Auxiliary subsets on which AUC is undefined (empty or single-class
    draws) are skipped; alpha covers the remaining scores.
    """
    if not _usable_for_auc(val):
        raise MetricUndefinedError("validation split needs both classes")
    score_val = _dataset_auc(m, val)
    scores_aux = [_dataset_auc(m, a) for a in a_val if _usable_for_auc(a)]
    return ev.EvalReport(score_val, scores_aux)


def fit(
    train: Dataset,
    val: Dataset,
    aux: tuple[list[Dataset], list[Dataset]] | None = None,
    cfg: TrainConfig = TrainConfig(),
    *,
    embedding_dim: int = 10,
    init_spec: InitSpec | None = None,
    propensity: PropensityTable | None = None,
    resample_seed: int | None = None,
    on_epoch=None,
) -> tuple[MfModel, TrainState]:
    """Train, self-evaluate each epoch, and return the best checkpoint.

    ``aux`` is the (auxiliary train list, auxiliary val list) pair; both
    lists may be empty for baselines, in which case the selection score
    degrades to plain validation AUC. The model with the highest modified
    score is returned, first-best winning ties; training stops when the
    score has not strictly improved for ``cfg.patience`` epochs.
    With ``resample_seed`` set, the joint objective redraws its auxiliary
    train subsets before every epoch after the first, at the thresholds
    they record, from ``train_family`` with that master seed.
    ``on_epoch(epoch, breakdown, report)`` is called after each epoch.
    """
    a_tr, a_val = aux if aux is not None else ([], [])
    for d in [train, val, *a_tr, *a_val]:
        if d.n_users != train.n_users or d.n_items != train.n_items:
            raise ValidationError("all datasets must share the vocabularies")
    if cfg.objective is Objective.SSTE and not a_tr:
        raise ValidationError("sste needs auxiliary train subsets")
    resample = cfg.objective is Objective.SSTE and resample_seed is not None
    if resample and propensity is None:
        raise ValidationError("resampling needs the propensity table")
    epsilons = tuple(a.epsilon for a in a_tr)

    model = init(train.n_users, train.n_items, embedding_dim, init_spec or InitSpec())
    opt = SparseAdam(model.parameters(), cfg.learning_rate)

    best_model = None
    best_score = -np.inf
    best_epoch = 0
    history: list[ev.EvalReport] = []
    epoch = 0
    for epoch in range(1, cfg.max_epochs + 1):
        if resample and epoch > 1:
            a_tr = train_family(train, propensity, epsilons, resample_seed, epoch=epoch)
        if cfg.objective is Objective.SSTE:
            breakdown = sste_epoch(model, opt, train, a_tr, cfg, epoch=epoch)
        else:
            breakdown = baseline_epoch(model, opt, train, propensity, cfg, epoch=epoch)
        if not np.isfinite(breakdown.total) or breakdown.total > LOSS_DIVERGENCE_LIMIT:
            raise TrainingDivergedError(
                f"epoch {epoch} loss {breakdown.total} out of bounds"
            )
        if not model.all_finite():
            raise TrainingDivergedError(f"non-finite parameters at epoch {epoch}")

        report = self_evaluate(model, val, a_val)
        history.append(report)
        if report.modified_score > best_score:
            best_score = report.modified_score
            best_epoch = epoch
            best_model = model.copy()
        if on_epoch is not None:
            on_epoch(epoch, breakdown, report)
        if epoch - best_epoch >= cfg.patience:
            break

    state = TrainState(
        epoch=epoch,
        best_score=float(best_score),
        best_epoch=best_epoch,
        history=tuple(history),
    )
    return best_model, state
