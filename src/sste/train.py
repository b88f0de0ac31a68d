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
from typing import TYPE_CHECKING

import numpy as np

from . import evaluate as ev
from .data import Dataset
from .errors import TrainingDivergedError
from .model import (Branch, MfModel, _checked_ids, _logits_with_rows, bce_from_logits, init,
                    sigmoid)
from .optim import SparseAdam
from .propensity import PropensityTable, train_family
from .seeding import derive_seed, rng_for

if TYPE_CHECKING:
    from .experiment import RunConfig

LOSS_DIVERGENCE_LIMIT = 1e4  # nats; mean epoch loss beyond this is divergence


class Objective(Enum):
    NAIVE = "naive"
    IPS = "ips"
    SNIPS = "snips"
    SSTE = "sste"


@dataclass(frozen=True)
class TrainState:
    epoch: int
    best_score: float
    best_epoch: int
    history: tuple[ev.EvalReport, ...]


@dataclass(frozen=True)
class LossBreakdown:
    """Per-term epoch losses; a baseline trains no Tilde term and leaves both None."""

    hat_bce: float
    reg_hat: float
    tilde_bce: float | None = None
    reg_tilde: float | None = None
    total: float = field(init=False)

    def __post_init__(self):
        parts = [self.tilde_bce, self.hat_bce, self.reg_tilde, self.reg_hat]
        object.__setattr__(
            self, "total", float(sum(p for p in parts if p is not None))
        )


@dataclass(frozen=True)
class BatchGradients:
    """Summed coefficient-weighted gradients for one batch, by unique row.

    ``rows`` index the factor table and the branch's bias table alike: the
    batch's unique users, then ``n_users +`` its unique items. ``bias`` has
    one more entry than ``rows``, the global bias's gradient.
    """

    rows: np.ndarray
    factors: np.ndarray
    bias: np.ndarray
    loss: float  # sum of coefficient * BCE over the batch


def _sum_rows_by(inverse: np.ndarray, rows: np.ndarray, n_groups: int) -> np.ndarray:
    """(n_groups, k) sums of ``rows`` by group id ``inverse``.

    One ``bincount`` over the flat index ``group * k + column``; it adds in
    input order from zero, as ``np.add.at`` does, so the sums are the same
    to the bit.
    """
    k = rows.shape[1]
    flat = (inverse[:, None] * k + np.arange(k)).ravel()
    return np.bincount(flat, weights=rows.ravel(), minlength=n_groups * k).reshape(n_groups, k)


def _group(ids: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """``np.unique(ids, return_inverse=True)`` for ids in [0, n). Unless n
    dwarfs the batch, the ids are marked in a bool table, and each finds its
    position among the marked through a slot table, with no sort. For a
    batch of 512 ids the sort wins only past about 100 table entries per id."""
    if n > 64 * len(ids):
        return np.unique(ids, return_inverse=True)
    present = np.zeros(n, dtype=bool)
    present[ids] = True
    uniq = np.flatnonzero(present)
    slot = np.empty(n, dtype=np.intp)
    slot[uniq] = np.arange(len(uniq))
    return uniq, slot[ids]


def batch_gradients(
    m: MfModel,
    branch: Branch,
    users: np.ndarray,
    items: np.ndarray,
    labels: np.ndarray,
    coeffs: np.ndarray | float,
) -> BatchGradients:
    """Gradients of sum_i coeffs_i * BCE_i at the current parameters.

    ``labels`` are 0/1 in any numeric dtype; ``coeffs`` is a scalar or one
    weight per row. Ids are checked once, here. All gradients are evaluated
    before any update (simultaneous step).
    """
    users = _checked_ids(users, m.n_users, "user")
    items = _checked_ids(items, m.n_items, "item")
    z, user_rows, item_rows = _logits_with_rows(m, branch, users, items)
    residual = coeffs * (sigmoid(z) - labels)
    uniq_users, u_inv = _group(users, m.n_users)
    uniq_items, i_inv = _group(items, m.n_items)
    n_u = len(uniq_users)
    rows = np.concatenate([uniq_users, uniq_items + m.n_users])
    factors = np.empty((len(rows), m.k))
    bias = np.empty(len(rows) + 1)
    # The gathered rows are scaled in place: at k=50, B=4096 each table is
    # 1.6 MB, and every further large temporary costs page faults.
    item_rows *= residual[:, None]
    factors[:n_u] = _sum_rows_by(u_inv, item_rows, n_u)
    user_rows *= residual[:, None]
    factors[n_u:] = _sum_rows_by(i_inv, user_rows, len(uniq_items))
    bias[:n_u] = np.bincount(u_inv, weights=residual, minlength=n_u)
    bias[n_u:-1] = np.bincount(i_inv, weights=residual, minlength=len(uniq_items))
    bias[-1] = residual.sum()
    loss = float((coeffs * bce_from_logits(z, labels)).sum())
    return BatchGradients(rows=rows, factors=factors, bias=bias, loss=loss)


def _apply_batch(
    m: MfModel, opt: SparseAdam, branch: Branch, bg: BatchGradients, l2: float
) -> None:
    """One optimizer step of the factor table and one of the branch's bias
    table, its global bias last; L2 is folded into each touched row's gradient."""
    opt.update("factors", bg.rows, bg.factors + l2 * m.factors.take(bg.rows, axis=0))
    table = m.head(branch).bias
    rows = np.append(bg.rows, len(table) - 1)
    opt.update(f"{branch.value}_bias", rows, bg.bias + l2 * table[rows])


def regularization_terms(m: MfModel, l2: float) -> tuple[float, float]:
    """(reg of Tilde parameter set, reg of Hat parameter set), 0.5*l2*||.||^2.

    Shared factors belong to both sets, so they appear in both terms.
    """
    shared = float((m.user_factors ** 2).sum() + (m.item_factors ** 2).sum())
    reg_tilde = 0.5 * l2 * (shared + m.branch_tilde.sum_squares())
    reg_hat = 0.5 * l2 * (shared + m.branch_hat.sum_squares())
    return reg_tilde, reg_hat


def _run_epoch(
    m: MfModel,
    opt: SparseAdam,
    sources: list[tuple[Branch, Dataset, np.ndarray | None]],
    cfg: RunConfig,
    epoch: int,
) -> np.ndarray:
    """One pass over ``(branch, dataset, per-row weights or None)`` sources.

    Each source is shuffled by the epoch's generator. A single source runs
    its batches in permutation order; several are interleaved by a shuffled
    schedule, so every source is visited in proportion to its size. A batch
    of B rows weighs each 1/B, or w/B (ips) or w/sum(w) (snips) by its weight
    w. Returns each source's sum of batch loss times batch size.
    """
    rng = rng_for(derive_seed(cfg.seed, "train"), "epoch", epoch)
    perms = [rng.permutation(len(source)) for _, source, _ in sources]
    schedule = [
        (si, lo)
        for si, (_, source, _) in enumerate(sources)
        for lo in range(0, len(source), cfg.batch_size)
    ]
    order = range(len(schedule))
    if len(sources) > 1:
        order = rng.permutation(len(schedule))
    snips = Objective(cfg.objective) is Objective.SNIPS

    sums = np.zeros(len(sources))
    for b in order:
        si, lo = schedule[b]
        branch, source, weights = sources[si]
        idx = perms[si][lo:lo + cfg.batch_size]
        if weights is None:
            coeffs = 1.0 / len(idx)
        else:
            w = weights[idx]
            coeffs = w / (w.sum() if snips else len(idx))
        bg = batch_gradients(
            m, branch, source.users[idx], source.items[idx], source.labels[idx], coeffs
        )
        _apply_batch(m, opt, branch, bg, cfg.l2_lambda)
        sums[si] += bg.loss * len(idx)
    return sums


def sste_epoch(
    m: MfModel,
    opt: SparseAdam,
    d_tr: Dataset,
    a_tr: list[Dataset],
    cfg: RunConfig,
    epoch: int,
) -> LossBreakdown:
    """One interleaved pass over the biased set (Tilde) and each auxiliary
    subset (Hat), batches shuffled together proportionally to source sizes."""
    sources = [(Branch.TILDE, d_tr, None)] + [(Branch.HAT, a, None) for a in a_tr]
    sums = _run_epoch(m, opt, sources, cfg, epoch)
    reg_tilde, reg_hat = regularization_terms(m, cfg.l2_lambda)
    return LossBreakdown(
        tilde_bce=float(sums[0] / len(d_tr)),
        hat_bce=float(sums[1:].sum() / sum(len(a) for a in a_tr)),
        reg_tilde=reg_tilde,
        reg_hat=reg_hat,
    )


def baseline_epoch(
    m: MfModel,
    opt: SparseAdam,
    d_tr: Dataset,
    weights: np.ndarray | None,
    cfg: RunConfig,
    epoch: int,
) -> LossBreakdown:
    """One pass of naive/ips/snips training through the Hat branch only.

    ``weights`` are the rows' inverse propensities, None for naive. The loss
    is the size-weighted mean of per-batch objective values, each evaluated
    before its update.
    """
    sums = _run_epoch(m, opt, [(Branch.HAT, d_tr, weights)], cfg, epoch)
    _, reg_hat = regularization_terms(m, cfg.l2_lambda)
    return LossBreakdown(
        hat_bce=float(sums[0] / len(d_tr)),
        reg_hat=reg_hat,
    )


def self_evaluate(m: MfModel, val: Dataset, a_val: list[Dataset]) -> ev.EvalReport:
    """Hat-branch AUC on validation and each usable auxiliary subset.

    Single-class auxiliary subsets are skipped, and alpha covers the rest; a
    single-class validation set is ``auc_scores``' MetricUndefinedError.
    """
    usable = [val, *(a for a in a_val if 0 < a.positive_count < len(a))]
    scores = [ev.auc_scores(m.predict(Branch.HAT, d.users, d.items), d.labels) for d in usable]
    return ev.EvalReport(scores[0], scores[1:])


def fit(
    train: Dataset,
    val: Dataset,
    aux: tuple[list[Dataset], list[Dataset]],
    cfg: RunConfig,
    propensity: PropensityTable,
    on_epoch=None,
) -> tuple[MfModel, TrainState]:
    """Train, self-evaluate each epoch, and return the best checkpoint.

    ``aux`` is the (auxiliary train list, auxiliary val list) pair; the train
    list, one subset per ``cfg.epsilon_train`` value (sste has one or more),
    is ignored by a baseline, and with no val subsets selection is by plain
    validation AUC. The model with the highest modified score is returned,
    first-best winning ties; training stops when the score has not strictly
    improved for ``cfg.patience`` epochs. ips and snips weigh each row by
    its inverse ``propensity``. With ``cfg.resample_each_epoch``, the joint
    objective redraws its auxiliary train subsets at ``cfg.epsilon_train``
    before every epoch after the first.
    Initialization, epoch shuffles and redraws use the seeds
    ``derive_seed(cfg.seed, "init" | "train" | "selfsample")``.
    ``on_epoch(epoch, breakdown, report)`` is called after each epoch.
    """
    a_tr, a_val = aux
    objective = Objective(cfg.objective)
    weights = None
    if objective in (Objective.IPS, Objective.SNIPS):
        weights = 1.0 / propensity.per_item_propensity[train.items]

    seed = derive_seed(cfg.seed, "init")
    model = init(train.n_users, train.n_items, cfg.embedding_dim, cfg.init_scale, seed)
    opt = SparseAdam(model.parameters(), cfg.learning_rate)

    best_model = None
    best_score = -np.inf
    best_epoch = 0
    history: list[ev.EvalReport] = []
    for epoch in range(1, cfg.max_epochs + 1):
        if cfg.resample_each_epoch and epoch > 1:
            aux_seed = derive_seed(cfg.seed, "selfsample")
            a_tr = train_family(train, propensity, cfg.epsilon_train, aux_seed, epoch=epoch)
        if objective is Objective.SSTE:
            breakdown = sste_epoch(model, opt, train, a_tr, cfg, epoch=epoch)
        else:
            breakdown = baseline_epoch(model, opt, train, weights, cfg, epoch=epoch)
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
