"""Independent reference implementations the tests compare against.

Everything here is written the slow, obvious way (pair enumeration,
tie-averaged rank sums, pooled ranges, one user at a time, explicit finite
differences, masked sigmoid, ``np.add.at`` scatters, Adam state read row by
row twice, one ``int()`` per TSV field, one objective switch per batch's
loss coefficients, a truncated copy of the sampling probabilities) and
stays free of the package's own metric, gradient, optimizer, parsing or
sampling code paths.
"""

import math
from dataclasses import dataclass

import numpy as np

from sste.data import Dataset, Provenance, Schema
from sste.errors import ParseError, ValidationError
from sste.optim import ADAM_BETA1, ADAM_BETA2, ADAM_EPS
from sste.seeding import rng_for
from sste.train import Objective


def auc_bruteforce(predictions, labels) -> float:
    """O(n^2) pair counting: concordant pairs + half ties over all pairs."""
    predictions = np.asarray(predictions, dtype=np.float64)
    labels = np.asarray(labels)
    pos = predictions[labels == 1]
    neg = predictions[labels == 0]
    total = 0.0
    for p in pos:
        for n in neg:
            if p > n:
                total += 1.0
            elif p == n:
                total += 0.5
    return total / (len(pos) * len(neg))


def auc_pair_matrix(predictions, labels) -> float:
    """Same pair counting as auc_bruteforce, via a broadcast comparison.

    Kept separate so the large randomized sweeps stay fast while the loop
    version above remains the readable ground truth for small cases.
    """
    predictions = np.asarray(predictions, dtype=np.float64)
    labels = np.asarray(labels)
    pos = predictions[labels == 1][:, None]
    neg = predictions[labels == 0][None, :]
    wins = (pos > neg).sum() + 0.5 * (pos == neg).sum()
    return float(wins) / (pos.size * neg.size)


def auc_rank_sum(predictions, labels) -> float:
    """The pair count by rank sums: the positives' tie-averaged ranks among
    all predictions, less the least sum n_pos ranks can have, over
    n_pos * n_neg (Hanley and McNeil 1982)."""
    predictions = np.asarray(predictions, dtype=np.float64)
    labels = np.asarray(labels)
    n_pos = int((labels == 1).sum())
    n_neg = int((labels == 0).sum())
    _, inverse, counts = np.unique(predictions, return_inverse=True, return_counts=True)
    ends = np.cumsum(counts)
    avg_ranks = (ends - counts + 1 + ends) / 2.0
    rank_sum = avg_ranks[inverse][labels == 1].sum()
    return float((rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


def alpha_range(score_val, scores_aux) -> float:
    """The pooled max-minus-min form of the cross-set disagreement."""
    pooled = [score_val, *scores_aux]
    return max(pooled) - min(pooled)


def lazy_l2_batch_objective(params, n_users: int, branch: str, users, items,
                            labels, coeffs, l2: float) -> float:
    """sum_i coeffs_i * BCE_i through one branch, plus 0.5 * l2 * ||.||^2 over
    the rows the batch touches: its users' and items' factor and bias rows
    and the branch's global bias.

    ``params`` is a name -> table dict as from MfModel.parameters(), cut
    here by ``n_users`` into user and item rows; logits are summed term by
    term, one instance at a time.
    """
    factors, bias = params["factors"], params[f"{branch}_bias"]
    uf, itf = factors[:n_users], factors[n_users:]
    ub, ib, gb = bias[:n_users], bias[n_users:-1], bias[-1]
    data = 0.0
    for u, i, y, c in zip(users, items, labels, coeffs):
        z = float(np.dot(uf[u], itf[i])) + ub[u] + ib[i] + float(gb)
        data += c * (np.logaddexp(0.0, z) - y * z)
    touched_users, touched_items = np.unique(users), np.unique(items)
    squares = ((uf[touched_users] ** 2).sum() + (itf[touched_items] ** 2).sum()
               + (ub[touched_users] ** 2).sum() + (ib[touched_items] ** 2).sum()
               + float(gb) ** 2)
    return data + 0.5 * l2 * squares


def sigmoid_masked(z):
    """The logistic function by two boolean masks, one per sign of z."""
    z = np.asarray(z, dtype=np.float64)
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


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


def truncate(p, epsilon: float) -> np.ndarray:
    """The truncated sampling probabilities, as a second array: each of ``p``
    at or above ``epsilon`` forced to 1, the rest kept."""
    p = np.asarray(p, dtype=np.float64)
    return np.where(p >= epsilon, 1.0, p)


def draw_truncated(d: Dataset, probs, epsilon: float, seed: int) -> Dataset:
    """The auxiliary draw under ``truncate(probs, epsilon)``: rows whose
    uniform draw from ``seed`` falls below their truncated probability,
    gathered by index."""
    keep = np.random.default_rng(seed).random(len(d)) < truncate(probs, epsilon)
    return d.take(np.flatnonzero(keep))


def batch_gradients_add_at(m, branch, users, items, labels, coeffs) -> dict:
    """The batch gradient with each factor row gathered twice, once for the
    logits and once for the scatter, and summed by ``np.add.at``.

    Returns the fields of ``sste.train.BatchGradients`` as a dict: the
    user rows stacked over the item rows, and the global bias last.
    """
    head = m.head(branch)
    z = (np.einsum("ij,ij->i", m.user_factors[users], m.item_factors[items])
         + head.user_bias[users] + head.item_bias[items] + float(head.global_bias))
    residual = coeffs * (sigmoid_masked(z) - labels)
    uniq_users, u_inv = np.unique(users, return_inverse=True)
    uniq_items, i_inv = np.unique(items, return_inverse=True)
    g_user = np.zeros((len(uniq_users), m.k))
    np.add.at(g_user, u_inv, residual[:, None] * m.item_factors[items])
    g_item = np.zeros((len(uniq_items), m.k))
    np.add.at(g_item, i_inv, residual[:, None] * m.user_factors[users])
    loss = float((coeffs * (np.logaddexp(0.0, z) - labels * z)).sum())
    return {
        "rows": np.concatenate([uniq_users, m.n_users + uniq_items]),
        "factors": np.concatenate([g_user, g_item]),
        "bias": np.concatenate([
            np.bincount(u_inv, weights=residual, minlength=len(uniq_users)),
            np.bincount(i_inv, weights=residual, minlength=len(uniq_items)),
            [residual.sum()],
        ]),
        "loss": loss,
    }


def adam_update_double_gather(state, name: str, rows, grad, lr: float) -> None:
    """One lazy per-row Adam step that reads each row's state twice.

    ``state`` maps ``name`` to its live (param, m, v, t) arrays; ``rows``
    are unique.
    """
    b1, b2, eps = ADAM_BETA1, ADAM_BETA2, ADAM_EPS
    param, m, v, t = state[name]
    t[rows] += 1
    steps = t[rows].astype(np.float64)
    m[rows] = b1 * m[rows] + (1.0 - b1) * grad
    v[rows] = b2 * v[rows] + (1.0 - b2) * grad * grad
    c1 = 1.0 - b1 ** steps
    c2 = 1.0 - b2 ** steps
    if param.ndim == 2:
        c1 = c1[:, None]
        c2 = c2[:, None]
    param[rows] -= lr * (m[rows] / c1) / (np.sqrt(v[rows] / c2) + eps)


def adam_update_scalar(param, m, v, t, grad, lr: float) -> None:
    """One Adam step of a 0-d parameter on its live 0-d state arrays, each
    updated whole through ``[...]``: the optimizer's former scalar branch."""
    t += 1
    m[...] = ADAM_BETA1 * m + (1.0 - ADAM_BETA1) * grad
    v[...] = ADAM_BETA2 * v + (1.0 - ADAM_BETA2) * grad * grad
    m_hat = m / (1.0 - ADAM_BETA1 ** t)
    v_hat = v / (1.0 - ADAM_BETA2 ** t)
    param[...] -= lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)


def epoch_batches(sources, batch_size: int, seed: int, epoch: int) -> list:
    """The batches of one training epoch, in the order they are applied.

    ``sources`` is a list of (branch, dataset, per-row weights or None).
    The epoch generator first draws one permutation per source, in source
    order; each permuted source is cut into consecutive batches. A single
    source runs its batches in that order. With several, one more
    permutation from the same generator reorders the list of every batch
    (source by source, batch by batch). Each entry is (branch, dataset,
    weights, row indices).
    """
    rng = rng_for(seed, "epoch", epoch)
    batches = []
    for branch, d, weights in sources:
        perm = rng.permutation(len(d))
        for lo in range(0, len(d), batch_size):
            batches.append((branch, d, weights, perm[lo:lo + batch_size]))
    if len(sources) > 1:
        batches = [batches[b] for b in rng.permutation(len(batches))]
    return batches


@dataclass(frozen=True)
class RankedList:
    """One user's candidates sorted by descending score, plus the relevant set."""

    user: int
    ranked_items: np.ndarray
    relevant: np.ndarray

    def __post_init__(self):
        ranked = np.asarray(self.ranked_items, dtype=np.int64)
        relevant = np.unique(np.asarray(self.relevant, dtype=np.int64))
        object.__setattr__(self, "ranked_items", ranked)
        object.__setattr__(self, "relevant", relevant)
        if len(np.unique(ranked)) != len(ranked):
            raise ValidationError("ranked_items must not repeat a candidate")
        if len(relevant) == 0:
            raise ValidationError("a ranked list needs at least one relevant item")
        if not np.all(np.isin(relevant, ranked)):
            raise ValidationError("relevant items must appear among the candidates")


def positives_by_user(d: Dataset) -> dict[int, np.ndarray]:
    """User -> sorted distinct items of its positive rows."""
    by_user: dict[int, set] = {}
    for u, i, y in zip(d.users.tolist(), d.items.tolist(), d.labels.tolist()):
        if y == 1:
            by_user.setdefault(u, set()).add(i)
    return {u: np.array(sorted(items), dtype=np.int64) for u, items in by_user.items()}


def ranked_lists_by_user(score_fn, eval_set: Dataset, exclude: Dataset | None = None):
    """The per-user full ranking: for each user in ascending id order, score
    only its candidates (every item minus its positives in ``exclude``) with
    one ``score_fn`` call and stable-sort them by descending score; users
    with no relevant item left after the exclusion are skipped."""
    relevant_by_user = positives_by_user(eval_set)
    excluded_by_user = positives_by_user(exclude) if exclude is not None else {}
    all_items = np.arange(eval_set.n_items, dtype=np.int64)
    lists = []
    for u in sorted(relevant_by_user):
        banned = excluded_by_user.get(u, np.empty(0, dtype=np.int64))
        candidates = np.setdiff1d(all_items, banned)
        relevant = np.setdiff1d(relevant_by_user[u], banned)
        if len(relevant) == 0:
            continue
        scores = np.asarray(score_fn(np.full(len(candidates), u), candidates))
        order = np.argsort(-scores, kind="stable")
        lists.append(RankedList(u, candidates[order], relevant))
    return lists


def topk_by_user(lists, ks, ndcg_k: int) -> dict[str, float]:
    """Macro P@K, R@K and nDCG@ndcg_k over per-user lists, one user at a
    time, each term added to a running Python float."""
    totals = {f"p@{k}": 0.0 for k in ks}
    totals.update({f"r@{k}": 0.0 for k in ks})
    ndcg_name = f"ndcg@{ndcg_k}"
    totals[ndcg_name] = 0.0
    for rl in lists:
        for k in ks:
            hits = int(np.isin(rl.ranked_items[:k], rl.relevant).sum())
            totals[f"p@{k}"] += hits / k
            totals[f"r@{k}"] += hits / len(rl.relevant)
        gains = np.isin(rl.ranked_items[:ndcg_k], rl.relevant).astype(np.float64)
        positions = np.arange(1, len(gains) + 1)
        dcg = float((gains / np.log2(positions + 1)).sum())
        n_ideal = min(len(rl.relevant), ndcg_k)
        idcg = float((1.0 / np.log2(np.arange(1, n_ideal + 1) + 1)).sum())
        totals[ndcg_name] += dcg / idcg
    return {name: value / len(lists) for name, value in totals.items()}


def dcg_binary(ranked_flags) -> float:
    return sum(
        flag / np.log2(position + 1)
        for position, flag in enumerate(ranked_flags, start=1)
    )


def central_difference(f, x: float, h: float = 1e-5) -> float:
    return (f(x + h) - f(x - h)) / (2.0 * h)


def make_dataset(users, items, labels, n_users, n_items,
                 provenance=Provenance.BIASED_TRAIN, **id_maps) -> Dataset:
    return Dataset(
        users=np.asarray(users, dtype=np.int64),
        items=np.asarray(items, dtype=np.int64),
        labels=np.asarray(labels, dtype=np.int8),
        n_users=n_users,
        n_items=n_items,
        provenance=provenance,
        **id_maps,
    )


def save_tsv_per_row(d: Dataset) -> str:
    """The text of a label-schema TSV, one f-string per row, original ids
    inverted through a dict built from each id map."""
    def originals(dense, ids):
        if ids is None:
            return [int(x) for x in dense]
        inverse = {i: int(orig) for i, orig in enumerate(ids)}
        return [inverse[int(x)] for x in dense]

    users = originals(d.users, d.user_id_map)
    items = originals(d.items, d.item_id_map)
    return "".join(f"{users[i]}\t{items[i]}\t{int(d.labels[i])}\n" for i in range(len(d)))


def separable_4x4() -> Dataset:
    """All 16 user-item pairs, positive exactly when item id < 2."""
    users, items, labels = [], [], []
    for u in range(4):
        for v in range(4):
            users.append(u)
            items.append(v)
            labels.append(1 if v < 2 else 0)
    return make_dataset(users, items, labels, 4, 4)


def load_tsv_per_line(path, schema, user_map=None, item_map=None) -> dict:
    """The columns and id maps ``load_tsv`` gives a file, read line by line.

    A text-mode read with universal newlines, one ``int()`` per field and
    the ids densified through dicts, checked in this order per line: field
    count, integers, ids within int64, the value's range. A byte that is not
    UTF-8 is escaped by the reader and reported for its line. An unknown id
    under a given map is looked for after the whole file has parsed, row by
    row, a user before an item. Errors are ParseError with the line number.
    """
    schema = Schema(schema)
    rows = []
    with open(path, "r", encoding="utf-8", errors="surrogateescape", newline=None) as handle:
        for line_no, line in enumerate(handle, start=1):
            line = line.strip("\n").strip("\r")
            if not line:
                continue
            try:
                line.encode("utf-8")
            except UnicodeEncodeError:
                raise ParseError("invalid UTF-8", line_no) from None
            parts = line.split("\t")
            if len(parts) != 3:
                raise ParseError(f"expected 3 tab-separated fields, got {len(parts)}", line_no)
            try:
                u, v, x = int(parts[0]), int(parts[1]), int(parts[2])
            except ValueError:
                raise ParseError(f"non-integer field in {parts!r}", line_no) from None
            for kind, original in (("user", u), ("item", v)):
                if not -2**63 <= original < 2**63:
                    raise ParseError(f"{kind} id {original} outside int64", line_no)
            if schema is Schema.USER_ITEM_RATING and not 1 <= x <= 5:
                raise ParseError(f"rating {x} outside 1..5", line_no)
            if schema is Schema.USER_ITEM_LABEL and x not in (0, 1):
                raise ParseError(f"label {x} must be 0 or 1", line_no)
            rows.append((line_no, u, v, x))
    if not rows:
        raise ValidationError(f"no interactions found in {path}")

    user_ids = sorted({u for _, u, _, _ in rows}) if user_map is None else [int(u) for u in user_map]
    item_ids = sorted({v for _, _, v, _ in rows}) if item_map is None else [int(v) for v in item_map]
    user_index = {u: i for i, u in enumerate(user_ids)}
    item_index = {v: i for i, v in enumerate(item_ids)}
    for line_no, u, v, _ in rows:
        for kind, original, index in (("user", u, user_index), ("item", v, item_index)):
            if original not in index:
                raise ParseError(f"unknown {kind} id {original}", line_no)
    if schema is Schema.USER_ITEM_RATING:
        labels = [int(x > 3) for _, _, _, x in rows]
    else:
        labels = [x for _, _, _, x in rows]
    return {
        "users": np.array([user_index[u] for _, u, _, _ in rows], dtype=np.int64),
        "items": np.array([item_index[v] for _, _, v, _ in rows], dtype=np.int64),
        "labels": np.array(labels, dtype=np.int8),
        "user_id_map": np.array(user_ids, dtype=np.int64),
        "item_id_map": np.array(item_ids, dtype=np.int64),
    }


def split_per_user_loop(d: Dataset, ratio: float, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Row indices of a PER_USER_RANDOM split, one user at a time.

    Users are taken in ascending id order (rows in file order within each),
    each one drawing ``rng.permutation`` of its size from the one generator;
    floor(ratio * n) of a user's permuted rows go first, and a user with
    fewer than 2 rows goes wholly first. Returns (first, second), sorted.
    """
    rng = rng_for(seed, "per-user-split")
    order = np.argsort(d.users, kind="stable")
    boundaries = np.flatnonzero(np.diff(d.users[order])) + 1
    first_parts, second_parts = [], []
    for group in np.split(order, boundaries):
        n = len(group)
        if n < 2:
            first_parts.append(group)
            continue
        perm = rng.permutation(n)
        n_first = math.floor(ratio * n)
        first_parts.append(group[perm[:n_first]])
        second_parts.append(group[perm[n_first:]])
    empty = np.asarray([], dtype=np.int64)
    first = np.sort(np.concatenate(first_parts)) if first_parts else empty
    second = np.sort(np.concatenate(second_parts)) if second_parts else empty
    return first, second
